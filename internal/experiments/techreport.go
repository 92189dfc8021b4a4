package experiments

import (
	"fmt"
	"time"

	"broadway/internal/core"
	"broadway/internal/trace"
	"broadway/internal/tracegen"
)

// The paper twice defers breadth to its technical report (TR 00-47):
// Fig. 3 shows only the CNN/FN trace ("similar results were obtained for
// other traces"), and Fig. 5 shows only one object pair ("these
// observations hold irrespective of the difference in the rate of change
// of objects"). These two studies reproduce the deferred breadth:
// TRFigure3AllTraces runs the LIMD-vs-baseline comparison on every news
// trace, and TRFigure5AllPairs runs the three mutual-consistency
// approaches on every pair of news traces. cmd/repro runs them with
// -ablations.

// TRFigure3AllTraces reproduces the Fig. 3 comparison on all four news
// traces at two representative Δ values.
func TRFigure3AllTraces() (*Result, error) {
	res := &Result{
		ID:    "tr-fig3-all-traces",
		Title: "TR: LIMD vs baseline across all news traces",
	}
	tbl := TableResult{
		Name: "limd vs baseline",
		Headers: []string{"Trace", "Δ", "LIMD polls", "LIMD fidelity",
			"Baseline polls", "Poll reduction"},
	}
	for _, tr := range tracegen.NewsPresets() {
		for _, delta := range []time.Duration{1 * time.Minute, 10 * time.Minute} {
			delta := delta
			limd, err := RunTemporal(TemporalScenario{
				Trace: tr, Delta: delta,
				Policy: func() core.Policy { return core.NewLIMD(core.LIMDConfig{Delta: delta}) },
			})
			if err != nil {
				return nil, fmt.Errorf("tr-fig3: %s Δ=%v: %w", tr.Name, delta, err)
			}
			base, err := RunTemporal(TemporalScenario{
				Trace: tr, Delta: delta,
				Policy: func() core.Policy { return core.NewPeriodic(delta) },
			})
			if err != nil {
				return nil, err
			}
			tbl.Rows = append(tbl.Rows, []string{
				tr.Name,
				delta.String(),
				fmt.Sprintf("%d", limd.Report.Polls),
				fmt.Sprintf("%.3f", limd.Report.FidelityByViolations),
				fmt.Sprintf("%d", base.Report.Polls),
				fmt.Sprintf("%.1fx", float64(base.Report.Polls)/float64(limd.Report.Polls)),
			})
		}
	}
	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes,
		"The Fig. 3 shape holds on every trace: large poll reductions at tight Δ, shrinking as Δ approaches the trace's update period (paper: \"similar results were obtained for other traces\").")
	return res, nil
}

// TRFigure5AllPairs reproduces the Fig. 5 comparison on every pair of
// news traces at one δ, covering rate ratios from ≈1.7:1 (AP:Reuters) to
// ≈5.3:1 (Guardian:CNN).
func TRFigure5AllPairs() (*Result, error) {
	presets := tracegen.NewsPresets()
	res := &Result{
		ID:    "tr-fig5-all-pairs",
		Title: "TR: mutual-consistency approaches across all trace pairs (Δ=10m, δ=5m)",
	}
	tbl := TableResult{
		Name: "all pairs",
		Headers: []string{"Pair", "Baseline fid.", "Heuristic fid.", "Triggered fid.",
			"Heuristic extra polls"},
	}
	const (
		delta  = 10 * time.Minute
		mdelta = 5 * time.Minute
	)
	for i := 0; i < len(presets); i++ {
		for j := i + 1; j < len(presets); j++ {
			trA, trB := presets[i], presets[j]
			fids := map[core.TriggerMode]float64{}
			var heuristicExtra int
			var baselinePolls int
			for _, mode := range []core.TriggerMode{core.TriggerNone, core.TriggerFaster, core.TriggerAll} {
				run, err := RunMutualTemporal(MutualTemporalScenario{
					Traces:          []*trace.Trace{trA, trB},
					DeltaIndividual: delta, DeltaMutual: mdelta,
					Mode: mode,
				})
				if err != nil {
					return nil, fmt.Errorf("tr-fig5: %s+%s %v: %w", trA.Name, trB.Name, mode, err)
				}
				fids[mode] = run.Report.FidelityBySync
				switch mode {
				case core.TriggerNone:
					baselinePolls = run.Report.Polls
				case core.TriggerFaster:
					heuristicExtra = run.Report.Polls - baselinePolls
				}
			}
			tbl.Rows = append(tbl.Rows, []string{
				pairName(trA, trB),
				fmt.Sprintf("%.3f", fids[core.TriggerNone]),
				fmt.Sprintf("%.3f", fids[core.TriggerFaster]),
				fmt.Sprintf("%.3f", fids[core.TriggerAll]),
				fmt.Sprintf("%d", heuristicExtra),
			})
		}
	}
	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes,
		"On every pair — regardless of the rate gap — the ordering holds: triggered = 1.0 exactly, heuristic in between, baseline worst (paper TR: \"irrespective of the difference in the rate of change\").")
	return res, nil
}

func pairName(a, b *trace.Trace) string {
	return a.Name + " + " + b.Name
}
