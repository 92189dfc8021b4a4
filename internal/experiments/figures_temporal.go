package experiments

import (
	"fmt"
	"time"

	"broadway/internal/core"
	"broadway/internal/metrics"
	"broadway/internal/plot"
	"broadway/internal/stats"
	"broadway/internal/trace"
	"broadway/internal/tracegen"
)

// Fig3Deltas is the Δ sweep of Figure 3 (the paper varies Δ from 1 to 60
// minutes).
var Fig3Deltas = []time.Duration{
	1 * time.Minute, 2 * time.Minute, 5 * time.Minute, 10 * time.Minute,
	15 * time.Minute, 20 * time.Minute, 30 * time.Minute, 40 * time.Minute,
	50 * time.Minute, 60 * time.Minute,
}

// Figure3 reproduces Fig. 3: LIMD vs the poll-every-Δ baseline on the
// CNN/FN trace — (a) number of polls, (b) fidelity by violations (Eq. 13),
// (c) fidelity by out-of-sync time (Eq. 14), each as a function of Δ.
func Figure3() (*Result, error) {
	tr := tracegen.CNNFN()

	var xs, limdPolls, basePolls, limdF13, baseF13, limdF14, baseF14 []float64
	for _, delta := range Fig3Deltas {
		delta := delta
		limd, err := RunTemporal(TemporalScenario{
			Trace: tr, Delta: delta,
			Policy: func() core.Policy { return core.NewLIMD(core.LIMDConfig{Delta: delta}) },
		})
		if err != nil {
			return nil, fmt.Errorf("fig3: limd Δ=%v: %w", delta, err)
		}
		base, err := RunTemporal(TemporalScenario{
			Trace: tr, Delta: delta,
			Policy: func() core.Policy { return core.NewPeriodic(delta) },
		})
		if err != nil {
			return nil, fmt.Errorf("fig3: baseline Δ=%v: %w", delta, err)
		}
		xs = append(xs, delta.Minutes())
		limdPolls = append(limdPolls, float64(limd.Report.Polls))
		basePolls = append(basePolls, float64(base.Report.Polls))
		limdF13 = append(limdF13, limd.Report.FidelityByViolations)
		baseF13 = append(baseF13, base.Report.FidelityByViolations)
		limdF14 = append(limdF14, limd.Report.FidelityByTime)
		baseF14 = append(baseF14, base.Report.FidelityByTime)
	}

	res := &Result{
		ID:    "fig3",
		Title: "Figure 3: Efficacy of the LIMD algorithm (CNN/FN trace)",
		Charts: []*plot.Chart{
			{
				Title:  "Fig 3(a): Number of polls vs Δ",
				XLabel: "delta-consistency constraint (min)",
				YLabel: "number of polls",
				Series: []plot.Series{
					{Name: "LIMD", X: xs, Y: limdPolls},
					{Name: "Baseline", X: xs, Y: basePolls},
				},
			},
			{
				Title:  "Fig 3(b): Fidelity (violations) vs Δ",
				XLabel: "delta-consistency constraint (min)",
				YLabel: "fidelity (Eq. 13)",
				Series: []plot.Series{
					{Name: "LIMD", X: xs, Y: limdF13},
					{Name: "Baseline", X: xs, Y: baseF13},
				},
			},
			{
				Title:  "Fig 3(c): Fidelity (out-of-sync time) vs Δ",
				XLabel: "delta-consistency constraint (min)",
				YLabel: "fidelity (Eq. 14)",
				Series: []plot.Series{
					{Name: "LIMD", X: xs, Y: limdF14},
					{Name: "Baseline", X: xs, Y: baseF14},
				},
			},
		},
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("At Δ=1m: LIMD %d polls vs baseline %d (%.1fx reduction) at fidelity %.2f (paper: ~6x at ~0.8).",
			int(limdPolls[0]), int(basePolls[0]), basePolls[0]/limdPolls[0], limdF13[0]),
		fmt.Sprintf("At Δ=60m: LIMD fidelity %.2f approaches baseline 1.0 (paper: converges).", limdF13[len(limdF13)-1]),
	)
	return res, nil
}

// Fig4Delta is the Δt setting of Figure 4 (the paper uses 10 minutes).
const Fig4Delta = 10 * time.Minute

// Figure4 reproduces Fig. 4: the adaptive behavior of LIMD on the CNN/FN
// trace — (a) updates per two-hour window over time, (b) the TTR the
// algorithm computes over time (Δ = 10 min). The TTR series is recovered
// from the poll schedule itself: the gap between successive polls is the
// TTR in force.
func Figure4() (*Result, error) {
	tr := tracegen.CNNFN()

	// (a) Update frequency per two-hour window.
	counter := stats.NewWindowCounter(2 * time.Hour)
	for _, u := range tr.Updates {
		counter.Observe(u.At)
	}
	wTimes, wCounts := counter.Series()
	var ux, uy []float64
	for i := range wTimes {
		ux = append(ux, wTimes[i].Hours())
		uy = append(uy, float64(wCounts[i]))
	}

	// (b) TTR over time under LIMD.
	run, err := RunTemporal(TemporalScenario{
		Trace: tr, Delta: Fig4Delta,
		Policy: func() core.Policy { return core.NewLIMD(core.LIMDConfig{Delta: Fig4Delta}) },
	})
	if err != nil {
		return nil, fmt.Errorf("fig4: %w", err)
	}
	var tx, ty []float64
	for i := 1; i < len(run.Log); i++ {
		ttr := run.Log[i].At.Sub(run.Log[i-1].At)
		tx = append(tx, run.Log[i].At.Duration().Hours())
		ty = append(ty, ttr.Minutes())
	}

	res := &Result{
		ID:    "fig4",
		Title: "Figure 4: Adaptive behavior of the LIMD approach (CNN/FN, Δ=10m)",
		Charts: []*plot.Chart{
			{
				Title:  "Fig 4(a): Updates per 2 hours",
				XLabel: "time (hours)",
				YLabel: "updates per 2h window",
				Series: []plot.Series{{Name: "updates", X: ux, Y: uy}},
			},
			{
				Title:  "Fig 4(b): Computed TTR over time",
				XLabel: "time (hours)",
				YLabel: "TTR (min)",
				Series: []plot.Series{{Name: "TTR", X: tx, Y: ty}},
			},
		},
	}

	maxTTR := 0.0
	for _, v := range ty {
		if v > maxTTR {
			maxTTR = v
		}
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("TTR ramps to %.0fm (TTRmax=60m) during overnight quiet periods and collapses each morning (paper: same sawtooth).", maxTTR))
	return res, nil
}

// Fig5DeltasMutual is the δ sweep of Figure 5 (1 to 30 minutes).
var Fig5DeltasMutual = []time.Duration{
	1 * time.Minute, 2 * time.Minute, 5 * time.Minute, 10 * time.Minute,
	15 * time.Minute, 20 * time.Minute, 25 * time.Minute, 30 * time.Minute,
}

// Fig5DeltaIndividual is the per-object Δt of Figure 5 (10 minutes).
const Fig5DeltaIndividual = 10 * time.Minute

// Figure5 reproduces Fig. 5: mutual consistency in the temporal domain on
// the CNN/FN + NYT/AP pair — (a) number of polls and (b) fidelity versus
// the mutual tolerance δ, for the three approaches (baseline LIMD,
// triggered polls, rate heuristic).
func Figure5() (*Result, error) {
	trA, trB := tracegen.CNNFN(), tracegen.NYTAP()

	modes := []core.TriggerMode{core.TriggerNone, core.TriggerAll, core.TriggerFaster}
	names := map[core.TriggerMode]string{
		core.TriggerNone:   "Baseline LIMD",
		core.TriggerAll:    "LIMD with triggered polls",
		core.TriggerFaster: "LIMD with heuristic",
	}
	polls := map[core.TriggerMode][]float64{}
	fids := map[core.TriggerMode][]float64{}
	var xs []float64

	for _, deltaM := range Fig5DeltasMutual {
		xs = append(xs, deltaM.Minutes())
		for _, mode := range modes {
			run, err := RunMutualTemporal(MutualTemporalScenario{
				Traces:          []*trace.Trace{trA, trB},
				DeltaIndividual: Fig5DeltaIndividual,
				DeltaMutual:     deltaM,
				Mode:            mode,
			})
			if err != nil {
				return nil, fmt.Errorf("fig5: %v δ=%v: %w", mode, deltaM, err)
			}
			polls[mode] = append(polls[mode], float64(run.Report.Polls))
			fids[mode] = append(fids[mode], run.Report.FidelityBySync)
		}
	}

	mkSeries := func(data map[core.TriggerMode][]float64) []plot.Series {
		var out []plot.Series
		for _, mode := range modes {
			out = append(out, plot.Series{Name: names[mode], X: xs, Y: data[mode]})
		}
		return out
	}
	res := &Result{
		ID:    "fig5",
		Title: "Figure 5: Mutual consistency approaches, temporal domain (CNN/FN + NYT/AP, Δ=10m)",
		Charts: []*plot.Chart{
			{
				Title:  "Fig 5(a): Number of polls vs mutual δ",
				XLabel: "mutual consistency constraint (min)",
				YLabel: "number of polls",
				Series: mkSeries(polls),
			},
			{
				Title:  "Fig 5(b): Fidelity vs mutual δ",
				XLabel: "mutual consistency constraint (min)",
				YLabel: "fidelity (Eq. 13)",
				Series: mkSeries(fids),
			},
		},
	}

	// Headline comparisons at the tightest δ.
	base, trig, heur := polls[core.TriggerNone][0], polls[core.TriggerAll][0], polls[core.TriggerFaster][0]
	res.Notes = append(res.Notes,
		fmt.Sprintf("δ=1m polls: baseline %d, heuristic %d (+%.0f%%), triggered %d (+%.0f%%) — paper: heuristic <20%% over baseline.",
			int(base), int(heur), 100*(heur-base)/base, int(trig), 100*(trig-base)/base),
		fmt.Sprintf("Fidelity: triggered %.3f (paper: 1.0), heuristic %.3f (paper: 0.87–1), baseline %.3f (worst).",
			fids[core.TriggerAll][0], fids[core.TriggerFaster][0], fids[core.TriggerNone][0]),
	)
	return res, nil
}

// Fig6Delta and Fig6DeltaMutual parameterize Figure 6. The mutual
// tolerance is tight so the heuristic's triggering activity is clearly
// visible over time.
const (
	Fig6Delta       = 10 * time.Minute
	Fig6DeltaMutual = 1 * time.Minute
)

// Figure6 reproduces Fig. 6: the adaptivity of the heuristic on the
// NYT/AP + NYT/Reuters pair — (a) the ratio of the two objects' update
// frequencies per two-hour window, (b) the number of extra (triggered)
// polls per two-hour window.
func Figure6() (*Result, error) {
	trA, trB := tracegen.NYTAP(), tracegen.NYTReuters()

	run, err := RunMutualTemporal(MutualTemporalScenario{
		Traces:          []*trace.Trace{trA, trB},
		DeltaIndividual: Fig6Delta,
		DeltaMutual:     Fig6DeltaMutual,
		Mode:            core.TriggerFaster,
	})
	if err != nil {
		return nil, fmt.Errorf("fig6: %w", err)
	}

	horizon := trA.Duration
	if trB.Duration < horizon {
		horizon = trB.Duration
	}
	const window = 2 * time.Hour

	// (a) Ground-truth ratio of update frequencies per window.
	var rx, ry []float64
	for start := time.Duration(0); start+window <= horizon; start += window {
		a := len(trA.UpdatesIn(start, start+window))
		b := len(trB.UpdatesIn(start, start+window))
		if b == 0 {
			continue // ratio undefined in silent windows
		}
		rx = append(rx, (start + window/2).Hours())
		ry = append(ry, float64(a)/float64(b))
	}

	// (b) Extra (triggered) polls per window.
	counter := stats.NewWindowCounter(window)
	triggered := append(triggeredInstants(run.Logs[0]), triggeredInstants(run.Logs[1])...)
	for _, at := range triggered {
		counter.Observe(at)
	}
	var ex, ey []float64
	if len(triggered) > 0 {
		ts, cs := counter.Series()
		for i := range ts {
			ex = append(ex, (ts[i] + window/2).Hours())
			ey = append(ey, float64(cs[i]))
		}
	}

	res := &Result{
		ID:    "fig6",
		Title: "Figure 6: Adaptive behavior of the mutual-consistency heuristic (NYT/AP + NYT/Reuters)",
		Charts: []*plot.Chart{
			{
				Title:  "Fig 6(a): Ratio of update frequencies over time",
				XLabel: "time (hours)",
				YLabel: "AP updates / Reuters updates (2h windows)",
				Series: []plot.Series{{Name: "ratio", X: rx, Y: ry}},
			},
			{
				Title:  "Fig 6(b): Extra (triggered) polls over time",
				XLabel: "time (hours)",
				YLabel: "triggered polls per 2h window",
				Series: []plot.Series{{Name: "extra polls", X: ex, Y: ey}},
			},
		},
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("Heuristic triggered %d extra polls over the run; triggering concentrates in windows where the rate ratio is near or above 1 (paper: same selectivity).",
			run.Report.TriggeredPolls))
	return res, nil
}

// triggeredInstants extracts the instants of controller-triggered polls
// from a refresh log.
func triggeredInstants(log []metrics.Refresh) []time.Duration {
	var out []time.Duration
	for _, r := range log {
		if r.Triggered {
			out = append(out, r.At.Duration())
		}
	}
	return out
}
