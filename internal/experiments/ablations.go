package experiments

import (
	"fmt"
	"time"

	"broadway/internal/core"
	"broadway/internal/metrics"
	"broadway/internal/origin"
	"broadway/internal/plot"
	"broadway/internal/proxy"
	"broadway/internal/sim"
	"broadway/internal/simtime"
	"broadway/internal/trace"
	"broadway/internal/tracegen"
	"broadway/internal/workload"
)

// The ablation studies quantify the design choices the paper discusses
// qualitatively: the LIMD tunables (§3.1 "the approach can be made
// optimistic … or conservative"), the value of the modification-history
// extension versus probabilistic inference (§3.1/§5), the heuristic's
// rate-tolerance knob (§3.2), server push as the strong-consistency
// reference (Eq. 1, footnote 1), and the n-object generalization (§2).
// They are not paper figures; cmd/repro runs them with -ablations.

// AblationRunners lists the extension studies.
func AblationRunners() []Runner {
	return []Runner{
		{ID: "ablation-limd-params", Run: AblationLIMDParameters},
		{ID: "ablation-history", Run: AblationHistoryExtension},
		{ID: "ablation-heuristic", Run: AblationHeuristicTolerance},
		{ID: "ablation-push", Run: AblationPushVsPoll},
		{ID: "ablation-group-size", Run: AblationGroupSize},
		{ID: "ablation-client-workload", Run: AblationClientWorkload},
		{ID: "ablation-individual-value", Run: AblationIndividualValue},
		{ID: "ablation-latency", Run: AblationLatency},
		{ID: "tr-fig3-all-traces", Run: TRFigure3AllTraces},
		{ID: "tr-fig5-all-pairs", Run: TRFigure5AllPairs},
	}
}

// AblationIndividualValue reproduces the foundation the paper's §4 builds
// on (the adaptive-TTR Δv experiments of Srinivasan et al. [8]):
// individual value-domain consistency on the two stock traces across a Δv
// sweep, against a periodic baseline polling at the TTR floor.
func AblationIndividualValue() (*Result, error) {
	res := &Result{
		ID:    "ablation-individual-value",
		Title: "Ablation: individual Δv-consistency (adaptive TTR vs periodic floor)",
	}
	tbl := TableResult{
		Name: "adaptive ttr",
		Headers: []string{"Stock", "Δv ($)", "Adaptive polls", "Adaptive fidelity",
			"Periodic polls", "Periodic fidelity"},
	}
	bounds := DefaultValueBounds
	for _, tr := range tracegen.StockPresets() {
		for _, dv := range []float64{0.1, 0.25, 0.5, 1.0} {
			adaptive, err := runIndividualValue(tr, core.NewAdaptiveTTR(core.AdaptiveTTRConfig{
				Delta: dv, Bounds: bounds,
			}), dv)
			if err != nil {
				return nil, err
			}
			periodic, err := runIndividualValue(tr, core.NewPeriodic(bounds.Min), dv)
			if err != nil {
				return nil, err
			}
			tbl.Rows = append(tbl.Rows, []string{
				tr.Name,
				fmt.Sprintf("%.2f", dv),
				fmt.Sprintf("%d", adaptive.Polls),
				fmt.Sprintf("%.3f", adaptive.FidelityByViolations),
				fmt.Sprintf("%d", periodic.Polls),
				fmt.Sprintf("%.3f", periodic.FidelityByViolations),
			})
		}
	}
	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes,
		"The adaptive TTR polls a small fraction of the 2s-floor poller. Fidelity is workload-dependent: the quiet AT&T trace tracks near-perfectly, while the random-walk Yahoo trace extrapolates imperfectly at loose Δv — exactly the temporal-locality caveat of §4.1 (mitigate with a smaller α).")
	return res, nil
}

// runIndividualValue simulates one valued object under a policy and
// evaluates Δv fidelity.
func runIndividualValue(tr *trace.Trace, policy core.Policy, delta float64) (metrics.ValueReport, error) {
	engine := sim.New(0)
	org := origin.New()
	if err := org.Host("s", tr, false); err != nil {
		return metrics.ValueReport{}, err
	}
	px := proxy.New(engine, org)
	if err := px.RegisterObject("s", policy); err != nil {
		return metrics.ValueReport{}, err
	}
	if err := engine.Run(simtime.At(tr.Duration)); err != nil {
		return metrics.ValueReport{}, err
	}
	return metrics.EvaluateValue(tr, px.Log("s"), delta, tr.Duration), nil
}

// AblationLatency verifies the paper's fixed-latency simplification
// (§6.1.1): the network latency shifts when refreshes land but barely
// moves poll counts or fidelity, which is why the paper holds it
// constant.
func AblationLatency() (*Result, error) {
	tr := tracegen.CNNFN()
	const delta = 10 * time.Minute
	res := &Result{
		ID:    "ablation-latency",
		Title: "Ablation: network latency sensitivity (CNN/FN, LIMD, Δ=10m)",
	}
	tbl := TableResult{
		Name:    "latency",
		Headers: []string{"One-way latency", "Polls", "Fidelity (Eq. 13)", "Fidelity (Eq. 14)"},
	}
	for _, lat := range []time.Duration{0, 100 * time.Millisecond, time.Second, 10 * time.Second} {
		run, err := RunTemporal(TemporalScenario{
			Trace: tr, Delta: delta, Latency: lat,
			Policy: func() core.Policy { return core.NewLIMD(core.LIMDConfig{Delta: delta}) },
		})
		if err != nil {
			return nil, err
		}
		tbl.Rows = append(tbl.Rows, []string{
			lat.String(),
			fmt.Sprintf("%d", run.Report.Polls),
			fmt.Sprintf("%.3f", run.Report.FidelityByViolations),
			fmt.Sprintf("%.3f", run.Report.FidelityByTime),
		})
	}
	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes,
		"Realistic latencies are orders of magnitude below Δ; results are latency-insensitive, justifying the paper's fixed-latency assumption.")
	return res, nil
}

// AblationLIMDParameters sweeps the linear-increase factor l and
// contrasts the paper's adaptive multiplicative factor (m = Δ/out-of-sync
// time) with fixed settings, on the CNN/FN trace at Δ=10 m.
func AblationLIMDParameters() (*Result, error) {
	tr := tracegen.CNNFN()
	const delta = 10 * time.Minute

	res := &Result{
		ID:    "ablation-limd-params",
		Title: "Ablation: LIMD tunables (CNN/FN, Δ=10m)",
	}
	tbl := TableResult{
		Name:    "limd parameters",
		Headers: []string{"l (linear)", "m (mult.)", "Polls", "Fidelity (Eq. 13)", "Out-of-sync"},
	}
	type cfg struct {
		l    float64
		m    float64 // 0 = adaptive
		name string
	}
	var cfgs []cfg
	for _, l := range []float64{0.1, 0.2, 0.4, 0.8} {
		cfgs = append(cfgs, cfg{l: l, m: 0, name: "adaptive"})
	}
	for _, m := range []float64{0.3, 0.5, 0.7} {
		cfgs = append(cfgs, cfg{l: 0.2, m: m, name: fmt.Sprintf("%.1f", m)})
	}
	for _, c := range cfgs {
		c := c
		run, err := RunTemporal(TemporalScenario{
			Trace: tr, Delta: delta,
			Policy: func() core.Policy {
				return core.NewLIMD(core.LIMDConfig{
					Delta: delta, LinearFactor: c.l, MultiplicativeFactor: c.m,
				})
			},
		})
		if err != nil {
			return nil, fmt.Errorf("ablation-limd: l=%v m=%v: %w", c.l, c.m, err)
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%.1f", c.l),
			c.name,
			fmt.Sprintf("%d", run.Report.Polls),
			fmt.Sprintf("%.3f", run.Report.FidelityByViolations),
			run.Report.OutOfSync.Round(time.Minute).String(),
		})
	}
	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes,
		"Larger l (optimistic) trades polls for fidelity; the adaptive m backs off in proportion to the observed miss, as in the paper's experiments.")
	return res, nil
}

// AblationHistoryExtension quantifies §5.1/§3.1: how much the proposed
// modification-history extension (exact hidden-violation detection) and
// the probabilistic inference fallback help on a fast-changing object
// polled with plain HTTP. Guardian updates every ~4.9 m; with Δ=10 m,
// multiple updates per poll window are common — exactly the Fig. 1(b)
// blind spot.
func AblationHistoryExtension() (*Result, error) {
	tr := tracegen.Guardian()
	const delta = 10 * time.Minute

	res := &Result{
		ID:    "ablation-history",
		Title: "Ablation: modification-history extension vs inference (Guardian, Δ=10m)",
	}
	tbl := TableResult{
		Name:    "violation detection",
		Headers: []string{"Detection", "Polls", "Fidelity (Eq. 13)", "Fidelity (Eq. 14)"},
	}
	type variant struct {
		name        string
		withHistory bool
		inference   bool
	}
	for _, v := range []variant{
		{"plain HTTP/1.1", false, false},
		{"plain + inference (§5)", false, true},
		{"history extension (§5.1)", true, false},
	} {
		v := v
		run, err := RunTemporal(TemporalScenario{
			Trace: tr, Delta: delta, WithHistory: v.withHistory,
			Policy: func() core.Policy {
				cfg := core.LIMDConfig{Delta: delta}
				if v.inference {
					cfg.Inference = core.NewViolationInference(0.5)
				}
				return core.NewLIMD(cfg)
			},
		})
		if err != nil {
			return nil, fmt.Errorf("ablation-history: %s: %w", v.name, err)
		}
		tbl.Rows = append(tbl.Rows, []string{
			v.name,
			fmt.Sprintf("%d", run.Report.Polls),
			fmt.Sprintf("%.3f", run.Report.FidelityByViolations),
			fmt.Sprintf("%.3f", run.Report.FidelityByTime),
		})
	}
	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes,
		"Hidden violations make plain HTTP overestimate its own health; the history extension detects them exactly, inference approximates it without protocol changes.")
	return res, nil
}

// AblationHeuristicTolerance sweeps the TriggerFaster rate-tolerance
// factor: 1.0 triggers only strictly-faster siblings, smaller values
// trigger "approximately the same rate" ever more loosely, interpolating
// toward TriggerAll.
func AblationHeuristicTolerance() (*Result, error) {
	trA, trB := tracegen.CNNFN(), tracegen.NYTAP()
	const (
		delta  = 10 * time.Minute
		mdelta = 5 * time.Minute
	)
	res := &Result{
		ID:    "ablation-heuristic",
		Title: "Ablation: heuristic rate tolerance (CNN/FN + NYT/AP, Δ=10m, δ=5m)",
	}
	var xs, polls, fids []float64
	for _, tol := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		run, err := RunMutualTemporal(MutualTemporalScenario{
			Traces:          []*trace.Trace{trA, trB},
			DeltaIndividual: delta, DeltaMutual: mdelta,
			Mode: core.TriggerFaster, RateTolerance: tol,
		})
		if err != nil {
			return nil, fmt.Errorf("ablation-heuristic: tol=%v: %w", tol, err)
		}
		xs = append(xs, tol)
		polls = append(polls, float64(run.Report.Polls))
		fids = append(fids, run.Report.FidelityBySync)
	}
	res.Charts = append(res.Charts,
		&plot.Chart{
			Title: "Heuristic polls vs rate tolerance", XLabel: "rate tolerance", YLabel: "polls",
			Series: []plot.Series{{Name: "heuristic", X: xs, Y: polls}},
		},
		&plot.Chart{
			Title: "Heuristic fidelity vs rate tolerance", XLabel: "rate tolerance", YLabel: "mutual fidelity",
			Series: []plot.Series{{Name: "heuristic", X: xs, Y: fids}},
		})
	res.Notes = append(res.Notes,
		"Lower tolerance → more triggering → more polls and higher fidelity; the knob interpolates between TriggerAll and strict faster-only.")
	return res, nil
}

// AblationPushVsPoll contrasts server-push strong consistency (Eq. 1,
// footnote 1) with the proxy-driven mechanisms: messages exchanged and
// resulting fidelity, per news trace at Δ=10 m.
func AblationPushVsPoll() (*Result, error) {
	const delta = 10 * time.Minute
	res := &Result{
		ID:    "ablation-push",
		Title: "Ablation: server push (strong consistency) vs proxy polling (Δ=10m)",
	}
	tbl := TableResult{
		Name:    "push vs poll",
		Headers: []string{"Trace", "Push msgs", "LIMD polls", "LIMD fidelity", "Periodic polls"},
	}
	for _, tr := range tracegen.NewsPresets() {
		tr := tr
		// Server push via the simulator.
		engine := sim.New(0)
		org := origin.New()
		if err := org.Host("o", tr, false); err != nil {
			return nil, err
		}
		px := proxy.New(engine, org)
		if err := px.RegisterPushObject("o"); err != nil {
			return nil, err
		}
		if err := engine.Run(simtime.At(tr.Duration)); err != nil {
			return nil, err
		}
		pushRep := metrics.EvaluateTemporal(tr, px.Log("o"), delta, tr.Duration)
		if pushRep.Violations != 0 {
			return nil, fmt.Errorf("ablation-push: push must be violation-free, got %d", pushRep.Violations)
		}

		limd, err := RunTemporal(TemporalScenario{
			Trace: tr, Delta: delta,
			Policy: func() core.Policy { return core.NewLIMD(core.LIMDConfig{Delta: delta}) },
		})
		if err != nil {
			return nil, err
		}
		periodic, err := RunTemporal(TemporalScenario{
			Trace: tr, Delta: delta,
			Policy: func() core.Policy { return core.NewPeriodic(delta) },
		})
		if err != nil {
			return nil, err
		}
		tbl.Rows = append(tbl.Rows, []string{
			tr.Name,
			fmt.Sprintf("%d", pushRep.Polls),
			fmt.Sprintf("%d", limd.Report.Polls),
			fmt.Sprintf("%.3f", limd.Report.FidelityByViolations),
			fmt.Sprintf("%d", periodic.Report.Polls),
		})
	}
	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes,
		"Push sends exactly one message per update with perfect fidelity — cheap for slow objects, wasteful when the proxy needs less than every update; the paper's Δ-mechanisms occupy the space between.")
	return res, nil
}

// AblationClientWorkload drives the proxy with a Zipf/Poisson client
// request stream over the news catalog (the paper's usage model: "a proxy
// cache that receives requests from several clients"): objects are
// admitted on their first miss and kept fresh by LIMD thereafter, so all
// subsequent requests hit.
func AblationClientWorkload() (*Result, error) {
	const delta = 10 * time.Minute
	catalog := tracegen.NewsPresets()

	engine := sim.New(0)
	org := origin.New()
	var ids []core.ObjectID
	horizon := catalog[0].Duration
	for _, tr := range catalog {
		id := core.ObjectID(tr.Name)
		if err := org.Host(id, tr, false); err != nil {
			return nil, err
		}
		ids = append(ids, id)
		if tr.Duration < horizon {
			horizon = tr.Duration
		}
	}
	px := proxy.New(engine, org)

	reqs, err := workload.Generate(workload.Config{
		Seed: 42, Duration: horizon, RatePerMinute: 2, Objects: ids, ZipfS: 1.3,
	})
	if err != nil {
		return nil, err
	}
	mk := func() core.Policy { return core.NewLIMD(core.LIMDConfig{Delta: delta}) }
	for _, r := range reqs {
		r := r
		engine.ScheduleAt(simtime.At(r.At), sim.EventFunc(func(*sim.Engine) {
			if _, err := px.HandleRequest(r.Object, mk); err != nil {
				panic(err) // catalog objects are always hosted
			}
		}))
	}
	if err := engine.Run(simtime.At(horizon)); err != nil {
		return nil, err
	}

	res := &Result{
		ID:    "ablation-client-workload",
		Title: "Ablation: client-driven admission (Zipf requests, Δ=10m)",
	}
	tbl := TableResult{
		Name:    "per-object activity",
		Headers: []string{"Object", "Requests", "Refresh polls", "Fidelity (Eq. 13)"},
	}
	counts := workload.PopularityCounts(ids, reqs)
	for i, id := range ids {
		log := px.Log(id)
		rep := metrics.EvaluateTemporal(catalog[i], log, delta, horizon)
		fid := "—"
		if len(log) > 0 {
			fid = fmt.Sprintf("%.3f", rep.FidelityByViolations)
		}
		tbl.Rows = append(tbl.Rows, []string{
			string(id),
			fmt.Sprintf("%d", counts[i]),
			fmt.Sprintf("%d", len(log)),
			fid,
		})
	}
	res.Tables = append(res.Tables, tbl)
	hitRatio := float64(px.Hits()) / float64(px.Hits()+px.Misses())
	res.Notes = append(res.Notes, fmt.Sprintf(
		"%d requests, hit ratio %.3f (one miss per object admits it; LIMD keeps it fresh thereafter).",
		len(reqs), hitRatio))
	return res, nil
}

// AblationGroupSize evaluates the mutual-consistency approaches on
// growing groups (2–4 news objects): the paper's definitions generalize
// to n objects, and the cost of triggering grows with group size while
// the heuristic stays selective.
func AblationGroupSize() (*Result, error) {
	all := tracegen.NewsPresets()
	const (
		delta  = 10 * time.Minute
		mdelta = 5 * time.Minute
	)
	res := &Result{
		ID:    "ablation-group-size",
		Title: "Ablation: n-object groups (Δ=10m, δ=5m)",
	}
	tbl := TableResult{
		Name:    "group size",
		Headers: []string{"n", "Mode", "Polls", "Triggered", "Mutual fidelity (sync)"},
	}
	for n := 2; n <= len(all); n++ {
		for _, mode := range []core.TriggerMode{core.TriggerNone, core.TriggerAll, core.TriggerFaster} {
			run, err := RunMutualTemporal(MutualTemporalScenario{
				Traces:          all[:n],
				DeltaIndividual: delta,
				DeltaMutual:     mdelta,
				Mode:            mode,
			})
			if err != nil {
				return nil, fmt.Errorf("ablation-group: n=%d %v: %w", n, mode, err)
			}
			tbl.Rows = append(tbl.Rows, []string{
				fmt.Sprintf("%d", n),
				mode.String(),
				fmt.Sprintf("%d", run.Report.Polls),
				fmt.Sprintf("%d", run.Report.TriggeredPolls),
				fmt.Sprintf("%.3f", run.Report.FidelityBySync),
			})
		}
	}
	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes,
		"Triggered polls scale with group size (every detection fans out to n−1 siblings); the heuristic's selectivity keeps the overhead sublinear.")
	return res, nil
}
