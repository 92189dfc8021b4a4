package broadway_test

import (
	"fmt"
	"time"

	"broadway"
)

// ExampleRunTemporal maintains Δt-consistency for one news page with the
// LIMD algorithm and reports the poll cost and fidelity.
func ExampleRunTemporal() {
	const delta = 10 * time.Minute
	res, err := broadway.RunTemporal(broadway.TemporalScenario{
		Trace: broadway.TraceCNNFN(),
		Delta: delta,
		Policy: func() broadway.Policy {
			return broadway.NewLIMD(broadway.LIMDConfig{Delta: delta})
		},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("polls=%d fidelity=%.3f\n", res.Report.Polls, res.Report.FidelityByViolations)
	// Output: polls=152 fidelity=0.816
}

// ExampleRunMutualTemporal keeps two related news feeds mutually
// consistent with triggered polls; the mutual fidelity is 1 by
// construction.
func ExampleRunMutualTemporal() {
	res, err := broadway.RunMutualTemporal(broadway.MutualTemporalScenario{
		Traces:          []*broadway.Trace{broadway.TraceCNNFN(), broadway.TraceNYTAP()},
		DeltaIndividual: 10 * time.Minute,
		DeltaMutual:     5 * time.Minute,
		Mode:            broadway.TriggerAll,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("mutual fidelity=%.1f\n", res.Report.FidelityBySync)
	// Output: mutual fidelity=1.0
}

// ExampleNewLIMD shows the LIMD state machine reacting to a quiet poll
// (case 1: linear increase).
func ExampleNewLIMD() {
	limd := broadway.NewLIMD(broadway.LIMDConfig{Delta: 10 * time.Minute})
	fmt.Println("initial TTR:", limd.InitialTTR())

	next := limd.NextTTR(broadway.PollOutcome{
		// No modification observed between two polls 10 minutes apart.
		Prev: 0, Now: 10 * 60 * 1e9,
	})
	fmt.Println("after a quiet poll:", next)
	// Output:
	// initial TTR: 10m0s
	// after a quiet poll: 12m0s
}

// ExampleExtractEmbedded discovers the objects a news page embeds — the
// related-object group that must stay mutually consistent.
func ExampleExtractEmbedded() {
	urls := broadway.ExtractEmbedded(
		`<html><body><img src="/chart.png"><script src="/ticker.js"></script></body></html>`)
	for _, u := range urls {
		fmt.Println(u)
	}
	// Output:
	// /chart.png
	// /ticker.js
}

// ExampleNewMutualValuePartitioned shows the tolerance split reacting to
// the pair's observed rates: the faster-moving object receives the
// tighter share.
func ExampleNewMutualValuePartitioned() {
	pair := broadway.NewMutualValuePartitioned(broadway.MutualValueConfig{Delta: 1.0})
	a, b := pair.Deltas()
	fmt.Printf("initial split: %.2f / %.2f\n", a, b)

	// Object A moved 1.0 in 100s, object B only 0.1.
	pair.PolicyA().NextTTR(broadway.PollOutcome{
		Prev: 0, Now: 100 * 1e9, HasValue: true, PrevValue: 10, Value: 11,
	})
	pair.PolicyB().NextTTR(broadway.PollOutcome{
		Prev: 0, Now: 100 * 1e9, HasValue: true, PrevValue: 50, Value: 50.1,
	})
	a, b = pair.Deltas()
	fmt.Printf("after observing rates: %.2f / %.2f\n", a, b)
	// Output:
	// initial split: 0.50 / 0.50
	// after observing rates: 0.09 / 0.91
}

// Example_quickstart maintains Δt-consistency for one cached news page
// with the paper's adaptive LIMD algorithm and compares it against the
// poll-every-Δ baseline, on the synthetic stand-in for the CNN Financial
// News trace (113 updates over ~49.5 hours with a strong day/night
// pattern).
func Example_quickstart() {
	tr := broadway.TraceCNNFN()
	fmt.Println("workload:", tr.Summarize())

	// The cached page may lag the server by at most Δ = 10 minutes.
	const delta = 10 * time.Minute
	run := func(policy func() broadway.Policy) broadway.TemporalReport {
		res, err := broadway.RunTemporal(broadway.TemporalScenario{Trace: tr, Delta: delta, Policy: policy})
		if err != nil {
			panic(err)
		}
		return res.Report
	}
	limd := run(func() broadway.Policy { return broadway.NewLIMD(broadway.LIMDConfig{Delta: delta}) })
	baseline := run(func() broadway.Policy { return broadway.NewPeriodic(delta) })

	fmt.Printf("%-22s %8s %12s %10s %10s\n", "policy", "polls", "violations", "fidelity", "out-sync")
	for _, row := range []struct {
		name string
		rep  broadway.TemporalReport
	}{
		{"LIMD (adaptive)", limd},
		{"baseline (every Δ)", baseline},
	} {
		fmt.Printf("%-22s %8d %12d %10.3f %10v\n",
			row.name, row.rep.Polls, row.rep.Violations,
			row.rep.FidelityByViolations, row.rep.OutOfSync.Round(time.Second))
	}
	saved := 1 - float64(limd.Polls)/float64(baseline.Polls)
	fmt.Printf("LIMD used %.0f%% fewer polls at fidelity %.3f.\n", saved*100, limd.FidelityByViolations)
	// Output:
	// workload: cnn-fn: 113 updates over 49h30m0s, every 26m17s
	// policy                    polls   violations   fidelity   out-sync
	// LIMD (adaptive)             152           28      0.816   3h52m55s
	// baseline (every Δ)          298            0      1.000         0s
	// LIMD used 49% fewer polls at fidelity 0.816.
}

// Example_newsproxy keeps a breaking-news page and its sibling feed
// mutually consistent — the paper's motivating scenario (§1). It first
// discovers the related-object group by scanning the page's HTML for
// embedded objects (§5.2), then compares the three mutual-consistency
// approaches of §3.2 on a pair of news workloads. Triggered polls
// guarantee mutual fidelity 1.0 but poll the most; the heuristic skips
// slower-changing siblings and lands between the baseline and the
// triggered approach on both axes — the paper's incremental-cost result.
func Example_newsproxy() {
	const storyHTML = `<html>
<head><link rel="stylesheet" href="/news/style.css"></head>
<body>
  <h1>Breaking: markets move</h1>
  <img src="/news/chart.png">
  <img src="/news/floor-photo.jpg">
  <script src="/news/live-score.js"></script>
</body>
</html>`
	// The page and its embedded objects form one consistency group.
	graph := broadway.NewDependencyGraph()
	fmt.Println("embedded in /news/story.html:", graph.RelateDocument("/news/story.html", storyHTML))
	fmt.Println("consistency group:", graph.GroupOf("/news/story.html"))

	// Two feeds with different update rates (the AP and Reuters
	// stand-ins: one changes every ~12 minutes, the other every ~20),
	// at Δ = 10 min per object and mutual δ = 5 min.
	trA, trB := broadway.TraceNYTAP(), broadway.TraceNYTReuters()
	fmt.Println("workload A:", trA.Summarize())
	fmt.Println("workload B:", trB.Summarize())
	fmt.Printf("%-10s %8s %10s %12s %14s\n", "approach", "polls", "triggered", "mutual fid.", "interval fid.")
	for _, mode := range []broadway.TriggerMode{
		broadway.TriggerNone, broadway.TriggerAll, broadway.TriggerFaster,
	} {
		res, err := broadway.RunMutualTemporal(broadway.MutualTemporalScenario{
			Traces:          []*broadway.Trace{trA, trB},
			DeltaIndividual: 10 * time.Minute,
			DeltaMutual:     5 * time.Minute,
			Mode:            mode,
		})
		if err != nil {
			panic(err)
		}
		rep := res.Report
		fmt.Printf("%-10s %8d %10d %12.3f %14.3f\n",
			mode, rep.Polls, rep.TriggeredPolls, rep.FidelityBySync, rep.FidelityByViolations)
	}
	// Output:
	// embedded in /news/story.html: [/news/style.css /news/chart.png /news/floor-photo.jpg /news/live-score.js]
	// consistency group: [/news/chart.png /news/floor-photo.jpg /news/live-score.js /news/story.html /news/style.css]
	// workload A: nyt-ap: 233 updates over 45h18m0s, every 11m40s
	// workload B: nyt-reuters: 133 updates over 45h13m0s, every 20m24s
	// approach      polls  triggered  mutual fid.  interval fid.
	// baseline        276          0        0.757          0.946
	// triggered       322         51        1.000          0.975
	// heuristic       306         30        0.922          0.958
}

// Example_stockticker keeps the difference of two cached stock quotes
// within a dollar tolerance δ of the difference at the server —
// M_v-consistency (§4.2). It compares the paper's two approaches, the
// adaptive virtual object and the partitioned tolerance (δa + δb = δ),
// over a sweep of δ, then shows how the partitioned split reacts to the
// two stocks' volatilities: Yahoo moves ~10x faster than AT&T, so it
// receives the tighter share and most of the polls while the quiet stock
// coasts.
func Example_stockticker() {
	yahoo, att := broadway.TraceYahoo(), broadway.TraceATT()
	fmt.Println("workload A:", yahoo.Summarize())
	fmt.Println("workload B:", att.Summarize())
	run := func(delta float64, approach broadway.ValueApproach) broadway.MutualValueRunResult {
		res, err := broadway.RunMutualValue(broadway.MutualValueScenario{
			TraceA: yahoo, TraceB: att, DeltaMutual: delta, Approach: approach,
		})
		if err != nil {
			panic(err)
		}
		return res
	}

	fmt.Printf("%-6s %15s %15s %15s %15s\n", "δ ($)", "adaptive polls", "fidelity", "partit. polls", "fidelity")
	for _, delta := range []float64{0.25, 0.6, 1.0, 2.0, 5.0} {
		ad := run(delta, broadway.ApproachAdaptive).Report
		part := run(delta, broadway.ApproachPartitioned).Report
		fmt.Printf("%-6.2f %15d %15.3f %15d %15.3f\n",
			delta, ad.Polls, ad.FidelityByViolations, part.Polls, part.FidelityByViolations)
	}

	const delta = 0.6
	dYahoo, dATT := broadway.NewMutualValuePartitioned(broadway.MutualValueConfig{Delta: delta}).Deltas()
	fmt.Printf("split before any polls: δ_yahoo=$%.3f δ_att=$%.3f\n", dYahoo, dATT)
	res := run(delta, broadway.ApproachPartitioned)
	fmt.Printf("after the run at δ=$%.2f: yahoo polled %d times, att %d\n", delta, len(res.LogA), len(res.LogB))
	// Output:
	// workload A: yahoo: 2204 updates over 3h0m0s, min $162.21 max $170.78
	// workload B: att: 653 updates over 3h0m0s, min $35.81 max $36.45
	// δ ($)   adaptive polls        fidelity   partit. polls        fidelity
	// 0.25              8276           0.939            9278           0.921
	// 0.60              1378           0.949            6464           0.995
	// 1.00               302           0.947            5294           1.000
	// 2.00               128           0.945            4458           1.000
	// 5.00                78           1.000            3889           1.000
	// split before any polls: δ_yahoo=$0.300 δ_att=$0.300
	// after the run at δ=$0.60: yahoo polled 5146 times, att 1318
}
