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
