//go:build !race

// The allocation budgets of the hot-path benchmarks: each test runs the
// operation its benchmark times and fails when it allocates more than
// the ceiling written here, the count measured when the ceiling was set.
// The race detector's instrumentation perturbs process-wide allocation
// counts, so this file builds only without -race.

package push

import (
	"fmt"
	"math"
	"testing"
)

// allocBudget fails t when f allocates more than ceiling per call. It
// keeps the fewest of three rounds of testing.AllocsPerRun, so a stray
// background allocation cannot fail it, while a real per-call increase,
// which shows in every round, does.
func allocBudget(t *testing.T, ceiling float64, runs int, f func()) {
	t.Helper()
	got := math.Inf(1)
	for range 3 {
		got = min(got, testing.AllocsPerRun(runs, f))
	}
	if got > ceiling {
		t.Errorf("%.0f allocs per call, budget %.0f", got, ceiling)
	}
}

// TestHubPublishAllocBudget holds each BenchmarkHubPublish* workload's
// Publish to its allocation count.
func TestHubPublishAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name    string
		setup   func(testing.TB, int) (*Hub, Event)
		fleet   int
		ceiling float64
	}{
		{"Fanout/subs=1", fanoutHub, 1, 3},
		{"Fanout/subs=16", fanoutHub, 16, 3},
		{"Fanout/subs=128", fanoutHub, 128, 3},
		{"Filtered", filteredHub, 16, 3},
		{"Payload", payloadHub, 16, 5},
		{"Delta", deltaHub, 16, 7},
		{"Contended/subs=1", contendedHub, 1, 3},
		{"Contended/subs=16", contendedHub, 16, 3},
		{"Contended/subs=64", contendedHub, 64, 3},
		{"Contended/subs=256", contendedHub, 256, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			h, ev := c.setup(t, c.fleet)
			allocBudget(t, c.ceiling, 200, func() { h.Publish(ev) })
		})
	}
}

// TestMakeDeltaAllocBudget holds BenchmarkMakeDelta's encoder, at both
// of its body sizes, to its allocation count.
func TestMakeDeltaAllocBudget(t *testing.T) {
	for _, c := range []struct {
		size    int
		ceiling float64
	}{{1 << 10, 11}, {192 << 10, 39}} {
		t.Run(fmt.Sprintf("%dKiB", c.size>>10), func(t *testing.T) {
			base, target := scatteredEdit(c.size)
			allocBudget(t, c.ceiling, 10, func() { MakeDelta(base, target) })
		})
	}
}

// TestPublishAllocsIndependentOfFanout pins the render-once contract:
// the allocations of one Publish must not grow with the subscriber
// count, because Publish does zero per-subscriber work — subscribers
// pull from the ring on their own goroutines. (TestHubPublishAllocBudget
// holds the absolute count.)
func TestPublishAllocsIndependentOfFanout(t *testing.T) {
	allocsWith := func(fleet int) float64 {
		// A large subscriberBuffer keeps the amortized slow-consumer
		// scan from killing the idle subscribers mid-measurement.
		h := NewHub(HubConfig{subscriberBuffer: 1 << 20})
		subs := make([]*hubSub, fleet)
		for i := range subs {
			// No drain goroutines: nothing concurrent disturbs the
			// allocation count; the idle cursors just fall behind.
			_, sub, ok := h.subscribe(0, 0, InterestAll(), nil)
			if !ok {
				t.Fatal("subscribe failed")
			}
			subs[i] = sub
		}
		defer func() {
			for _, sub := range subs {
				h.unsubscribe(sub)
			}
		}()
		ev := Event{Kind: KindUpdate, Key: "/obj/path"}
		return testing.AllocsPerRun(50, func() {
			h.Publish(ev)
		})
	}
	one, many := allocsWith(1), allocsWith(128)
	if many > one {
		t.Errorf("Publish allocates %.1f/op with 128 subscribers vs %.1f/op with 1: fan-out is re-encoding per subscriber", many, one)
	}
}
