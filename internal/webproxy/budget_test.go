//go:build !race

// The allocation budget of the value-push benchmark: the test runs the
// operation its benchmark times and fails when it allocates more than
// the ceiling written here, the count measured when the ceiling was set.
// The race detector's instrumentation perturbs process-wide allocation
// counts, so this file builds only without -race.

package webproxy

import (
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

// TestValuePushApplyAllocBudget holds BenchmarkValuePushApply's install
// of a pushed value to its allocation count.
func TestValuePushApplyAllocBudget(t *testing.T) {
	_, apply := valuePushProxy(t)
	allocBudget(t, 2, 200, apply)
}
