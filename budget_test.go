//go:build !race

// The allocation budgets of the live proxy's hit, churn and
// refresh-schedule benchmarks: each test runs the operation its benchmark
// times and fails when it allocates more than the ceiling written here,
// the count measured when the ceiling was set. The race detector's
// instrumentation perturbs process-wide allocation counts, so this file
// builds only without -race.

package broadway_test

import (
	"math"
	"net/http"
	"net/http/httptest"
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

// TestProxyHitAllocBudget holds BenchmarkProxyHitParallel's hit path to
// its allocation count: a GET the cache answers 200, and a conditional GET
// it answers 304.
func TestProxyHitAllocBudget(t *testing.T) {
	px := newBenchProxy(t, []string{"/hot"})
	w := &nopResponseWriter{}
	get := httptest.NewRequest(http.MethodGet, "/hot", nil)
	px.ServeHTTP(w, get)
	cond := httptest.NewRequest(http.MethodGet, "/hot", nil)
	cond.Header.Set("If-Modified-Since", w.h.Get("Last-Modified"))
	for _, tc := range []struct {
		name    string
		req     *http.Request
		code    int
		ceiling float64
	}{
		{"GET", get, http.StatusOK, 6},
		{"conditional", cond, http.StatusNotModified, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocBudget(t, tc.ceiling, 200, func() {
				w.h, w.code = nil, 0
				px.ServeHTTP(w, tc.req)
				if w.code != tc.code {
					t.Fatalf("status %d, want %d", w.code, tc.code)
				}
			})
		})
	}
}

// TestProxyChurnAllocBudget holds BenchmarkProxyChurnParallel's
// miss/evict/admit cycle to its allocation count. One pass over the key
// space first fills the cache, so every measured request evicts.
func TestProxyChurnAllocBudget(t *testing.T) {
	_, serve := churnProxy(t)
	w := &nopResponseWriter{}
	var i int64
	next := func() {
		i++
		serve(w, i)
	}
	for range churnKeys {
		next()
	}
	allocBudget(t, 106, 200, next)
}

// TestRefreshSchedulerAllocBudget holds
// BenchmarkRefreshSchedulerThroughput's pop-due/re-add cycle to zero
// allocations.
func TestRefreshSchedulerAllocBudget(t *testing.T) {
	allocBudget(t, 0, 1000, refreshHeap())
}
