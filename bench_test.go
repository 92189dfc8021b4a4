// Benchmarks regenerating every table and figure of the paper (one
// benchmark per artifact), plus micro-benchmarks of the core algorithms.
// The table/figure benches report the headline metrics of each experiment
// (polls, fidelity) alongside the usual ns/op, so
//
//	go test -bench=. -benchmem
//
// doubles as a compact reproduction run.
package broadway_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"broadway"

	"broadway/internal/core"
	"broadway/internal/experiments"
	"broadway/internal/sched"
	"broadway/internal/simtime"
	"broadway/internal/tracegen"
)

// benchResult asserts the experiment succeeded and surfaces a couple of
// its numbers as benchmark metrics.
func reportSeries(b *testing.B, res *experiments.Result, chart int, series string, metric string) {
	b.Helper()
	if chart >= len(res.Charts) {
		return
	}
	for _, s := range res.Charts[chart].Series {
		if s.Name == series && len(s.Y) > 0 {
			b.ReportMetric(s.Y[0], metric)
			return
		}
	}
}

func BenchmarkTable2_TraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, tr := range tracegen.NewsPresets() {
			if tr.NumUpdates() == 0 {
				b.Fatal("empty preset")
			}
		}
	}
}

func BenchmarkTable3_TraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, tr := range tracegen.StockPresets() {
			if tr.NumUpdates() == 0 {
				b.Fatal("empty preset")
			}
		}
	}
}

func BenchmarkFigure3_LIMDvsBaseline(b *testing.B) {
	var res *experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = experiments.Figure3(); err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, res, 0, "LIMD", "limd_polls_d1m")
	reportSeries(b, res, 0, "Baseline", "base_polls_d1m")
	reportSeries(b, res, 1, "LIMD", "limd_fidelity_d1m")
}

func BenchmarkFigure4_LIMDAdaptivity(b *testing.B) {
	var res *experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = experiments.Figure4(); err != nil {
			b.Fatal(err)
		}
	}
	if len(res.Charts) > 1 && len(res.Charts[1].Series) > 0 {
		ys := res.Charts[1].Series[0].Y
		max := 0.0
		for _, v := range ys {
			if v > max {
				max = v
			}
		}
		b.ReportMetric(max, "max_ttr_min")
	}
}

func BenchmarkFigure5_MutualTemporal(b *testing.B) {
	var res *experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = experiments.Figure5(); err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, res, 1, "LIMD with triggered polls", "triggered_fidelity")
	reportSeries(b, res, 1, "LIMD with heuristic", "heuristic_fidelity")
	reportSeries(b, res, 1, "Baseline LIMD", "baseline_fidelity")
}

func BenchmarkFigure6_HeuristicAdaptivity(b *testing.B) {
	var res *experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = experiments.Figure6(); err != nil {
			b.Fatal(err)
		}
	}
	if len(res.Charts) > 1 && len(res.Charts[1].Series) > 0 {
		total := 0.0
		for _, v := range res.Charts[1].Series[0].Y {
			total += v
		}
		b.ReportMetric(total, "extra_polls_total")
	}
}

func BenchmarkFigure7_MutualValue(b *testing.B) {
	var res *experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = experiments.Figure7(); err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, res, 0, "Adaptive TTR Approach", "adaptive_polls_d025")
	reportSeries(b, res, 0, "Partitioned Approach", "partitioned_polls_d025")
}

func BenchmarkFigure8_Tracking(b *testing.B) {
	var res *experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = experiments.Figure8(); err != nil {
			b.Fatal(err)
		}
	}
	if len(res.Tables) == 1 && len(res.Tables[0].Rows) == 2 {
		var ad, part float64
		if _, err := sscan(res.Tables[0].Rows[0][1], &ad); err == nil {
			b.ReportMetric(ad, "adaptive_drift_$")
		}
		if _, err := sscan(res.Tables[0].Rows[1][1], &part); err == nil {
			b.ReportMetric(part, "partitioned_drift_$")
		}
	}
}

// --- Micro-benchmarks of the core state machines. ---

func BenchmarkLIMDNextTTR(b *testing.B) {
	l := core.NewLIMD(core.LIMDConfig{Delta: 10 * time.Minute})
	now := simtime.Epoch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prev := now
		now = now.Add(10 * time.Minute)
		o := core.PollOutcome{Now: now, Prev: prev}
		if i%3 == 0 {
			o.Modified = true
			o.LastModified = now.Add(-time.Minute)
			o.HasLastModified = true
		}
		l.NextTTR(o)
	}
}

func BenchmarkAdaptiveTTRNextTTR(b *testing.B) {
	a := core.NewAdaptiveTTR(core.AdaptiveTTRConfig{Delta: 0.5})
	now := simtime.Epoch
	val := 100.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prev := now
		prevVal := val
		now = now.Add(30 * time.Second)
		val += float64(i%7-3) / 10
		a.NextTTR(core.PollOutcome{
			Now: now, Prev: prev, HasValue: true, Value: val, PrevValue: prevVal,
		})
	}
}

func BenchmarkMutualValueAdaptiveNextTTR(b *testing.B) {
	m := core.NewMutualValueAdaptive(core.MutualValueConfig{Delta: 0.6})
	now := simtime.Epoch
	va, vb := 165.0, 36.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prev := now
		pa, pb := va, vb
		now = now.Add(15 * time.Second)
		va += float64(i%9-4) / 20
		vb += float64(i%3-1) / 100
		m.NextTTR(core.PairOutcome{
			Now: now, Prev: prev,
			ValueA: va, ValueB: vb, PrevValueA: pa, PrevValueB: pb,
		})
	}
}

func BenchmarkTemporalScenarioEndToEnd(b *testing.B) {
	tr := broadway.TraceCNNFN()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := broadway.RunTemporal(broadway.TemporalScenario{
			Trace: tr, Delta: 10 * time.Minute,
			Policy: func() broadway.Policy {
				return broadway.NewLIMD(broadway.LIMDConfig{Delta: 10 * time.Minute})
			},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHTMLExtractEmbedded(b *testing.B) {
	const page = `<html><head><link rel="stylesheet" href="/s.css"><script src="/a.js"></script></head>
<body><img src="/1.png"><img src="/2.png"><video src="/v.mp4"></video></body></html>`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := broadway.ExtractEmbedded(page); len(got) != 5 {
			b.Fatalf("extracted %d", len(got))
		}
	}
}

// --- Live proxy benchmarks. ---

// newBenchProxy wires a warmed live proxy over an httptest origin with
// TTRs long enough that no refresh runs during the measurement.
func newBenchProxy(b *testing.B, paths []string) *broadway.WebProxy {
	b.Helper()
	origin := broadway.NewWebOrigin()
	for i, p := range paths {
		origin.Set(p, []byte(fmt.Sprintf("body of object %d, long enough to be realistic", i)), "text/plain")
	}
	originSrv := httptest.NewServer(origin)
	b.Cleanup(originSrv.Close)
	u, err := url.Parse(originSrv.URL)
	if err != nil {
		b.Fatal(err)
	}
	px, err := broadway.NewWebProxy(broadway.WebProxyConfig{
		Origin:       u,
		DefaultDelta: time.Hour,
		Bounds:       core.TTRBounds{Min: time.Hour, Max: 2 * time.Hour},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(px.Close)
	for _, p := range paths {
		rec := httptest.NewRecorder()
		px.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("warm %s: %d", p, rec.Code)
		}
	}
	return px
}

// nopResponseWriter discards the response; it keeps the benchmarks
// measuring the proxy's hit path rather than httptest recorder churn.
type nopResponseWriter struct {
	h    http.Header
	code int
}

func (w *nopResponseWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header, 4)
	}
	return w.h
}
func (w *nopResponseWriter) WriteHeader(code int)        { w.code = code }
func (w *nopResponseWriter) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkProxyHitParallel measures hit-path throughput under
// GOMAXPROCS-way parallelism across the sharded store. With the global
// mutex gone, requests for different objects touch only their own shard
// and entry, so ns/op holds (and on real multicore hardware falls) as
// -cpu rises instead of serializing.
func BenchmarkProxyHitParallel(b *testing.B) {
	const objects = 64
	paths := make([]string, objects)
	for i := range paths {
		paths[i] = fmt.Sprintf("/obj/%d", i)
	}
	px := newBenchProxy(b, paths)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		reqs := make([]*http.Request, objects)
		for i, p := range paths {
			reqs[i] = httptest.NewRequest(http.MethodGet, p, nil)
		}
		w := &nopResponseWriter{}
		i := 0
		for pb.Next() {
			w.h, w.code = nil, 0
			px.ServeHTTP(w, reqs[i%objects])
			if w.code != http.StatusOK {
				b.Errorf("status %d", w.code)
				return
			}
			i++
		}
	})
}

// BenchmarkProxyHitSingleObject is the worst case for sharding: every
// request lands on one shard and one entry, so it isolates the cost of
// the per-shard read lock and the shared-body hit path.
func BenchmarkProxyHitSingleObject(b *testing.B) {
	px := newBenchProxy(b, []string{"/hot"})
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		req := httptest.NewRequest(http.MethodGet, "/hot", nil)
		w := &nopResponseWriter{}
		for pb.Next() {
			w.h, w.code = nil, 0
			px.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				b.Errorf("status %d", w.code)
				return
			}
		}
	})
}

// BenchmarkProxyChurnParallel measures the miss/evict/admit cycle: a
// key space four times the MaxObjects cap guarantees essentially every
// request misses, runs the CLOCK victim scan, unwinds the victim from
// the refresh schedule, and admits the newcomer — the proxy's worst
// case, dominated by the origin round trip plus replacement overhead.
// Compare BenchmarkProxyHitParallel for the (unchanged) hit path.
func BenchmarkProxyChurnParallel(b *testing.B) {
	const capacity = 128
	const keySpace = 4 * capacity
	paths := make([]string, keySpace)
	for i := range paths {
		paths[i] = fmt.Sprintf("/churn/%d", i)
	}
	origin := broadway.NewWebOrigin()
	for i, p := range paths {
		origin.Set(p, []byte(fmt.Sprintf("churn body %d", i)), "text/plain")
	}
	originSrv := httptest.NewServer(origin)
	b.Cleanup(originSrv.Close)
	u, err := url.Parse(originSrv.URL)
	if err != nil {
		b.Fatal(err)
	}
	px, err := broadway.NewWebProxy(broadway.WebProxyConfig{
		Origin:       u,
		DefaultDelta: time.Hour,
		Bounds:       core.TTRBounds{Min: time.Hour, Max: 2 * time.Hour},
		MaxObjects:   capacity,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(px.Close)
	b.ReportAllocs()
	b.ResetTimer()
	var n atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		w := &nopResponseWriter{}
		for pb.Next() {
			// A private stride per iteration keeps goroutines spread
			// over the key space, sustaining the miss/evict/admit churn.
			i := n.Add(1)
			req := httptest.NewRequest(http.MethodGet, paths[int(i*31)%keySpace], nil)
			w.h, w.code = nil, 0
			px.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				b.Errorf("status %d", w.code)
				return
			}
		}
	})
	b.StopTimer()
	stats := px.CacheStats()
	if b.N > keySpace && stats.Evictions == 0 {
		b.Fatal("churn benchmark recorded no evictions")
	}
	b.ReportMetric(float64(stats.Evictions)/float64(b.N), "evictions/op")
}

// BenchmarkRefreshSchedulerThroughput measures the min-heap refresh
// schedule on a pop-due/re-add cycle over 10k live objects, each holding
// its own heap slot as a cache entry does — the operation the dispatcher
// performs per poll, formerly an O(n) scan. A cycle allocates nothing.
func BenchmarkRefreshSchedulerThroughput(b *testing.B) {
	const objects = 10_000
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var s sched.Heap
	items := make([]sched.Item, objects)
	for i := range items {
		items[i].Payload = i
		s.Add(&items[i], epoch.Add(time.Duration(i)*time.Millisecond))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := s.Pop()
		s.Add(it, it.At.Add(objects*time.Millisecond))
	}
}

// sscan parses a float out of a table cell.
func sscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}
