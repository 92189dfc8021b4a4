package main

import (
	"fmt"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"time"

	"broadway/internal/core"
	"broadway/internal/diskstore"
	"broadway/internal/httpx"
	"broadway/internal/ops"
	"broadway/internal/push"
	"broadway/internal/sched"
	"broadway/internal/simtime"
	"broadway/internal/singleflight"
	"broadway/internal/webproxy"
	"broadway/internal/webserver"
)

// sink keeps measured calls from being optimized away.
var sink any

// perCall runs f n times after a short warm-up and returns the mean
// nanoseconds and heap allocations per call.
func perCall(n int, f func(i int)) (ns, allocs float64) {
	for i := 0; i < n/10+1; i++ {
		f(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// discardWriter is an http.ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// directCalls measures each layer's exported entry points on fixed seeded
// inputs with no fleet running, so the end-to-end numbers decompose: the gap
// between webproxy.servehttp_hit_ns and serve_p50_ms is net/http and the
// kernel, and so on down the list in metrics.go.
func directCalls(res *result, outDir string) error {
	v := res.values
	const seed = 1
	body := initialBody(seed, 0, keyPath(0), 1024)
	next := nextBody(body, seed, 0, 1)

	// push: render, decode, delta, digest, publish.
	dl, ok := push.MakeDelta(body, next)
	if !ok {
		return fmt.Errorf("MakeDelta refused the fixed input")
	}
	ev := push.Event{
		Kind: push.KindUpdate, Key: keyPath(0), ModTime: time.Unix(1_700_000_000, 0),
		Body: next, HasBody: true, ContentType: "text/plain", Digest: push.DigestOf(next),
		DeltaBody: dl, BaseDigest: push.DigestOf(body), DeltaCodec: push.DeltaCodecBlock,
	}
	v["push.render_ns"], _ = perCall(20000, func(int) { sink = push.RenderLadder(ev, push.DefaultPayloadCap) })
	frame := push.RenderLadder(ev, push.DefaultPayloadCap).Full()
	if _, err := push.Decode(frame); err != nil {
		return fmt.Errorf("decode of a rendered frame: %w", err)
	}
	v["push.decode_ns"], _ = perCall(20000, func(int) { sink, _ = push.Decode(frame) })
	v["push.make_delta_ns"], _ = perCall(20000, func(int) { sink, _ = push.MakeDelta(body, next) })
	if out, err := push.ApplyDelta(push.DeltaCodecBlock, body, dl, 1<<20); err != nil || string(out) != string(next) {
		return fmt.Errorf("ApplyDelta does not reproduce the target: %v", err)
	}
	v["push.apply_delta_ns"], _ = perCall(20000, func(int) { sink, _ = push.ApplyDelta(push.DeltaCodecBlock, body, dl, 1<<20) })
	v["push.digest_ns"], _ = perCall(20000, func(int) { sink = push.DigestOf(body) })
	hub := push.NewHub(push.HubConfig{PayloadCap: push.DefaultPayloadCap, ChunkPayload: push.DefaultPayloadCap})
	v["push.hub_publish_ns"], v["push.hub_publish_allocs"] = perCall(20000, func(i int) {
		e := ev
		e.Key = keyNames[i%len(keyNames)]
		sink = hub.Publish(e)
	})

	// sched: a 4096-entry heap, the size of hit-serve's refresh schedule.
	epoch := time.Unix(1_700_000_000, 0)
	var heap sched.Heap
	items := make([]*sched.Item, 4096)
	for i := range items {
		items[i] = heap.Push(epoch.Add(time.Duration(i*7919%4096)*time.Millisecond), i)
	}
	v["sched.reschedule_ns"], _ = perCall(100000, func(i int) {
		it := items[i%len(items)]
		heap.Reschedule(it, it.At.Add(time.Duration(i%13)*time.Second))
	})
	v["sched.push_pop_ns"], _ = perCall(100000, func(int) {
		it := heap.Pop()
		sink = heap.Push(it.At.Add(4096*time.Millisecond), it.Payload)
	})

	// core: LIMD on an alternating quiet / modified poll sequence.
	limd := core.NewLIMD(core.LIMDConfig{Delta: delta, Bounds: core.TTRBounds{Min: ttrMin, Max: ttrMax}})
	now := simtime.Time(0)
	v["core.limd_next_ttr_ns"], _ = perCall(100000, func(i int) {
		prev := now
		now += simtime.Time(3 * time.Second)
		o := core.PollOutcome{Now: now, Prev: prev}
		if i%3 == 0 {
			o.Modified, o.HasLastModified, o.LastModified = true, true, prev+simtime.Time(time.Second)
		}
		sink = limd.NextTTR(o)
	})

	// httpx: the §5.1 tolerance directives.
	tol := httpx.Tolerances{Delta: delta, Group: "g0001", GroupDelta: groupDelta}
	cc := tol.FormatCacheControl()
	v["httpx.format_cache_control_ns"], _ = perCall(100000, func(int) { sink = tol.FormatCacheControl() })
	v["httpx.parse_cache_control_ns"], _ = perCall(100000, func(int) { sink, _ = httpx.ParseCacheControl(cc) })

	var flight singleflight.Group
	v["singleflight.do_ns"], _ = perCall(100000, func(i int) {
		sink, _, _ = flight.Do(keyNames[i%len(keyNames)], func() (any, error) { return nil, nil })
	})

	if err := diskCalls(v, outDir, body); err != nil {
		return err
	}
	return proxyCalls(v)
}

// keyNames are fixed keys spread over the ring partitions.
var keyNames = func() []string {
	out := make([]string, 256)
	for i := range out {
		out[i] = keyPath(i)
	}
	return out
}()

// diskCalls measures the disk tier: a put made durable, a read of a durable
// record, and reopening a store of 10k records (restart cost).
func diskCalls(v map[string]float64, outDir string, body []byte) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := diskstore.Open(dir, 0)
	if err != nil {
		return err
	}
	rec := func(i int) diskstore.Record {
		return diskstore.Record{Key: keyPath(i), ValidatedAt: time.Unix(1_700_000_000, 0), Delta: delta}
	}
	const records = 10000
	bodies := make([][]byte, records)
	for i := range bodies {
		bodies[i] = nextBody(body, 1, i, 1)
	}
	ns, _ := perCall(200, func(i int) {
		st.Put(rec(i), bodies[i])
		st.Flush()
	})
	v["diskstore.put_flush_us"] = ns / 1e3
	for i := 0; i < records; i++ {
		st.Put(rec(i), bodies[i])
	}
	st.Flush()
	ns, _ = perCall(2000, func(i int) { _, sink, _ = st.Get(rec(i * 7 % records).Key) })
	v["diskstore.get_us"] = ns / 1e3
	if err := st.Close(); err != nil {
		return err
	}
	start := time.Now()
	st, err = diskstore.Open(dir, 0)
	if err != nil {
		return err
	}
	v["diskstore.open_10k_ms"] = ms(time.Since(start))
	if n := st.Len(); n != records {
		st.Close()
		return fmt.Errorf("reopened disk store holds %d records, wrote %d", n, records)
	}
	return st.Close()
}

// proxyCalls measures the proxy with no socket in the way: ServeHTTP on a
// resident key into a discarding writer, and the operational scrape and
// CacheStats walk at 4096 resident objects.
func proxyCalls(v map[string]float64) error {
	const objects = 4096
	origin := webserver.NewOrigin()
	body := initialBody(1, 0, keyPath(0), 1024)
	paths := make([]string, objects)
	for i := range paths {
		paths[i] = keyPath(i)
		origin.Set(paths[i], body, "text/plain")
	}
	srv, err := startServer(origin)
	if err != nil {
		return err
	}
	tr := &http.Transport{}
	up, _ := url.Parse(srv.url)
	px, err := webproxy.New(webproxy.Config{
		Origin: up, Client: &http.Client{Transport: tr},
		DefaultDelta: delta, Bounds: core.TTRBounds{Min: ttrMin, Max: ttrMax},
	})
	if err != nil {
		srv.srv.Close()
		return err
	}
	defer func() {
		px.Close()
		srv.srv.Close()
		tr.CloseIdleConnections()
	}()
	reqs := make([]*http.Request, objects)
	w := &discardWriter{h: make(http.Header)}
	for i, p := range paths {
		reqs[i], _ = http.NewRequest(http.MethodGet, "http://leaf"+p, nil)
		px.ServeHTTP(w, reqs[i]) // admit
	}
	if px.Len() != objects {
		return fmt.Errorf("proxy holds %d of %d objects", px.Len(), objects)
	}
	v["webproxy.servehttp_hit_ns"], v["webproxy.servehttp_hit_allocs"] = perCall(200000, func(i int) {
		clear(w.h)
		px.ServeHTTP(w, reqs[i%objects])
	})
	ns, _ := perCall(200, func(int) { sink = px.CacheStats() })
	v["ops.cache_stats_us"] = ns / 1e3
	h, err := ops.NewHandler(ops.Config{Proxy: px})
	if err != nil {
		return err
	}
	scrape, _ := http.NewRequest(http.MethodGet, "http://leaf/metrics", nil)
	ns, _ = perCall(200, func(int) {
		clear(w.h)
		h.ServeHTTP(w, scrape)
	})
	v["ops.metrics_scrape_ms"] = ns / 1e6
	return nil
}
