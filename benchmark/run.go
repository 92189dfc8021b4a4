package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"broadway/internal/push"
	"broadway/internal/webproxy"
)

// Phases of a run. Updates are tagged with the phase their Set fell in.
const (
	phaseClosed = iota
	phaseFixed
	phaseTraced
)

// setupRepeats is how often an untraced run sets the fleet up; setup_s is
// the median, and the last set-up is the one the workload runs on.
const setupRepeats = 3

// result is one run of one workload.
type result struct {
	workload   string
	violations []string
	attempted  int
	failed     int
	values     map[string]float64 // every metric computed, by name
}

// snapshot is the state of every counter the run differences across a phase.
type snapshot struct {
	at        time.Time
	cpu       float64
	mem       runtime.MemStats
	cache     webproxy.CacheStats // leaf
	pushSt    webproxy.PushStats  // leaf
	disk      webproxy.DiskStats  // leaf
	hubs      []push.HubStats     // origin hub, then each relay hub
	polls     uint64              // origin
	notMod    uint64
	linkBytes []int64 // origin listener, then each node's
	obsPolls  [3]int64
}

func takeSnapshot(t *topology, tk *tracker) snapshot {
	s := snapshot{at: time.Now()}
	s.cpu, _ = cpuSeconds()
	runtime.ReadMemStats(&s.mem)
	leaf := t.leaf().proxy
	s.cache, s.pushSt, s.disk = leaf.CacheStats(), leaf.PushStats(), leaf.DiskStats()
	ost := t.origin.Stats()
	s.polls, s.notMod = ost.Polls, ost.NotModified
	if ost.PushEnabled {
		s.hubs = append(s.hubs, ost.Hub)
	}
	s.linkBytes = append(s.linkBytes, t.originSrv.ln.bytes.Load())
	for _, n := range t.nodes {
		s.linkBytes = append(s.linkBytes, n.server.ln.bytes.Load())
		if rs := n.proxy.RelayStats(); rs.Enabled {
			s.hubs = append(s.hubs, rs.Hub)
		}
	}
	s.obsPolls = [3]int64{tk.polls.Load(), tk.pollsModified.Load(), tk.pollsTriggered.Load()}
	return s
}

// peaks are gauges sampled while the fixed phase runs.
type peaks struct {
	diskPending, hubMaxLag, goroutines int64
	ringBytes                          int64
}

func samplePeaks(t *topology, stop <-chan struct{}, out *peaks) {
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		out.diskPending = max(out.diskPending, int64(t.leaf().proxy.DiskStats().PendingWrites))
		out.goroutines = max(out.goroutines, int64(runtime.NumGoroutine()))
		hubs := []push.HubStats{t.origin.PushHubStats()}
		for _, n := range t.nodes {
			hubs = append(hubs, n.proxy.RelayStats().Hub)
		}
		for _, h := range hubs {
			out.hubMaxLag = max(out.hubMaxLag, int64(h.MaxLag))
			out.ringBytes = max(out.ringBytes, h.ReplayBytes)
		}
	}
}

// fleet is a set-up fleet with the state a run keeps beside it.
type fleet struct {
	topo       *topology
	tk         *tracker
	readers    []*reader
	setup      time.Duration
	heapBefore uint64
	heapAfter  uint64
}

// setUp builds the topology, hosts every object and warms the leaf with one
// read per key; the time it took is one setup_s sample. Keys are warmed last
// to first so the tracked keys, which come first, are the most recently
// admitted when the cache is smaller than the key set.
func setUp(pl *plan, bodies [][]byte, digests []uint64, outDir string, tr *tracer) (*fleet, error) {
	f := &fleet{}
	f.tk = newTracker(pl, bodies, digests)
	hk := hooks{observer: func(node string) func(webproxy.PollObservation) {
		if node == "leaf" || tr != nil {
			return f.tk.observer(node)
		}
		return nil
	}}
	if tr != nil {
		hk.wrapOrigin, hk.wrapLeaf, hk.wrapLeafClient = tr.wrapOrigin, tr.wrapLeaf, tr.wrapLeafClient
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	f.heapBefore = m.HeapAlloc

	begin := time.Now()
	topo, err := startTopology(pl, bodies, outDir, hk)
	if err != nil {
		return nil, err
	}
	f.topo = topo
	ids := &atomic.Uint64{}
	for c := 0; c < pl.conns; c++ {
		f.readers = append(f.readers, &reader{
			c: newClient(topo.leaf().server.url), pl: pl, tk: f.tk,
			validators: make([]string, len(pl.keys)), ids: ids,
		})
	}
	var warm readStats
	for k := len(pl.keys) - 1; k >= 0; k-- {
		f.readers[0].complete(f.readers[0].issue(readOp{key: int32(k), kind: opGet}, &warm, false), &warm)
	}
	f.setup = time.Since(begin)
	if warm.failed > 0 {
		f.close()
		return nil, fmt.Errorf("warm: %d of %d reads failed: %s", warm.failed, warm.attempted, warm.firstErr)
	}

	// Bodies queued for the disk tier's write-behind are not what an object
	// costs at rest: let the queue empty before weighing the heap.
	for limit := time.Now().Add(5 * time.Second); topo.leaf().proxy.DiskStats().PendingWrites > 0 && time.Now().Before(limit); {
		time.Sleep(5 * time.Millisecond)
	}
	runtime.GC()
	runtime.ReadMemStats(&m)
	f.heapAfter = m.HeapAlloc
	return f, nil
}

func (f *fleet) close() []string {
	for _, r := range f.readers {
		r.c.close()
	}
	return f.topo.close()
}

// runOpts are the arguments of one run.
type runOpts struct {
	seed    int64
	seconds int  // closed and fixed phase together
	traced  bool // add the traced phase and the direct calls
	outDir  string
	log     io.Writer
}

// runWorkload runs p once: set-up, closed phase, fixed phase, the traced
// phase when tracing, drain, output checks and tear-down.
func runWorkload(p params, o runOpts) (*result, error) {
	seed, traced, outDir, log := o.seed, o.traced, o.outDir, o.log
	conns := max(1, runtime.GOMAXPROCS(0)-1)
	total := time.Duration(o.seconds) * time.Second
	// Under push every key is polled once per TTRmax, and the keys warmed
	// together come due together: a burst of polls every TTRmax that delays
	// whatever shares the poll workers. A fixed phase of whole TTRmax periods
	// sees the same share of bursts wherever it starts.
	fixedDur := total * 3 / 4
	if fixedDur >= ttrMax {
		fixedDur = fixedDur / ttrMax * ttrMax
	}
	closedDur := total - fixedDur
	tracedDur := time.Duration(0)
	if traced {
		tracedDur = total / 2
	}
	pl, err := newPlan(p, seed, conns, closedDur, fixedDur, tracedDur)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(pl.keys))
	digests := make([]uint64, len(pl.keys))
	for i, k := range pl.keys {
		bodies[i] = initialBody(seed, i, k.path, k.size)
		digests[i] = bodyDigest(bodies[i])
	}
	res := &result{workload: p.name, values: make(map[string]float64)}
	baseGoroutines := runtime.NumGoroutine()

	var tr *tracer
	repeats := setupRepeats
	if traced {
		tr = newTracer()
		repeats = 1 // the traced run reports no setup_s
	}
	var f *fleet
	var setups []float64
	var diskDirs []string
	for i := 0; i < repeats; i++ {
		if f, err = setUp(pl, bodies, digests, outDir, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, f.setup.Seconds())
		if f.topo.diskDir != "" {
			diskDirs = append(diskDirs, f.topo.diskDir)
		}
		if i < repeats-1 {
			res.violations = append(res.violations, f.close()...)
			res.violations = append(res.violations, waitGoroutines(baseGoroutines, 3*time.Second)...)
		}
	}
	t, tk := f.topo, f.tk
	fmt.Fprintf(log, "%s: set up %d times, %v s\n", p.name, repeats, setups)

	// Origin.Set has second resolution: keep revision 0 and the first
	// update of any key at least minUpdateGap apart.
	time.Sleep(time.Until(t.populatedAt.Add(minUpdateGap)))

	start := time.Now()
	phaseOf := func(at time.Duration) int {
		switch {
		case at < closedDur:
			return phaseClosed
		case at < closedDur+fixedDur:
			return phaseFixed
		}
		return phaseTraced
	}
	stopUpdates := make(chan struct{})
	var upd updateStats
	var updWG sync.WaitGroup
	updWG.Add(1)
	go func() {
		defer updWG.Done()
		upd = runUpdates(t, pl, tk, start, phaseOf, p.disk, stopUpdates)
	}()

	// phase runs fn on every reader at once and returns their stats.
	phase := func(fn func(c int, r *reader) readStats) []readStats {
		out := make([]readStats, len(f.readers))
		var wg sync.WaitGroup
		for c, r := range f.readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[c] = fn(c, r)
			}()
		}
		wg.Wait()
		return out
	}

	closed := phase(func(c int, r *reader) readStats { return r.runClosed(pl.closedOps[c], closedDur) })

	before := takeSnapshot(t, tk)
	var pk peaks
	stopPeaks := make(chan struct{})
	var peakWG sync.WaitGroup
	peakWG.Add(1)
	go func() {
		defer peakWG.Done()
		samplePeaks(t, stopPeaks, &pk)
	}()
	fixedStart := time.Now()
	fixed := phase(func(c int, r *reader) readStats {
		// Connections are offset across the interval so they do not send
		// in lockstep.
		return r.runOpen(pl.fixedOps[c], fixedStart.Add(time.Duration(c)*pl.interval/time.Duration(conns)), pl.interval, false)
	})
	close(stopPeaks)
	peakWG.Wait()
	after := takeSnapshot(t, tk)

	var tracedStats []readStats
	if traced {
		tr.on.Store(true)
		tracedStart := time.Now()
		tracedStats = phase(func(c int, r *reader) readStats {
			return r.runOpen(pl.tracedOps[c], tracedStart.Add(time.Duration(c)*pl.interval/time.Duration(conns)), pl.interval, true)
		})
		tr.on.Store(false)
	}
	close(stopUpdates)
	updWG.Wait()

	evicted := drain(t, pl, tk, res)
	for _, n := range t.nodes {
		ps, hub := n.proxy.PushStats(), n.proxy.RelayStats().Hub
		fmt.Fprintf(log, "%s %s: push connects=%d resets=%d fallbacks=%d value_fallbacks=%d delta_base_misses=%d chunks_broken=%d skipped=%d; relay hub slow_kills=%d resume_holes=%d degraded=%d oversized=%d\n",
			p.name, n.name, ps.Connects, ps.Resets, ps.Fallbacks, ps.ValueFallbacks, ps.DeltaBaseMisses, ps.ChunksBroken, ps.SkippedFrames,
			hub.SlowKills, hub.ResumeHoles, hub.Degraded, hub.Oversized)
	}
	if oh := t.origin.PushHubStats(); oh.Seq > 0 {
		fmt.Fprintf(log, "%s origin: hub slow_kills=%d resume_holes=%d degraded=%d oversized=%d\n", p.name, oh.SlowKills, oh.ResumeHoles, oh.Degraded, oh.Oversized)
	}

	// Tally reads and updates.
	for _, set := range [][]readStats{closed, fixed, tracedStats} {
		for _, rs := range set {
			res.attempted += rs.attempted
			res.failed += rs.failed
			if rs.firstErr != "" {
				res.violations = append(res.violations, rs.firstErr)
			}
		}
	}
	tk.mu.Lock()
	all := append([]*update(nil), tk.all...)
	rounds := append([][]*update(nil), tk.rounds...)
	tk.mu.Unlock()
	res.attempted += len(all)
	lateUpdates := 0
	for _, u := range all {
		if seen, ok := tk.leafSeen(u); !ok {
			if !evicted[u] {
				lateUpdates++
			}
		} else if seen.Sub(u.setAt) > updateDeadline {
			lateUpdates++
		}
	}
	res.failed += lateUpdates
	if lateUpdates > 0 {
		res.violations = append(res.violations, fmt.Sprintf("%d updates not visible at the leaf within %v", lateUpdates, updateDeadline))
	}

	computeMetrics(res, runData{
		pl: pl, fleet: f, setups: setups, closed: closed, fixed: fixed, upd: upd,
		updates: all, rounds: rounds, evicted: evicted,
		before: before, after: after, peaks: pk,
	})

	var spans []span
	if traced {
		for _, rs := range tracedStats {
			spans = append(spans, rs.spans...)
		}
		tr.mu.Lock()
		spans = append(spans, tr.spans...)
		tr.mu.Unlock()
		var ups []*update
		for _, u := range all {
			if u.phase == phaseTraced {
				ups = append(ups, u)
			}
		}
		spans = append(spans, updateSpans(tk, ups, p.hops, func() uint64 { return tr.nextID.Add(1) })...)
		stamp(spans, start)
		spanMetrics(res, spans, fixed, tracedStats)
	}

	res.violations = append(res.violations, f.close()...)
	res.violations = append(res.violations, waitGoroutines(baseGoroutines, 3*time.Second)...)
	res.violations = append(res.violations, removeDiskDirs(diskDirs)...)

	if traced {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(outDir, "trace-"+p.name+".jsonl")
		if err := writeSpans(path, spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(log, "%s: %d spans in %s\n", p.name, len(spans), path)
		if err := directCalls(res, outDir); err != nil {
			return nil, fmt.Errorf("direct calls: %w", err)
		}
	}
	return res, nil
}

// drain waits, after the update stream stopped, first for every update to
// become visible at the leaf and then for the leaf to hold the origin's last
// body of every tracked key. It returns the updates whose key left the
// leaf's memory before they could be seen arriving: a key that is not
// resident cannot be served stale, so those are tallied, not failed.
func drain(t *topology, pl *plan, tk *tracker, res *result) map[*update]bool {
	leaf := t.leaf().proxy
	evicted := make(map[*update]bool)
	resident := func(key int) ([]byte, bool) { return leaf.CachedBody(pl.keys[key].path) }
	// unseen reports an update that can no longer be seen arriving: its key
	// was evicted, or was promoted back from disk already fresh.
	unseen := func(u *update) bool {
		if !pl.p.disk {
			return false
		}
		body, ok := resident(u.key)
		return !ok || bytes.Equal(body, tk.currentBody(u.key))
	}
	for waiting := true; waiting; {
		waiting = false
		for _, u := range tk.pending() {
			if time.Since(u.setAt) <= updateDeadline && !unseen(u) {
				waiting = true
				time.Sleep(20 * time.Millisecond)
				break
			}
		}
	}
	for _, u := range tk.pending() {
		if unseen(u) {
			evicted[u] = true
		}
	}

	deadline := time.Now().Add(drainLimit)
	for {
		stale := 0
		for k := 0; k < pl.p.tracked; k++ {
			if body, ok := resident(k); ok && !bytes.Equal(body, tk.currentBody(k)) {
				stale++
			} else if !ok && !pl.p.disk {
				res.violations = append(res.violations, "tracked key "+pl.keys[k].path+" is not resident at the leaf")
				return evicted
			}
		}
		if stale == 0 {
			return evicted
		}
		if time.Now().After(deadline) {
			res.violations = append(res.violations, fmt.Sprintf("%d tracked keys still differ from the origin %v after updates stopped", stale, drainLimit))
			return evicted
		}
		time.Sleep(50 * time.Millisecond)
	}
}
