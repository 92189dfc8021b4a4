package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"broadway/internal/stats"
)

// metricDef declares one metric. BENCHMARK.json repeats these tables; a test
// keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the bounded metrics, reported by every workload on the
// untraced run. Only set-up time (which the contract requires) and counts are
// here: on this box every other timing moves 30-60 % when the host gets busy,
// more than any bound allowed, so serve latency, throughput, propagation and
// CPU are reported among the per-layer metrics instead (CALIBRATION.md). Each
// count's bound is at least three times its widest spread in calibration.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"within_delta_share", "ratio", "higher", 0.10},
	{"origin_req_per_s", "1/s", "lower", 0.20},
	{"wire_bytes_per_update", "B", "lower", 0.20},
	{"mem_bytes_per_object", "B", "lower", 0.10},
}

// perLayer are the metrics of single layers (layer = package name), reported
// on the traced run. Metrics that do not apply to a workload read 0 there.
var perLayer = []metricDef{
	// End-to-end figures too unsteady, or too often exactly 0 or 1, for a
	// bound; see CALIBRATION.md.
	{"serve_rps", "1/s", "higher", 0},
	{"serve_p50_ms", "ms", "lower", 0},
	{"serve_p99_ms", "ms", "lower", 0},
	{"cpu_cores", "cores", "lower", 0},
	{"prop_p50_ms", "ms", "lower", 0},
	{"prop_p99_ms", "ms", "lower", 0},
	{"group_sync_share", "ratio", "higher", 0},
	{"fail_share", "ratio", "lower", 0},
	// Generator validity.
	{"loadgen.read_samples", "count", "higher", 0},
	{"loadgen.update_samples", "count", "higher", 0},
	{"loadgen.sched_late_p50_us", "us", "lower", 0},
	{"loadgen.sched_late_p99_us", "us", "lower", 0},
	{"loadgen.update_late_p99_us", "us", "lower", 0},
	{"loadgen.offered_share", "ratio", "lower", 0},
	{"loadgen.spin_cores", "cores", "lower", 0},
	// Spans: median self time over the traced phase.
	{"nethttp.client_leaf_overhead_us", "us", "lower", 0},
	{"webproxy.serve_hit_us", "us", "lower", 0},
	{"webproxy.serve_304_us", "us", "lower", 0},
	{"webproxy.serve_head_us", "us", "lower", 0},
	{"webproxy.serve_miss_us", "us", "lower", 0},
	{"webproxy.upstream_fetch_us", "us", "lower", 0},
	{"webproxy.refresh_fetch_us", "us", "lower", 0},
	{"webserver.serve_us", "us", "lower", 0},
	{"webserver.set_us", "us", "lower", 0},
	{"push.hop_origin_root_us", "us", "lower", 0},
	{"push.hop_root_mid_us", "us", "lower", 0},
	{"push.hop_mid_leaf_us", "us", "lower", 0},
	{"push.hop_origin_leaf_us", "us", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	// Counts over the fixed phase.
	{"webproxy.hits", "count", "higher", 0},
	{"webproxy.misses", "count", "lower", 0},
	{"webproxy.hit_ratio", "ratio", "higher", 0},
	{"webproxy.evictions", "count", "lower", 0},
	{"webproxy.capped", "count", "lower", 0},
	{"webproxy.upstream_errors", "count", "lower", 0},
	{"webproxy.polls_total", "count", "lower", 0},
	{"webproxy.polls_modified", "count", "higher", 0},
	{"webproxy.polls_triggered", "count", "lower", 0},
	{"webproxy.poll_useful_ratio", "ratio", "higher", 0},
	{"webproxy.push_events", "count", "lower", 0},
	{"webproxy.push_value_applied", "count", "higher", 0},
	{"webproxy.push_delta_applied", "count", "higher", 0},
	{"webproxy.push_chunks_assembled", "count", "lower", 0},
	{"webproxy.push_value_fallbacks", "count", "lower", 0},
	{"webproxy.push_polls", "count", "lower", 0},
	{"webproxy.push_dropped", "count", "lower", 0},
	{"webproxy.push_bounces", "count", "lower", 0},
	{"webproxy.push_fallbacks", "count", "lower", 0},
	{"webproxy.tracked_evicted", "count", "lower", 0},
	{"webproxy.disk_writes", "count", "lower", 0},
	{"webproxy.disk_demotions", "count", "lower", 0},
	{"webproxy.disk_promotions", "count", "lower", 0},
	{"webproxy.disk_pending_peak", "count", "lower", 0},
	{"push.hub_delta_frames", "count", "higher", 0},
	{"push.hub_chunk_frames", "count", "lower", 0},
	{"push.hub_filtered", "count", "lower", 0},
	{"push.hub_ring_bytes", "B", "lower", 0},
	{"push.hub_max_lag", "count", "lower", 0},
	{"push.hub_slow_kills", "count", "lower", 0},
	{"push.hub_resets", "count", "lower", 0},
	{"push.hub_publish_wait_ms", "ms", "lower", 0},
	{"webserver.polls", "count", "lower", 0},
	{"webserver.not_modified", "count", "lower", 0},
	{"net.bytes_origin_root", "B", "lower", 0},
	{"net.bytes_root_mid", "B", "lower", 0},
	{"net.bytes_mid_leaf", "B", "lower", 0},
	{"net.bytes_leaf_client", "B", "lower", 0},
	{"runtime.mallocs_per_op", "count", "lower", 0},
	{"runtime.alloc_bytes_per_op", "B", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.goroutines", "count", "lower", 0},
	{"runtime.rss_peak_mib", "MiB", "lower", 0},
	// Direct calls on fixed inputs, no fleet running.
	{"webproxy.servehttp_hit_ns", "ns", "lower", 0},
	{"webproxy.servehttp_hit_allocs", "count", "lower", 0},
	{"push.render_ns", "ns", "lower", 0},
	{"push.decode_ns", "ns", "lower", 0},
	{"push.make_delta_ns", "ns", "lower", 0},
	{"push.apply_delta_ns", "ns", "lower", 0},
	{"push.digest_ns", "ns", "lower", 0},
	{"push.hub_publish_ns", "ns", "lower", 0},
	{"push.hub_publish_allocs", "count", "lower", 0},
	{"sched.push_pop_ns", "ns", "lower", 0},
	{"sched.reschedule_ns", "ns", "lower", 0},
	{"core.limd_next_ttr_ns", "ns", "lower", 0},
	{"httpx.parse_cache_control_ns", "ns", "lower", 0},
	{"httpx.format_cache_control_ns", "ns", "lower", 0},
	{"singleflight.do_ns", "ns", "lower", 0},
	{"diskstore.put_flush_us", "us", "lower", 0},
	{"diskstore.get_us", "us", "lower", 0},
	{"diskstore.open_10k_ms", "ms", "lower", 0},
	{"ops.metrics_scrape_ms", "ms", "lower", 0},
	{"ops.cache_stats_us", "us", "lower", 0},
}

// runData is everything a run measured, handed to computeMetrics.
type runData struct {
	pl            *plan
	fleet         *fleet
	setups        []float64
	closed, fixed []readStats
	upd           updateStats
	updates       []*update
	rounds        [][]*update
	evicted       map[*update]bool
	before, after snapshot // around the fixed phase
	peaks         peaks
	attempted     int
	failed        int
}

func mergeLat(stats []readStats) (lat, late []float64) {
	for _, rs := range stats {
		lat = append(lat, rs.latency...)
		late = append(late, rs.late...)
	}
	return lat, late
}

func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// computeMetrics fills res.values with every end-to-end metric and every
// count. Everything but serve_rps, setup_s and mem_bytes_per_object is taken
// over the fixed phase.
func computeMetrics(res *result, d runData) {
	v := res.values
	tk := d.fleet.tk
	v["setup_s"] = stats.Quantile(d.setups, 0.5)
	v["mem_bytes_per_object"] = share(float64(d.fleet.heapAfter)-float64(d.fleet.heapBefore), float64(len(d.pl.keys)))

	closedReads, closedSecs := 0, 0.0
	for _, rs := range d.closed {
		closedReads += rs.attempted - rs.failed
		closedSecs = max(closedSecs, rs.elapsed.Seconds())
	}
	v["serve_rps"] = share(float64(closedReads), closedSecs)

	lat, late := mergeLat(d.fixed)
	v["serve_p50_ms"] = stats.Quantile(lat, 0.50)
	v["serve_p99_ms"] = stats.Quantile(lat, 0.99)
	v["loadgen.read_samples"] = float64(len(lat))
	v["loadgen.sched_late_p50_us"] = stats.Quantile(late, 0.50)
	v["loadgen.sched_late_p99_us"] = stats.Quantile(late, 0.99)
	v["loadgen.update_late_p99_us"] = stats.Quantile(d.upd.late, 0.99)
	v["loadgen.offered_share"] = share(d.pl.p.readRate*float64(d.pl.conns), v["serve_rps"])

	// Propagation: updates whose Set fell in the fixed phase.
	var prop []float64
	sets, within := 0, 0
	for _, u := range d.updates {
		if u.phase != phaseFixed || d.evicted[u] {
			continue
		}
		sets++
		if seen, ok := tk.leafSeen(u); ok {
			p := seen.Sub(u.setAt)
			prop = append(prop, ms(p))
			if p <= delta {
				within++
			}
		}
	}
	v["prop_p50_ms"] = stats.Quantile(prop, 0.50)
	v["prop_p99_ms"] = stats.Quantile(prop, 0.99)
	v["within_delta_share"] = share(float64(within), float64(sets))
	v["loadgen.update_samples"] = float64(len(prop))
	nRounds, synced := 0, 0
	for _, r := range d.rounds {
		if len(r) < 2 || r[0].phase != phaseFixed {
			continue
		}
		nRounds++
		var lo, hi time.Time
		all := true
		for _, u := range r {
			seen, ok := tk.leafSeen(u)
			if !ok {
				all = false
				break
			}
			if lo.IsZero() || seen.Before(lo) {
				lo = seen
			}
			if seen.After(hi) {
				hi = seen
			}
		}
		if all && hi.Sub(lo) <= groupDelta {
			synced++
		}
	}
	v["group_sync_share"] = share(float64(synced), float64(nRounds))
	v["fail_share"] = share(float64(res.failed), float64(res.attempted))
	v["webproxy.tracked_evicted"] = float64(d.upd.skipped + len(d.evicted))

	b, a := d.before, d.after
	secs := a.at.Sub(b.at).Seconds()
	v["origin_req_per_s"] = share(float64(a.polls-b.polls), secs)
	spin := 0.0
	for _, rs := range d.fixed {
		spin += rs.spin.Seconds()
	}
	v["cpu_cores"] = share(a.cpu-b.cpu-spin, secs)
	v["loadgen.spin_cores"] = share(spin, secs)
	links := make([]float64, len(a.linkBytes))
	nodeLinks := 0.0
	for i := range a.linkBytes {
		links[i] = float64(a.linkBytes[i] - b.linkBytes[i])
		if i < len(links)-1 {
			nodeLinks += links[i] // the last listener is the leaf's: client traffic
		}
	}
	allSets := 0
	for _, u := range d.updates {
		if u.phase == phaseFixed {
			allSets++
		}
	}
	v["wire_bytes_per_update"] = share(nodeLinks, float64(allSets))
	v["net.bytes_origin_root"] = links[0]
	v["net.bytes_leaf_client"] = links[len(links)-1]
	v["net.bytes_root_mid"], v["net.bytes_mid_leaf"] = 0, 0
	if len(links) == 4 {
		v["net.bytes_root_mid"], v["net.bytes_mid_leaf"] = links[1], links[2]
	}

	hits := 0
	for _, rs := range d.fixed {
		hits += rs.hits
	}
	v["webproxy.hits"] = float64(hits)
	v["webproxy.hit_ratio"] = share(float64(hits), float64(len(lat)))
	v["webproxy.misses"] = float64(a.cache.Misses - b.cache.Misses)
	v["webproxy.evictions"] = float64(a.cache.Evictions - b.cache.Evictions)
	v["webproxy.capped"] = float64(a.cache.Capped - b.cache.Capped)
	v["webproxy.upstream_errors"] = float64(a.cache.UpstreamErrors - b.cache.UpstreamErrors)
	polls := float64(a.obsPolls[0] - b.obsPolls[0])
	v["webproxy.polls_total"] = polls
	v["webproxy.polls_modified"] = float64(a.obsPolls[1] - b.obsPolls[1])
	v["webproxy.polls_triggered"] = float64(a.obsPolls[2] - b.obsPolls[2])
	v["webproxy.poll_useful_ratio"] = share(v["webproxy.polls_modified"], polls)
	v["webproxy.push_events"] = float64(a.pushSt.Events - b.pushSt.Events)
	v["webproxy.push_value_applied"] = float64(a.pushSt.ValueApplied - b.pushSt.ValueApplied)
	v["webproxy.push_delta_applied"] = float64(a.pushSt.DeltaApplied - b.pushSt.DeltaApplied)
	v["webproxy.push_chunks_assembled"] = float64(a.pushSt.ChunksAssembled - b.pushSt.ChunksAssembled)
	v["webproxy.push_value_fallbacks"] = float64(a.pushSt.ValueFallbacks - b.pushSt.ValueFallbacks)
	v["webproxy.push_polls"] = float64(a.pushSt.Polls - b.pushSt.Polls)
	v["webproxy.push_dropped"] = float64(a.pushSt.Dropped - b.pushSt.Dropped)
	v["webproxy.push_bounces"] = float64(a.pushSt.Bounces - b.pushSt.Bounces)
	v["webproxy.push_fallbacks"] = float64(a.pushSt.Fallbacks - b.pushSt.Fallbacks)
	v["webproxy.disk_writes"] = float64(a.disk.Writes - b.disk.Writes)
	v["webproxy.disk_demotions"] = float64(a.disk.Demotions - b.disk.Demotions)
	v["webproxy.disk_promotions"] = float64(a.disk.Promotions - b.disk.Promotions)
	v["webproxy.disk_pending_peak"] = float64(d.peaks.diskPending)
	var hub struct{ delta, chunk, filtered, kills, resets, wait float64 }
	for i := range a.hubs {
		ha, hb := a.hubs[i], b.hubs[i]
		hub.delta += float64(ha.DeltaFrames - hb.DeltaFrames)
		hub.chunk += float64(ha.ChunkFrames - hb.ChunkFrames)
		hub.filtered += float64(ha.Filtered - hb.Filtered)
		hub.kills += float64(ha.SlowKills - hb.SlowKills)
		hub.resets += float64(ha.Resets - hb.Resets)
		hub.wait += ms(ha.PublishWait - hb.PublishWait)
	}
	v["push.hub_delta_frames"], v["push.hub_chunk_frames"], v["push.hub_filtered"] = hub.delta, hub.chunk, hub.filtered
	v["push.hub_slow_kills"], v["push.hub_resets"], v["push.hub_publish_wait_ms"] = hub.kills, hub.resets, hub.wait
	v["push.hub_ring_bytes"] = float64(d.peaks.ringBytes)
	v["push.hub_max_lag"] = float64(d.peaks.hubMaxLag)
	v["webserver.polls"] = float64(a.polls - b.polls)
	v["webserver.not_modified"] = float64(a.notMod - b.notMod)

	ops := float64(len(lat) + allSets)
	v["runtime.mallocs_per_op"] = share(float64(a.mem.Mallocs-b.mem.Mallocs), ops)
	v["runtime.alloc_bytes_per_op"] = share(float64(a.mem.TotalAlloc-b.mem.TotalAlloc), ops)
	v["runtime.gc_pause_ms"] = float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs) / 1e6
	v["runtime.gc_cycles"] = float64(a.mem.NumGC - b.mem.NumGC)
	v["runtime.goroutines"] = float64(d.peaks.goroutines)
	_, v["runtime.rss_peak_mib"] = cpuSeconds()
}

// spanMetrics fills the span-derived per-layer metrics from the traced
// phase, and the tracing overhead against the untraced fixed phase.
func spanMetrics(res *result, spans []span, fixed, traced []readStats) {
	v := res.values
	self := selfTimes(spans)
	for name, metric := range map[string]string{
		spanRead:        "nethttp.client_leaf_overhead_us",
		spanServeHit:    "webproxy.serve_hit_us",
		spanServe304:    "webproxy.serve_304_us",
		spanServeHead:   "webproxy.serve_head_us",
		spanServeMiss:   "webproxy.serve_miss_us",
		spanUpstream:    "webproxy.upstream_fetch_us",
		spanRefresh:     "webproxy.refresh_fetch_us",
		spanOriginServe: "webserver.serve_us",
		spanSet:         "webserver.set_us",
		spanHopOrigRoot: "push.hop_origin_root_us",
		spanHopRootMid:  "push.hop_root_mid_us",
		spanHopMidLeaf:  "push.hop_mid_leaf_us",
		spanHopOrigLeaf: "push.hop_origin_leaf_us",
	} {
		v[metric] = stats.Quantile(self[name], 0.5)
	}
	untraced, _ := mergeLat(fixed)
	withTrace, _ := mergeLat(traced)
	base := stats.Quantile(untraced, 0.5)
	v["trace.overhead_pct"] = share(stats.Quantile(withTrace, 0.5)-base, base) * 100
}

// printMetrics writes every computed metric by name with its unit.
func printMetrics(w io.Writer, res *result) {
	fmt.Fprintf(w, "\n%s: attempted %d, failed %d\n", res.workload, res.attempted, res.failed)
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range set {
			if val, ok := res.values[m.name]; ok {
				fmt.Fprintf(w, "  %-34s %16.4f %s\n", m.name, val, m.unit)
			}
		}
	}
	if len(res.violations) > 0 {
		seen := map[string]bool{}
		var vs []string
		for _, s := range res.violations {
			if !seen[s] {
				seen[s] = true
				vs = append(vs, s)
			}
		}
		sort.Strings(vs)
		fmt.Fprintf(w, "  VIOLATIONS:\n    %s\n", strings.Join(vs, "\n    "))
	}
}
