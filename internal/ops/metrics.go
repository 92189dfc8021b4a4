package ops

import (
	"bytes"
	"net/http"
	"strconv"
	"time"

	"broadway/internal/push"
	"broadway/internal/webproxy"
	"broadway/internal/webserver"
)

// This file flattens the in-process stats structs — CacheStats,
// PushStats, RelayStats, OriginStats, and both hubs' HubStats — into
// the /metrics exposition. The names below are STABLE: dashboards and
// alerts hang off them, and TestMetricsCrossCheckAgainstStructs walks
// every struct field against this mapping, so adding a stats field
// without exporting it (or renaming a metric) fails the build's tests.

// Hub label values: the same HubStats shape is exported for a proxy's
// downstream relay hub and an origin's event hub, distinguished by the
// hub label.
const (
	HubRelay  = "relay"
	HubOrigin = "origin"
)

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// timestampSeconds renders a time as a unix-seconds gauge, 0 when unset
// (the Prometheus convention for *_timestamp_seconds).
func timestampSeconds(t time.Time) float64 {
	if t.IsZero() {
		return 0
	}
	return float64(t.UnixNano()) / 1e9
}

// writeProxyMetrics emits the proxy's cache, upstream, push-channel,
// and relay families.
func writeProxyMetrics(e *exposition, p *webproxy.Proxy) {
	cs := p.CacheStats()
	e.counter("broadway_cache_hits_total", "Cache hits since start.", float64(cs.Hits))
	e.counter("broadway_cache_misses_total", "Requests that entered the admission path.", float64(cs.Misses))
	e.counter("broadway_cache_evictions_total", "Objects displaced by replacement or admin eviction.", float64(cs.Evictions))
	e.counter("broadway_cache_capped_total", "Admissions refused residency at capacity.", float64(cs.Capped))
	e.gauge("broadway_cache_resident_objects", "Currently cached objects.", float64(cs.ResidentObjects))
	e.gauge("broadway_cache_resident_bytes", "Approximate resident bytes of cached objects.", float64(cs.ResidentBytes))
	e.counter("broadway_cache_tolerance_overrides_total", "Runtime tolerance overrides applied via /admin/tolerance.", float64(cs.ToleranceOverrides))

	us := p.UpstreamStatus()
	e.counter("broadway_upstream_errors_total", "Failed upstream fetches (all refresh and admission paths).", float64(us.Errors))
	e.gauge("broadway_upstream_last_error_timestamp_seconds", "Unix time of the most recent failed upstream fetch (0 before any).", timestampSeconds(us.LastErrorAt))
	e.gauge("broadway_upstream_last_ok_timestamp_seconds", "Unix time of the most recent successful upstream fetch (0 before any).", timestampSeconds(us.LastOKAt))

	ps := p.PushStats()
	e.gauge("broadway_push_enabled", "1 when the proxy subscribes to an invalidation channel.", boolVal(ps.Enabled))
	e.gauge("broadway_push_connected", "1 while the invalidation channel is healthy (also CacheStats.PushConnected).", boolVal(ps.Connected))
	e.counter("broadway_push_events_total", "Update notifications received on the channel (also CacheStats.PushEvents).", float64(ps.Events))
	e.counter("broadway_push_polls_total", "Pushed jobs enqueued from events (also CacheStats.PushPolls).", float64(ps.Polls))
	const pollsHelp = "Successful refresh polls of cached objects, by what demanded them."
	e.counter("broadway_polls_total", pollsHelp, float64(cs.RegularPolls), Label{"kind", "regular"})
	e.counter("broadway_polls_total", pollsHelp, float64(cs.TriggeredPolls), Label{"kind", "triggered"})
	e.counter("broadway_polls_total", pollsHelp, float64(cs.PushedPolls), Label{"kind", "pushed"})
	e.counter("broadway_group_channel_syncs_total", "Group members the push channel's lease vouched for at a sibling's update, with no triggered poll.", float64(cs.GroupChannelSyncs))
	e.gauge("broadway_push_lease_term_seconds", "Interval between a covered key's regular polls while the channel is healthy (0 when leases are off).", ps.LeaseTerm.Seconds())
	e.counter("broadway_push_dropped_total", "Events dropped for non-resident objects.", float64(ps.Dropped))
	e.counter("broadway_push_value_applied_total", "Pushed payloads installed directly, zero origin polls.", float64(ps.ValueApplied))
	e.counter("broadway_push_value_fallbacks_total", "Pushed jobs degraded to a confirmation poll.", float64(ps.ValueFallbacks))
	e.counter("broadway_push_duplicates_total", "Pushed events dropped by the version check (cached copy already at that version).", float64(ps.Duplicates))
	e.counter("broadway_push_delta_applied_total", "Pushed delta frames reconstructed, verified, and installed.", float64(ps.DeltaApplied))
	e.counter("broadway_push_delta_base_misses_total", "Pushed deltas refused for a base digest mismatch, degraded down the ladder.", float64(ps.DeltaBaseMisses))
	e.counter("broadway_push_delta_rebased_total", "Relay publications carrying a delta form for this proxy's downstream.", float64(ps.DeltaRebased))
	e.counter("broadway_push_disk_applied_total", "Pushed payloads landed on demoted objects' disk records.", float64(ps.DiskApplied))
	e.counter("broadway_push_chunks_assembled_total", "Chunked bodies reassembled and delivered whole.", float64(ps.ChunksAssembled))
	e.counter("broadway_push_chunks_broken_total", "Chunk sets abandoned and degraded to a confirmation poll.", float64(ps.ChunksBroken))
	e.counter("broadway_push_fallbacks_total", "Healthy-to-disconnected transitions, each running a catch-up sweep (also CacheStats.PushFallbacks).", float64(ps.Fallbacks))
	e.counter("broadway_push_connects_total", "Successful stream establishments.", float64(ps.Connects))
	e.counter("broadway_push_bounces_total", "Deliberate stream drops forcing interest renegotiation.", float64(ps.Bounces))
	e.counter("broadway_push_stream_resets_total", "Mid-stream hello/Reset frames received.", float64(ps.Resets))
	e.counter("broadway_push_skipped_frames_total", "Oversized or undecodable stream lines dropped in place.", float64(ps.SkippedFrames))
	e.gauge("broadway_push_last_seq", "Last fully processed stream position.", float64(ps.LastSeq))
	e.gauge("broadway_push_last_frame_timestamp_seconds", "Unix time of the last stream frame of any kind (0 before any).", timestampSeconds(ps.LastFrameAt))
	e.gauge("broadway_push_heartbeat_timeout_seconds", "Watchdog interval declaring the stream dead without frames.", ps.HeartbeatTimeout.Seconds())

	rs := p.RelayStats()
	e.gauge("broadway_relay_enabled", "1 when the proxy relays events downstream.", boolVal(rs.Enabled))
	e.gauge("broadway_relay_info", "Constant 1; the path label names the relayed stream's endpoint.", 1, Label{"path", rs.Path})
	writeHubMetrics(e, rs.Hub, HubRelay)

	ds := p.DiskStats()
	e.gauge("broadway_disk_enabled", "1 when the persistent disk tier is configured.", boolVal(ds.Enabled))
	e.gauge("broadway_disk_records", "Records in the durable metadata index.", float64(ds.Records))
	e.gauge("broadway_disk_bytes", "Blob bytes accounted by the durable index.", float64(ds.Bytes))
	e.gauge("broadway_disk_pending_writes", "Write-behind queue depth in coalesced keys.", float64(ds.PendingWrites))
	e.counter("broadway_disk_writes_total", "Persist operations applied by the write-behind worker.", float64(ds.Writes))
	e.counter("broadway_disk_write_errors_total", "Persist operations that failed at the filesystem.", float64(ds.WriteErrors))
	e.counter("broadway_disk_deletes_total", "Durable records purged (admin eviction).", float64(ds.Deletes))
	e.counter("broadway_disk_evictions_total", "Durable records dropped by the disk byte budget.", float64(ds.Evictions))
	e.counter("broadway_disk_demotions_total", "Replacement victims retained on disk instead of lost.", float64(ds.Demotions))
	e.counter("broadway_disk_promotions_total", "Disk records re-admitted, validated by a fetch or carried by a live lease.", float64(ds.Promotions))
	e.counter("broadway_disk_leased_promotions_total", "Promotions the push channel answered with no upstream request.", float64(ds.LeasedPromotions))
	e.counter("broadway_disk_rehydrated_total", "Entries restored warm from disk at startup.", float64(ds.Rehydrated))
	e.counter("broadway_disk_grace_serves_total", "Hits served as X-Cache: GRACE before re-validation.", float64(ds.GraceServes))
}

// writeHubMetrics emits one hub's HubStats under the given hub label.
func writeHubMetrics(e *exposition, hs push.HubStats, which string) {
	l := Label{"hub", which}
	e.gauge("broadway_hub_seq", "Last assigned sequence number.", float64(hs.Seq), l)
	e.gauge("broadway_hub_subscribers", "Registered streams.", float64(hs.Subscribers), l)
	e.gauge("broadway_hub_active_streams", "Stream handler goroutines (surplus over subscribers is unwinding handlers).", float64(hs.ActiveStreams), l)
	e.gauge("broadway_hub_replay_events", "Replay ring occupancy in events.", float64(hs.ReplayLen), l)
	e.gauge("broadway_hub_replay_events_cap", "Replay ring capacity in events.", float64(hs.ReplayCap), l)
	e.gauge("broadway_hub_replay_bytes", "Replay ring resident wire bytes.", float64(hs.ReplayBytes), l)
	e.gauge("broadway_hub_replay_bytes_cap", "Replay ring byte budget (-1 unbounded).", float64(hs.ReplayByteCap), l)
	e.gauge("broadway_hub_ring_partitions", "Prefix partitions currently resident in the replay ring.", float64(len(hs.Partitions)), l)
	for _, p := range hs.Partitions {
		e.gauge("broadway_hub_ring_bytes", "Replay ring resident wire bytes per prefix partition (empty partition label is the catch-all).", float64(p.Bytes), l, Label{"partition", p.Name})
	}
	e.counter("broadway_hub_publish_wait_seconds", "Cumulative time publishers waited to acquire the ring lock.", hs.PublishWait.Seconds(), l)
	e.counter("broadway_hub_oversized_total", "Update events dropped for exceeding the wire envelope limit.", float64(hs.Oversized), l)
	e.counter("broadway_hub_degraded_total", "Payloads stripped at publish for exceeding the hub cap.", float64(hs.Degraded), l)
	e.counter("broadway_hub_resets_total", "Hole announcements (mid-stream Resets) made.", float64(hs.Resets), l)
	e.counter("broadway_hub_resume_holes_total", "Reset hellos served to resuming subscribers.", float64(hs.ResumeHoles), l)
	e.counter("broadway_hub_slow_kills_total", "Subscribers terminated for not draining their stream.", float64(hs.SlowKills), l)
	e.counter("broadway_hub_filtered_total", "Update frames skipped by interest filtering.", float64(hs.Filtered), l)
	e.counter("broadway_hub_delta_frames_total", "Update frames delivered on the delta rung (base matched a held digest).", float64(hs.DeltaFrames), l)
	e.counter("broadway_hub_chunk_frames_total", "Updates delivered as a chunk set (body over the stream's payload cap), counted once per update.", float64(hs.ChunkFrames), l)
	e.counter("broadway_hub_duplicate_frames_total", "Updates written stripped because the stream already held the body (rung zero).", float64(hs.DuplicateFrames), l)
	e.gauge("broadway_hub_available", "1 while the endpoint accepts streams.", boolVal(hs.Available), l)
	e.gauge("broadway_hub_max_lag", "Largest per-subscriber lag behind the stream head.", float64(hs.MaxLag), l)
	lags := make([]float64, len(hs.Lags))
	for i, v := range hs.Lags {
		lags[i] = float64(v)
	}
	e.histogram("broadway_hub_subscriber_lag", "Per-subscriber lag behind the stream head, one observation per subscriber per scrape.", lags, l)
}

// writeOriginMetrics emits the origin's serving counters and its event
// hub under hub="origin".
func writeOriginMetrics(e *exposition, o *webserver.Origin) {
	os := o.Stats()
	e.gauge("broadway_origin_objects", "Hosted resources.", float64(os.Objects))
	e.counter("broadway_origin_polls_total", "Conditional or plain GETs served for hosted objects.", float64(os.Polls))
	e.counter("broadway_origin_not_modified_total", "304 responses served.", float64(os.NotModified))
	e.gauge("broadway_origin_push_enabled", "1 when the origin streams invalidation events.", boolVal(os.PushEnabled))
	writeHubMetrics(e, os.Hub, HubOrigin)
}

// serveMetrics renders the exposition for the configured components.
func (h *Handler) serveMetrics(w http.ResponseWriter, r *http.Request) {
	e := newExposition()
	if h.cfg.Proxy != nil {
		writeProxyMetrics(e, h.cfg.Proxy)
	}
	if h.cfg.Origin != nil {
		writeOriginMetrics(e, h.cfg.Origin)
	}
	var buf bytes.Buffer
	e.render(&buf)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	if r.Method != http.MethodHead {
		w.Write(buf.Bytes())
	}
}
