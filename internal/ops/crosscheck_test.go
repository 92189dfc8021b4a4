package ops

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"
	"time"

	"broadway/internal/core"
	"broadway/internal/push"
	"broadway/internal/webproxy"
	"broadway/internal/webserver"
)

// This file holds the PR's acceptance criterion: EVERY field of
// CacheStats, UpstreamStatus, PushStats, RelayStats, OriginStats, and
// HubStats must be exported on /metrics under a stable name. The
// expectation tables below are the name contract; the reflection walk
// in crossCheckStruct fails the test the moment a stats struct grows a
// field that has no table entry, so the exposition can never silently
// fall behind the structs.

// seriesCheck is one scrape assertion derived from a struct field.
type seriesCheck struct {
	series string
	want   float64
}

// fieldExpectation maps one struct field to its scrape assertions.
// Nested holds a sub-struct's own table (HubStats inside RelayStats and
// OriginStats).
type fieldExpectation struct {
	checks []seriesCheck
	nested map[string]fieldExpectation
}

func one(name string, want float64, labels ...Label) fieldExpectation {
	return fieldExpectation{checks: []seriesCheck{{SeriesKey(name, labels...), want}}}
}

// crossCheckStruct walks v's exported fields: each must have a table
// entry, and each entry's assertions must hold in the scrape.
func crossCheckStruct(t *testing.T, sc *Scrape, structName string, v any, exp map[string]fieldExpectation) {
	t.Helper()
	rv := reflect.ValueOf(v)
	rt := rv.Type()
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		fe, ok := exp[name]
		if !ok {
			t.Errorf("%s.%s has no /metrics mapping — new stats fields must be exported (see internal/ops/metrics.go)", structName, name)
			continue
		}
		if fe.nested != nil {
			crossCheckStruct(t, sc, structName+"."+name, rv.Field(i).Interface(), fe.nested)
			continue
		}
		for _, c := range fe.checks {
			got, present := sc.Values[c.series]
			if !present {
				t.Errorf("%s.%s: series %s missing from scrape", structName, name, c.series)
				continue
			}
			if got != c.want {
				t.Errorf("%s.%s: %s = %v, scrape disagrees with struct value %v", structName, name, c.series, got, c.want)
			}
		}
	}
}

func hubExpectations(hs push.HubStats, which string) map[string]fieldExpectation {
	l := Label{"hub", which}
	var lagSum float64
	for _, v := range hs.Lags {
		lagSum += float64(v)
	}
	// Every resident partition must surface its byte share under its own
	// partition label, alongside the partition-count gauge.
	partChecks := []seriesCheck{
		{SeriesKey("broadway_hub_ring_partitions", l), float64(len(hs.Partitions))},
	}
	for _, p := range hs.Partitions {
		partChecks = append(partChecks, seriesCheck{
			SeriesKey("broadway_hub_ring_bytes", l, Label{"partition", p.Name}), float64(p.Bytes)})
	}
	return map[string]fieldExpectation{
		"Seq":             one("broadway_hub_seq", float64(hs.Seq), l),
		"Subscribers":     one("broadway_hub_subscribers", float64(hs.Subscribers), l),
		"ActiveStreams":   one("broadway_hub_active_streams", float64(hs.ActiveStreams), l),
		"ReplayLen":       one("broadway_hub_replay_events", float64(hs.ReplayLen), l),
		"ReplayCap":       one("broadway_hub_replay_events_cap", float64(hs.ReplayCap), l),
		"ReplayBytes":     one("broadway_hub_replay_bytes", float64(hs.ReplayBytes), l),
		"ReplayByteCap":   one("broadway_hub_replay_bytes_cap", float64(hs.ReplayByteCap), l),
		"Partitions":      {checks: partChecks},
		"PublishWait":     one("broadway_hub_publish_wait_seconds", hs.PublishWait.Seconds(), l),
		"Oversized":       one("broadway_hub_oversized_total", float64(hs.Oversized), l),
		"Degraded":        one("broadway_hub_degraded_total", float64(hs.Degraded), l),
		"Resets":          one("broadway_hub_resets_total", float64(hs.Resets), l),
		"ResumeHoles":     one("broadway_hub_resume_holes_total", float64(hs.ResumeHoles), l),
		"SlowKills":       one("broadway_hub_slow_kills_total", float64(hs.SlowKills), l),
		"Filtered":        one("broadway_hub_filtered_total", float64(hs.Filtered), l),
		"DeltaFrames":     one("broadway_hub_delta_frames_total", float64(hs.DeltaFrames), l),
		"ChunkFrames":     one("broadway_hub_chunk_frames_total", float64(hs.ChunkFrames), l),
		"DuplicateFrames": one("broadway_hub_duplicate_frames_total", float64(hs.DuplicateFrames), l),
		"Available":       one("broadway_hub_available", boolVal(hs.Available), l),
		"MaxLag":          one("broadway_hub_max_lag", float64(hs.MaxLag), l),
		"Lags": {checks: []seriesCheck{
			{SeriesKey("broadway_hub_subscriber_lag_count", l), float64(len(hs.Lags))},
			{SeriesKey("broadway_hub_subscriber_lag_sum", l), lagSum},
		}},
	}
}

func proxyExpectations(cs webproxy.CacheStats, us webproxy.UpstreamStatus, ps webproxy.PushStats, rs webproxy.RelayStats) (cache, upstream, pushExp, relay map[string]fieldExpectation) {
	cache = map[string]fieldExpectation{
		"Hits":            one("broadway_cache_hits_total", float64(cs.Hits)),
		"Misses":          one("broadway_cache_misses_total", float64(cs.Misses)),
		"Evictions":       one("broadway_cache_evictions_total", float64(cs.Evictions)),
		"Capped":          one("broadway_cache_capped_total", float64(cs.Capped)),
		"ResidentObjects": one("broadway_cache_resident_objects", float64(cs.ResidentObjects)),
		"ResidentBytes":   one("broadway_cache_resident_bytes", float64(cs.ResidentBytes)),
		"RegularPolls":    one("broadway_polls_total", float64(cs.RegularPolls), Label{"kind", "regular"}),
		"TriggeredPolls":  one("broadway_polls_total", float64(cs.TriggeredPolls), Label{"kind", "triggered"}),
		"PushedPolls":     one("broadway_polls_total", float64(cs.PushedPolls), Label{"kind", "pushed"}),
		"UpstreamErrors":  one("broadway_upstream_errors_total", float64(cs.UpstreamErrors)),
		// The CacheStats.Push* fields read the same atomics as PushStats;
		// they share one series each rather than being exported twice.
		"PushConnected": one("broadway_push_connected", boolVal(cs.PushConnected)),
		"PushEvents":    one("broadway_push_events_total", float64(cs.PushEvents)),
		"PushPolls":     one("broadway_push_polls_total", float64(cs.PushPolls)),
		"PushFallbacks": one("broadway_push_fallbacks_total", float64(cs.PushFallbacks)),

		"ToleranceOverrides": one("broadway_cache_tolerance_overrides_total", float64(cs.ToleranceOverrides)),
	}
	upstream = map[string]fieldExpectation{
		"Errors": one("broadway_upstream_errors_total", float64(us.Errors)),
		// The error string is operator detail for /healthz and
		// /admin/stats; a metric label would explode cardinality.
		"LastError":   {checks: nil},
		"LastErrorAt": one("broadway_upstream_last_error_timestamp_seconds", timestampSeconds(us.LastErrorAt)),
		"LastOKAt":    one("broadway_upstream_last_ok_timestamp_seconds", timestampSeconds(us.LastOKAt)),
	}
	pushExp = map[string]fieldExpectation{
		"Enabled":          one("broadway_push_enabled", boolVal(ps.Enabled)),
		"Connected":        one("broadway_push_connected", boolVal(ps.Connected)),
		"LeaseTerm":        one("broadway_push_lease_term_seconds", ps.LeaseTerm.Seconds()),
		"Events":           one("broadway_push_events_total", float64(ps.Events)),
		"Polls":            one("broadway_push_polls_total", float64(ps.Polls)),
		"Dropped":          one("broadway_push_dropped_total", float64(ps.Dropped)),
		"ValueApplied":     one("broadway_push_value_applied_total", float64(ps.ValueApplied)),
		"ValueFallbacks":   one("broadway_push_value_fallbacks_total", float64(ps.ValueFallbacks)),
		"Duplicates":       one("broadway_push_duplicates_total", float64(ps.Duplicates)),
		"DeltaApplied":     one("broadway_push_delta_applied_total", float64(ps.DeltaApplied)),
		"DeltaBaseMisses":  one("broadway_push_delta_base_misses_total", float64(ps.DeltaBaseMisses)),
		"DeltaRebased":     one("broadway_push_delta_rebased_total", float64(ps.DeltaRebased)),
		"DiskApplied":      one("broadway_push_disk_applied_total", float64(ps.DiskApplied)),
		"ChunksAssembled":  one("broadway_push_chunks_assembled_total", float64(ps.ChunksAssembled)),
		"ChunksBroken":     one("broadway_push_chunks_broken_total", float64(ps.ChunksBroken)),
		"Fallbacks":        one("broadway_push_fallbacks_total", float64(ps.Fallbacks)),
		"Connects":         one("broadway_push_connects_total", float64(ps.Connects)),
		"Bounces":          one("broadway_push_bounces_total", float64(ps.Bounces)),
		"Resets":           one("broadway_push_stream_resets_total", float64(ps.Resets)),
		"SkippedFrames":    one("broadway_push_skipped_frames_total", float64(ps.SkippedFrames)),
		"LastSeq":          one("broadway_push_last_seq", float64(ps.LastSeq)),
		"LastFrameAt":      one("broadway_push_last_frame_timestamp_seconds", timestampSeconds(ps.LastFrameAt)),
		"HeartbeatTimeout": one("broadway_push_heartbeat_timeout_seconds", ps.HeartbeatTimeout.Seconds()),
	}
	relay = map[string]fieldExpectation{
		"Enabled": one("broadway_relay_enabled", boolVal(rs.Enabled)),
		"Path":    one("broadway_relay_info", 1, Label{"path", rs.Path}),
		"Hub":     {nested: hubExpectations(rs.Hub, HubRelay)},
	}
	return cache, upstream, pushExp, relay
}

func diskExpectations(ds webproxy.DiskStats) map[string]fieldExpectation {
	return map[string]fieldExpectation{
		"Enabled":       one("broadway_disk_enabled", boolVal(ds.Enabled)),
		"Records":       one("broadway_disk_records", float64(ds.Records)),
		"Bytes":         one("broadway_disk_bytes", float64(ds.Bytes)),
		"PendingWrites": one("broadway_disk_pending_writes", float64(ds.PendingWrites)),
		"Writes":        one("broadway_disk_writes_total", float64(ds.Writes)),
		"WriteErrors":   one("broadway_disk_write_errors_total", float64(ds.WriteErrors)),
		"Deletes":       one("broadway_disk_deletes_total", float64(ds.Deletes)),
		"Evictions":     one("broadway_disk_evictions_total", float64(ds.Evictions)),
		"Demotions":     one("broadway_disk_demotions_total", float64(ds.Demotions)),
		"Promotions":    one("broadway_disk_promotions_total", float64(ds.Promotions)),
		"Rehydrated":    one("broadway_disk_rehydrated_total", float64(ds.Rehydrated)),
		"GraceServes":   one("broadway_disk_grace_serves_total", float64(ds.GraceServes)),
	}
}

func originExpectations(os webserver.OriginStats) map[string]fieldExpectation {
	return map[string]fieldExpectation{
		"Objects":     one("broadway_origin_objects", float64(os.Objects)),
		"Polls":       one("broadway_origin_polls_total", float64(os.Polls)),
		"NotModified": one("broadway_origin_not_modified_total", float64(os.NotModified)),
		"PushEnabled": one("broadway_origin_push_enabled", boolVal(os.PushEnabled)),
		"Hub":         {nested: hubExpectations(os.Hub, HubOrigin)},
	}
}

// TestMetricsCrossCheckAgainstStructs runs a live origin → root → mid →
// leaf hierarchy through churn, a kill/revive cycle, and more churn,
// then freezes each node (closing leafward-first so upstream hubs
// quiesce) and cross-checks every node's scrape against its in-process
// stats structs, field by field.
func TestMetricsCrossCheckAgainstStructs(t *testing.T) {
	origin := webserver.NewOrigin(
		webserver.WithHistoryExtension(true),
		webserver.WithPushHeartbeat(25*time.Millisecond),
	)
	originSrv := httptest.NewServer(origin)
	t.Cleanup(originSrv.Close)
	origin.Set("/a", []byte("a1"), "")
	origin.Set("/b", []byte("b1"), "")

	newNode := func(upstream string, relay bool) (*webproxy.Proxy, *httptest.Server) {
		t.Helper()
		up, err := url.Parse(upstream)
		if err != nil {
			t.Fatal(err)
		}
		pushURL, _ := url.Parse(upstream + "/events")
		cfg := webproxy.Config{
			Origin:               up,
			PushURL:              pushURL,
			PushBackoffMin:       5 * time.Millisecond,
			PushBackoffMax:       50 * time.Millisecond,
			PushHeartbeatTimeout: 200 * time.Millisecond,
			Bounds:               core.TTRBounds{Min: 50 * time.Millisecond, Max: 400 * time.Millisecond},
			DefaultDelta:         50 * time.Millisecond,
			RelayEvents:          relay,
			RelayHeartbeat:       25 * time.Millisecond,
		}
		px, err := webproxy.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		px.Start()
		srv := httptest.NewServer(px)
		t.Cleanup(srv.Close)
		return px, srv
	}
	root, rootSrv := newNode(originSrv.URL, true)
	mid, midSrv := newNode(rootSrv.URL, true)
	leaf, leafSrv := newNode(midSrv.URL, false)
	for _, px := range []*webproxy.Proxy{root, mid, leaf} {
		if !waitFor(t, 3*time.Second, func() bool { return px.PushStats().Connected }) {
			t.Fatal("hierarchy never connected")
		}
	}

	get := func(srv *httptest.Server, path string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// Phase 1: warm the whole chain and churn so events flow end to end.
	get(leafSrv, "/a")
	get(leafSrv, "/b")
	get(leafSrv, "/a") // a leaf hit
	origin.Set("/a", []byte("a2"), "")
	waitFor(t, 3*time.Second, func() bool { return leaf.PushStats().Events >= 1 })

	// Phase 2: kill and revive the origin's event endpoint; the outage
	// cascades down and every node reconnects on revival.
	origin.SetPushAvailable(false)
	waitFor(t, 3*time.Second, func() bool { return !root.PushStats().Connected })
	origin.SetPushAvailable(true)
	for _, px := range []*webproxy.Proxy{root, mid, leaf} {
		if !waitFor(t, 5*time.Second, func() bool { return px.PushStats().Connected }) {
			t.Fatal("hierarchy never reconnected after revive")
		}
	}
	origin.Set("/b", []byte("b2"), "")
	waitFor(t, 3*time.Second, func() bool { return leaf.PushStats().Events >= 2 })

	// Freeze leafward-first: closing a node ends its upstream stream, so
	// by the time a node is scraped nothing is mutating its stats. (A
	// live node's heartbeats advance LastFrameAt between the struct
	// snapshot and the scrape; frozen nodes make the comparison exact.)
	leaf.Close()
	if !waitFor(t, 3*time.Second, func() bool {
		hs := mid.RelayStats().Hub
		return hs.Subscribers == 0 && hs.ActiveStreams == 0
	}) {
		t.Fatal("mid relay hub never quiesced after leaf close")
	}
	mid.Close()
	if !waitFor(t, 3*time.Second, func() bool {
		hs := root.RelayStats().Hub
		return hs.Subscribers == 0 && hs.ActiveStreams == 0
	}) {
		t.Fatal("root relay hub never quiesced after mid close")
	}
	root.Close()
	if !waitFor(t, 3*time.Second, func() bool {
		hs := origin.Stats().Hub
		return hs.Subscribers == 0 && hs.ActiveStreams == 0
	}) {
		t.Fatal("origin hub never quiesced after root close")
	}

	scrapeHandler := func(h *Handler) *Scrape {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/metrics = %d", rec.Code)
		}
		sc, err := ParseExposition(rec.Body)
		if err != nil {
			t.Fatalf("scrape unparseable: %v", err)
		}
		return sc
	}

	for _, node := range []struct {
		name string
		px   *webproxy.Proxy
	}{{"root", root}, {"mid", mid}, {"leaf", leaf}} {
		h, err := NewHandler(Config{Proxy: node.px})
		if err != nil {
			t.Fatal(err)
		}
		cs, us, ps, rs := node.px.CacheStats(), node.px.UpstreamStatus(), node.px.PushStats(), node.px.RelayStats()
		ds := node.px.DiskStats()
		sc := scrapeHandler(h)
		cacheExp, upExp, pushExp, relayExp := proxyExpectations(cs, us, ps, rs)
		crossCheckStruct(t, sc, node.name+".CacheStats", cs, cacheExp)
		crossCheckStruct(t, sc, node.name+".UpstreamStatus", us, upExp)
		crossCheckStruct(t, sc, node.name+".PushStats", ps, pushExp)
		crossCheckStruct(t, sc, node.name+".RelayStats", rs, relayExp)
		crossCheckStruct(t, sc, node.name+".DiskStats", ds, diskExpectations(ds))
	}

	oh, err := NewHandler(Config{Origin: origin})
	if err != nil {
		t.Fatal(err)
	}
	os := origin.Stats()
	sc := scrapeHandler(oh)
	crossCheckStruct(t, sc, "origin.OriginStats", os, originExpectations(os))

	// The run must actually have exercised the interesting paths, or the
	// cross-check proves less than it claims.
	// The root is the node that lost its upstream and fell back; the
	// leaf's own stream (to mid) stayed up, so it sees the outage as
	// relayed events, not a disconnect.
	if leaf.PushStats().Events < 2 || root.PushStats().Fallbacks < 1 {
		t.Errorf("leaf Events=%d root Fallbacks=%d; the kill/revive run did not exercise the chain",
			leaf.PushStats().Events, root.PushStats().Fallbacks)
	}
	if root.CacheStats().Misses == 0 || root.CacheStats().UpstreamErrors != 0 {
		t.Errorf("root stats %+v look untouched", root.CacheStats())
	}
}
