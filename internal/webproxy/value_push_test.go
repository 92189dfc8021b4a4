package webproxy

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"broadway/internal/core"
	"broadway/internal/httpx"
	"broadway/internal/push"
	"broadway/internal/webserver"
)

// This file tests the value-carrying push path: a pushed
// event carrying the object's new body is installed directly —
// digest-verified, byte-ledger-charged, group-triggering — with zero
// origin polls, and every way the payload can be unusable (digest
// mismatch, stripped payload, byte-budget refusal) degrades to the
// pushed confirmation poll without ever widening the staleness bound.

// valuePushTopology is one proxy applying pushed payloads behind a
// value-publishing origin (history extension on). TTR bounds are wide
// by default, so any freshness observed inside a test provably came from
// the push path.
func valuePushTopology(cfg Config) topology {
	cfg.PushValues = true
	if cfg.Bounds == (core.TTRBounds{}) {
		cfg.Bounds = core.TTRBounds{Min: time.Minute, Max: time.Hour}
	}
	return topology{push: true, cfg: cfg, origin: []webserver.Option{
		webserver.WithHistoryExtension(true), webserver.WithPushValues(0),
	}}
}

// TestValuePushInstallsBodyWithoutOriginPoll is the heart of value
// push: after admission, updates reach the cache through the event
// payload alone — the origin sees no further request of any kind.
func TestValuePushInstallsBodyWithoutOriginPoll(t *testing.T) {
	h := newHarness(t, valuePushTopology(Config{}))
	px := h.leaf()
	h.origin.Set("/quote", []byte("100.00\n"), "text/plain")
	h.origin.SetTolerances("/quote", httpx.Tolerances{ValueDelta: 0.25})
	h.quiesce()
	px.get("/quote")
	admissionPolls := h.origin.Stats().Polls

	for rev := 1; rev <= 5; rev++ {
		h.origin.Set("/quote", []byte(fmt.Sprintf("10%d.50\n", rev)), "text/plain")
	}
	h.quiesce()
	if b, _ := px.CachedBody("/quote"); string(b) != "105.50\n" {
		t.Fatalf("pushed value never installed: cached %q (push %+v)", b, px.PushStats())
	}
	if got := h.origin.Stats().Polls; got != admissionPolls {
		t.Errorf("origin saw %d polls beyond the %d admission fetches; the payload path must cost zero",
			got-admissionPolls, admissionPolls)
	}
	st := px.PushStats()
	if st.ValueApplied == 0 {
		t.Errorf("no payload applications recorded: %+v", st)
	}
	if st.ValueFallbacks != 0 {
		t.Errorf("%d unexpected fallbacks on the clean path: %+v", st.ValueFallbacks, st)
	}
	if os := px.ObjectStats("/quote"); os.Applied == 0 {
		t.Errorf("ObjectStats.Applied = 0: %+v", os)
	}
}

// TestValuePushDigestMismatchFallsBackToPoll: a corrupted payload (the
// digest does not cover the body) must never be installed — the proxy
// degrades to a pushed confirmation poll and serves what the origin
// actually holds.
func TestValuePushDigestMismatchFallsBackToPoll(t *testing.T) {
	h := newHarness(t, valuePushTopology(Config{}))
	px := h.leaf()
	h.origin.Set("/page", []byte("genuine v1"), "")
	h.quiesce()
	px.get("/page")
	pollsBefore := h.origin.Stats().Polls

	h.origin.InjectPushEvent(push.Event{
		Kind: push.KindUpdate, Key: "/page", ModTime: h.clk.Now().Add(time.Hour),
		Body: []byte("forged body"), HasBody: true, Digest: "0123456789abcdef",
	})
	h.quiesce()
	if st := px.PushStats(); st.ValueFallbacks != 1 || st.ValueApplied != 0 {
		t.Fatalf("digest mismatch did not fall back alone: %+v", st)
	}
	if got := h.origin.Stats().Polls; got != pollsBefore+1 {
		t.Errorf("the fallback cost %d polls, want one", got-pollsBefore)
	}
	if b, _ := px.CachedBody("/page"); string(b) != "genuine v1" {
		t.Errorf("cache holds %q; the forged body must never be installed", b)
	}
}

// TestValuePushStrippedPayloadFallsBackToPoll: when the negotiated cap
// cannot carry the body, the hub degrades the frame to an invalidation
// and the proxy confirms by polling — the update is never lost and
// never stale beyond the pushed-poll path.
func TestValuePushStrippedPayloadFallsBackToPoll(t *testing.T) {
	tp := valuePushTopology(Config{})
	tp.origin = []webserver.Option{webserver.WithHistoryExtension(true), webserver.WithPushValues(push.MaxPayloadCap)}
	h := newHarness(t, tp)
	px := h.leaf()
	h.origin.Set("/fat", []byte("small v1"), "")
	h.quiesce()
	px.get("/fat")

	// Over the proxy's push.DefaultPayloadCap, under the origin's cap.
	big := strings.Repeat("B", push.DefaultPayloadCap+1024)
	h.origin.Set("/fat", []byte(big), "")
	h.quiesce()
	if b, _ := px.CachedBody("/fat"); string(b) != big {
		t.Fatalf("stripped-payload update never confirmed: %+v", px.PushStats())
	}
	if st := px.PushStats(); st.ValueFallbacks == 0 {
		t.Errorf("stripped payload not counted as a fallback: %+v", st)
	}
	if os := px.ObjectStats("/fat"); os.Pushed == 0 {
		t.Errorf("freshness did not come from a pushed poll: %+v", os)
	}

	// A body within the cap still rides the payload path afterwards.
	pollsBefore := h.origin.Stats().Polls
	h.origin.Set("/fat", []byte("small v2"), "")
	h.quiesce()
	if b, _ := px.CachedBody("/fat"); string(b) != "small v2" {
		t.Fatalf("in-cap update never installed: %q", b)
	}
	if got := h.origin.Stats().Polls; got != pollsBefore {
		t.Errorf("in-cap update cost %d polls, want 0", got-pollsBefore)
	}
}

// TestValuePushByteBudgetRefusal: a pushed body that alone overflows
// MaxBytes must not be installed (it would immediately evict itself);
// the pushed poll runs the established oversized-growth unwind instead.
func TestValuePushByteBudgetRefusal(t *testing.T) {
	h := newHarness(t, valuePushTopology(Config{MaxBytes: 2048}))
	px := h.leaf()
	h.origin.Set("/obj", []byte("fits"), "")
	h.quiesce()
	px.get("/obj")

	h.origin.Set("/obj", []byte(strings.Repeat("x", 4096)), "")
	h.quiesce()
	if st := px.PushStats(); st.ValueFallbacks != 1 {
		t.Fatalf("budget refusal never fell back: %+v", st)
	}
	// The pushed poll fetched the grown body and ran the refresh-growth
	// rule: an object over the whole budget cannot stay resident.
	if px.ObjectStats("/obj").Cached {
		t.Errorf("over-budget object still resident: %+v (cache %+v)", px.ObjectStats("/obj"), px.CacheStats())
	}
	if got := px.CacheStats().ResidentBytes; got > 2048 {
		t.Errorf("ledger over budget after the unwind: %d", got)
	}
}

// TestValuePushAppliedUpdateTriggersGroup: an update learned from a
// payload imposes the same §3.2 mutual obligation as one learned by
// polling — a group member no lease carries (its key has a query, which
// no event can announce) gets triggered even though no poll ran for the
// updated object itself.
func TestValuePushAppliedUpdateTriggersGroup(t *testing.T) {
	const photo = "/photo?size=full"
	h := newHarness(t, valuePushTopology(Config{
		Mode:              core.TriggerAll,
		DefaultGroupDelta: time.Second,
	}))
	px := h.leaf()
	h.origin.Set("/story", []byte("story v1"), "text/html")
	h.origin.Set("/photo", []byte("photo v1"), "image/png")
	for _, path := range []string{"/story", "/photo"} {
		h.origin.SetTolerances(path, httpx.Tolerances{Group: "news"})
	}
	h.quiesce()
	px.get("/story")
	px.get(photo)

	h.advance(10 * time.Second) // both validations now lie beyond δ
	h.origin.Set("/story", []byte("story v2"), "text/html")
	h.quiesce()
	if st := px.ObjectStats("/story"); st.Applied != 1 {
		t.Fatalf("the story's update did not ride the payload path: %+v (push %+v)", st, px.PushStats())
	}
	if st := px.ObjectStats(photo); st.Triggered != 1 {
		t.Errorf("applied story update triggered the photo %d times, want once: %+v", st.Triggered, st)
	}
}

// TestTwoHopValuePushZeroConfirmationPolls: through a relaying parent,
// one origin message feeds the whole chain — the parent installs the
// payload, republishes it downstream, and the leaf installs it too;
// neither hop issues a confirmation poll.
func TestTwoHopValuePushZeroConfirmationPolls(t *testing.T) {
	tp := valuePushTopology(Config{})
	tp.hops = 2
	h := newHarness(t, tp)
	parent, leaf := h.root(), h.leaf()
	h.origin.Set("/quote", []byte("100.00\n"), "text/plain")
	h.quiesce()
	if code, _, _ := leaf.get("/quote"); code != 200 {
		t.Fatalf("admission: %d", code)
	}
	admissionPolls := h.origin.Stats().Polls

	h.origin.Set("/quote", []byte("101.25\n"), "text/plain")
	h.quiesce()
	if b, _ := leaf.CachedBody("/quote"); string(b) != "101.25\n" {
		t.Fatalf("payload never reached the leaf (parent %+v, relay %+v, leaf %+v)",
			parent.PushStats(), parent.RelayStats(), leaf.PushStats())
	}
	if got := h.origin.Stats().Polls; got != admissionPolls {
		t.Errorf("origin saw %d polls beyond admission; the chain must cost zero", got-admissionPolls)
	}
	if st := parent.ObjectStats("/quote"); st.Applied == 0 || st.Pushed != 0 {
		t.Errorf("parent did not install via payload: %+v", st)
	}
	if st := leaf.ObjectStats("/quote"); st.Applied == 0 || st.Pushed != 0 {
		t.Errorf("leaf did not install via payload: %+v", st)
	}
	if fb := leaf.PushStats().ValueFallbacks; fb != 0 {
		t.Errorf("leaf fell back %d times on the clean path", fb)
	}
}

// TestValuePushDuplicateEventsAreRecognized: at-least-once delivery plus
// the relay's pass-through/confirmation pair means the same update can
// arrive more than once; a duplicate must cost neither a poll nor a
// re-install.
func TestValuePushDuplicateEventsAreRecognized(t *testing.T) {
	h := newHarness(t, valuePushTopology(Config{}))
	px := h.leaf()
	h.origin.Set("/page", []byte("v1"), "")
	h.quiesce()
	px.get("/page")
	pollsBefore := h.origin.Stats().Polls

	h.origin.Set("/page", []byte("v2"), "")
	h.quiesce()
	if b, _ := px.CachedBody("/page"); string(b) != "v2" {
		t.Fatalf("update never installed: %q", b)
	}
	first := px.PushStats()

	// Replay the exact same event (same modification instant).
	e := px.lookup("/page")
	e.mu.RLock()
	mod := e.lastMod
	e.mu.RUnlock()
	h.origin.InjectPushEvent(push.Event{
		Kind: push.KindUpdate, Key: "/page", ModTime: mod,
		Body: []byte("v2"), HasBody: true, Digest: push.DigestOf([]byte("v2")),
	})
	h.quiesce()
	st := px.PushStats()
	if st.Events != first.Events+1 {
		t.Fatalf("duplicate never processed: %+v", st)
	}
	if got := h.origin.Stats().Polls; got != pollsBefore {
		t.Errorf("duplicate cost %d polls", got-pollsBefore)
	}
	if st.ValueApplied != first.ValueApplied {
		t.Errorf("duplicate re-counted as an application: %d -> %d", first.ValueApplied, st.ValueApplied)
	}
	if st.ValueFallbacks != 0 {
		t.Errorf("duplicate counted as a fallback: %+v", st)
	}
}

// TestHeldDigestsSkipUnadvertisableBeforeCap: the held-digest
// advertisement is capped at heldAdvertiseMax by body size, but the cap
// is taken over entries that can be advertised. Query-keyed residents are
// unpushable (events are path-granular), so however large and numerous
// they are, they must not crowd the one pushable key out of the list.
func TestHeldDigestsSkipUnadvertisableBeforeCap(t *testing.T) {
	h := newHarness(t, valuePushTopology(Config{}))
	px := h.leaf()
	h.origin.Set("/big", []byte(strings.Repeat("b", 4096)), "")
	h.origin.Set("/small", []byte("s"), "")
	h.quiesce()
	for i := 0; i < heldAdvertiseMax+8; i++ {
		px.get(fmt.Sprintf("/big?i=%d", i))
	}
	px.get("/small")
	h.quiesce()
	held := px.heldDigests()
	found := false
	for _, hd := range held {
		if strings.Contains(hd.Key, "?") {
			t.Errorf("unpushable %s advertised as held", hd.Key)
		}
		found = found || hd.Key == "/small"
	}
	if !found {
		t.Fatalf("pushable /small missing from the %d held digests advertised", len(held))
	}
}
