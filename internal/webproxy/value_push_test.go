package webproxy

import (
	"fmt"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"broadway/internal/core"
	"broadway/internal/httpx"
	"broadway/internal/push"
	"broadway/internal/webserver"
)

// This file tests the value-carrying push path of ISSUE 5: a pushed
// event carrying the object's new body is installed directly —
// digest-verified, byte-ledger-charged, group-triggering — with zero
// origin polls, and every way the payload can be unusable (digest
// mismatch, stripped payload, byte-budget refusal) degrades to the
// pushed confirmation poll without ever widening the staleness bound.

// newValuePushSetup wires a value-publishing origin behind a proxy with
// payload application enabled. TTR bounds are wide by default so any
// freshness observed inside a test provably came from the push path.
func newValuePushSetup(t *testing.T, cfg Config) *liveSetup {
	t.Helper()
	origin := webserver.NewOrigin(
		webserver.WithHistoryExtension(true),
		webserver.WithPushHeartbeat(25*time.Millisecond),
		webserver.WithPushValues(0),
	)
	originSrv := httptest.NewServer(origin)
	t.Cleanup(originSrv.Close)

	u, err := url.Parse(originSrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	pushURL, _ := url.Parse(originSrv.URL + "/events")
	cfg.Origin = u
	cfg.PushURL = pushURL
	cfg.PushValues = true
	if cfg.PushBackoffMin == 0 {
		cfg.PushBackoffMin = 5 * time.Millisecond
	}
	if cfg.PushBackoffMax == 0 {
		cfg.PushBackoffMax = 50 * time.Millisecond
	}
	if cfg.PushHeartbeatTimeout == 0 {
		cfg.PushHeartbeatTimeout = 200 * time.Millisecond
	}
	if cfg.Bounds == (core.TTRBounds{}) {
		cfg.Bounds = core.TTRBounds{Min: time.Minute, Max: time.Hour}
	}
	if cfg.DefaultDelta == 0 {
		cfg.DefaultDelta = time.Minute
	}
	px, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	px.Start()
	t.Cleanup(px.Close)
	proxySrv := httptest.NewServer(px)
	t.Cleanup(proxySrv.Close)
	return &liveSetup{origin: origin, originSrv: originSrv, proxy: px, proxySrv: proxySrv}
}

// TestValuePushInstallsBodyWithoutOriginPoll is the heart of the
// tentpole: after admission, updates reach the cache through the event
// payload alone — the origin sees no further request of any kind.
func TestValuePushInstallsBodyWithoutOriginPoll(t *testing.T) {
	s := newValuePushSetup(t, Config{})
	s.origin.Set("/quote", []byte("100.00\n"), "text/plain")
	s.origin.SetTolerances("/quote", httpx.Tolerances{ValueDelta: 0.25})
	waitPushConnected(t, s.proxy)
	s.get(t, "/quote")
	admissionPolls := s.origin.Polls()

	for rev := 1; rev <= 5; rev++ {
		s.origin.Set("/quote", []byte(fmt.Sprintf("10%d.50\n", rev)), "text/plain")
	}
	ok := waitFor(t, 3*time.Second, func() bool {
		b, _ := s.proxy.CachedBody("/quote")
		return string(b) == "105.50\n"
	})
	if !ok {
		b, _ := s.proxy.CachedBody("/quote")
		t.Fatalf("pushed value never installed: cached %q (push %+v)", b, s.proxy.PushStats())
	}
	if got := s.origin.Polls(); got != admissionPolls {
		t.Errorf("origin saw %d polls beyond the %d admission fetches; the payload path must cost zero",
			got-admissionPolls, admissionPolls)
	}
	st := s.proxy.PushStats()
	if st.ValueApplied == 0 {
		t.Errorf("no payload applications recorded: %+v", st)
	}
	if st.ValueFallbacks != 0 {
		t.Errorf("%d unexpected fallbacks on the clean path: %+v", st.ValueFallbacks, st)
	}
	os := s.proxy.ObjectStats("/quote")
	if os.Applied == 0 {
		t.Errorf("ObjectStats.Applied = 0: %+v", os)
	}
	// The installed value feeds the value-domain state: a Δv object's
	// cached value must track the pushed body.
	if b, _ := s.proxy.CachedBody("/quote"); strings.TrimSpace(string(b)) != "105.50" {
		t.Errorf("cached body %q", b)
	}
}

// TestValuePushDigestMismatchFallsBackToPoll: a corrupted payload (the
// digest does not cover the body) must never be installed — the proxy
// degrades to a pushed confirmation poll and serves what the origin
// actually holds.
func TestValuePushDigestMismatchFallsBackToPoll(t *testing.T) {
	s := newValuePushSetup(t, Config{})
	s.origin.Set("/page", []byte("genuine v1"), "")
	waitPushConnected(t, s.proxy)
	s.get(t, "/page")
	pollsBefore := s.origin.Polls()

	s.origin.InjectPushEvent(push.Event{
		Kind: push.KindUpdate, Key: "/page", ModTime: time.Now().Add(time.Hour),
		Body: []byte("forged body"), HasBody: true, Digest: "0123456789abcdef",
	})
	if !waitFor(t, 3*time.Second, func() bool { return s.proxy.PushStats().ValueFallbacks >= 1 }) {
		t.Fatalf("digest mismatch never fell back: %+v", s.proxy.PushStats())
	}
	if !waitFor(t, 3*time.Second, func() bool { return s.origin.Polls() > pollsBefore }) {
		t.Fatal("fallback never reached the origin")
	}
	b, _ := s.proxy.CachedBody("/page")
	if string(b) != "genuine v1" {
		t.Errorf("cache holds %q; the forged body must never be installed", b)
	}
	if st := s.proxy.PushStats(); st.ValueApplied != 0 {
		t.Errorf("forged payload counted as applied: %+v", st)
	}
}

// TestValuePushStrippedPayloadFallsBackToPoll: when the negotiated cap
// cannot carry the body, the hub degrades the frame to an invalidation
// and the proxy confirms by polling — the update is never lost and
// never stale beyond the pushed-poll path.
func TestValuePushStrippedPayloadFallsBackToPoll(t *testing.T) {
	s := newValuePushSetup(t, Config{PushPayloadCap: 64})
	s.origin.Set("/fat", []byte("small v1"), "")
	waitPushConnected(t, s.proxy)
	s.get(t, "/fat")

	big := strings.Repeat("B", 512) // over the proxy's 64-byte cap, under the origin's
	s.origin.Set("/fat", []byte(big), "")
	if !waitFor(t, 3*time.Second, func() bool {
		b, _ := s.proxy.CachedBody("/fat")
		return string(b) == big
	}) {
		t.Fatalf("stripped-payload update never confirmed: %+v", s.proxy.PushStats())
	}
	st := s.proxy.PushStats()
	if st.ValueFallbacks == 0 {
		t.Errorf("stripped payload not counted as a fallback: %+v", st)
	}
	if os := s.proxy.ObjectStats("/fat"); os.Pushed == 0 {
		t.Errorf("freshness did not come from a pushed poll: %+v", os)
	}

	// A body within the cap still rides the payload path afterwards.
	pollsBefore := s.origin.Polls()
	s.origin.Set("/fat", []byte("small v2"), "")
	if !waitFor(t, 3*time.Second, func() bool {
		b, _ := s.proxy.CachedBody("/fat")
		return string(b) == "small v2"
	}) {
		t.Fatal("in-cap update never installed")
	}
	if got := s.origin.Polls(); got != pollsBefore {
		t.Errorf("in-cap update cost %d polls, want 0", got-pollsBefore)
	}
}

// TestValuePushByteBudgetRefusal: a pushed body that alone overflows
// MaxBytes must not be installed (it would immediately evict itself);
// the pushed poll runs the established oversized-growth unwind instead.
func TestValuePushByteBudgetRefusal(t *testing.T) {
	s := newValuePushSetup(t, Config{MaxBytes: 2048})
	s.origin.Set("/obj", []byte("fits"), "")
	waitPushConnected(t, s.proxy)
	s.get(t, "/obj")

	s.origin.Set("/obj", []byte(strings.Repeat("x", 4096)), "")
	if !waitFor(t, 3*time.Second, func() bool { return s.proxy.PushStats().ValueFallbacks >= 1 }) {
		t.Fatalf("budget refusal never fell back: %+v", s.proxy.PushStats())
	}
	// The pushed poll fetched the grown body and ran the refresh-growth
	// rule: an object over the whole budget cannot stay resident.
	if !waitFor(t, 3*time.Second, func() bool { return !s.proxy.ObjectStats("/obj").Cached }) {
		t.Errorf("over-budget object still resident: %+v (cache %+v)",
			s.proxy.ObjectStats("/obj"), s.proxy.CacheStats())
	}
	if got := s.proxy.ResidentBytes(); got > 2048 {
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
	clk := newSimClock()
	s := newValuePushSetup(t, Config{
		Clock:             clk.Now,
		Mode:              core.TriggerAll,
		DefaultGroupDelta: time.Second,
	})
	s.origin.Set("/story", []byte("story v1"), "text/html")
	s.origin.Set("/photo", []byte("photo v1"), "image/png")
	for _, path := range []string{"/story", "/photo"} {
		s.origin.SetTolerances(path, httpx.Tolerances{Group: "news"})
	}
	waitPushConnected(t, s.proxy)
	s.get(t, "/story")
	s.get(t, photo)

	clk.AdvanceTo(clk.Now().Add(10 * time.Second)) // both validations now lie beyond δ
	s.origin.Set("/story", []byte("story v2"), "text/html")
	settlePush(t, s, clk)
	if st := s.proxy.ObjectStats("/story"); st.Applied != 1 {
		t.Fatalf("the story's update did not ride the payload path: %+v (push %+v)", st, s.proxy.PushStats())
	}
	if st := s.proxy.ObjectStats(photo); st.Triggered != 1 {
		t.Errorf("applied story update triggered the photo %d times, want once: %+v", st.Triggered, st)
	}
}

// TestTwoHopValuePushZeroConfirmationPolls: through a relaying parent,
// one origin message feeds the whole chain — the parent installs the
// payload, republishes it downstream, and the leaf installs it too;
// neither hop issues a confirmation poll.
func TestTwoHopValuePushZeroConfirmationPolls(t *testing.T) {
	origin := webserver.NewOrigin(
		webserver.WithHistoryExtension(true),
		webserver.WithPushHeartbeat(25*time.Millisecond),
		webserver.WithPushValues(0),
	)
	originSrv := httptest.NewServer(origin)
	t.Cleanup(originSrv.Close)
	originURL, _ := url.Parse(originSrv.URL)
	pushURL, _ := url.Parse(originSrv.URL + "/events")

	wide := Config{
		DefaultDelta:         time.Minute,
		Bounds:               core.TTRBounds{Min: time.Minute, Max: time.Hour},
		PushBackoffMin:       5 * time.Millisecond,
		PushBackoffMax:       50 * time.Millisecond,
		PushHeartbeatTimeout: 200 * time.Millisecond,
		PushValues:           true,
	}
	parentCfg := wide
	parentCfg.Origin = originURL
	parentCfg.PushURL = pushURL
	parentCfg.RelayEvents = true
	parentCfg.RelayHeartbeat = 25 * time.Millisecond
	parent, err := New(parentCfg)
	if err != nil {
		t.Fatal(err)
	}
	parent.Start()
	t.Cleanup(parent.Close)
	parentSrv := httptest.NewServer(parent)
	t.Cleanup(parentSrv.Close)

	leafCfg := wide
	leafCfg.Origin, _ = url.Parse(parentSrv.URL)
	leafCfg.PushURL, _ = url.Parse(parentSrv.URL + "/events")
	leaf, err := New(leafCfg)
	if err != nil {
		t.Fatal(err)
	}
	leaf.Start()
	t.Cleanup(leaf.Close)
	leafSrv := httptest.NewServer(leaf)
	t.Cleanup(leafSrv.Close)

	if !waitFor(t, 3*time.Second, func() bool {
		return parent.PushStats().Connected && leaf.PushStats().Connected
	}) {
		t.Fatal("chain never connected")
	}
	origin.Set("/quote", []byte("100.00\n"), "text/plain")
	rec := httptest.NewRecorder()
	leaf.ServeHTTP(rec, httptest.NewRequest("GET", "/quote", nil))
	if rec.Code != 200 {
		t.Fatalf("admission: %d", rec.Code)
	}
	admissionPolls := origin.Polls()

	origin.Set("/quote", []byte("101.25\n"), "text/plain")
	if !waitFor(t, 4*time.Second, func() bool {
		b, _ := leaf.CachedBody("/quote")
		return string(b) == "101.25\n"
	}) {
		t.Fatalf("payload never reached the leaf (parent %+v, relay %+v, leaf %+v)",
			parent.PushStats(), parent.RelayStats(), leaf.PushStats())
	}
	if got := origin.Polls(); got != admissionPolls {
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
	s := newValuePushSetup(t, Config{})
	s.origin.Set("/page", []byte("v1"), "")
	waitPushConnected(t, s.proxy)
	s.get(t, "/page")
	pollsBefore := s.origin.Polls()

	s.origin.Set("/page", []byte("v2"), "")
	if !waitFor(t, 3*time.Second, func() bool {
		b, _ := s.proxy.CachedBody("/page")
		return string(b) == "v2"
	}) {
		t.Fatal("update never installed")
	}
	appliedAfterFirst := s.proxy.PushStats().ValueApplied

	// Replay the exact same event (same modification instant).
	e := s.proxy.lookup("/page")
	e.mu.RLock()
	mod := e.lastMod
	e.mu.RUnlock()
	s.origin.InjectPushEvent(push.Event{
		Kind: push.KindUpdate, Key: "/page", ModTime: mod,
		Body: []byte("v2"), HasBody: true, Digest: push.DigestOf([]byte("v2")),
	})
	if !waitFor(t, 2*time.Second, func() bool {
		return s.proxy.PushStats().Events >= 2
	}) {
		t.Fatal("duplicate never processed")
	}
	// Give the worker a beat, then confirm it neither polled nor
	// re-counted the apply.
	time.Sleep(100 * time.Millisecond)
	if got := s.origin.Polls(); got != pollsBefore {
		t.Errorf("duplicate cost %d polls", got-pollsBefore)
	}
	st := s.proxy.PushStats()
	if st.ValueApplied != appliedAfterFirst {
		t.Errorf("duplicate re-counted as an application: %d -> %d", appliedAfterFirst, st.ValueApplied)
	}
	if st.ValueFallbacks != 0 {
		t.Errorf("duplicate counted as a fallback: %+v", st)
	}
}
