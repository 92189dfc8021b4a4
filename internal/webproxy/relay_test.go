package webproxy

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"broadway/internal/core"
	"broadway/internal/httpx"
	"broadway/internal/push"
	"broadway/internal/webserver"
)

// This file tests the proxy hierarchy: a parent proxy relaying
// invalidation events downstream (origin → parent → leaf), the
// conditional-GET face that lets a leaf revalidate against a parent, and
// the kill-the-middle chaos path where losing the parent's upstream
// propagates a mid-stream Reset to the leaves.

// chainTopology is an origin → parent → leaf hierarchy: the leaf's
// origin AND event stream are the parent, which relays.
func chainTopology(cfg Config) topology {
	return topology{hops: 2, push: true, cfg: cfg, origin: []webserver.Option{webserver.WithHistoryExtension(true)}}
}

// TestProxyAnswersConditionalGet: the upstream face a child proxy needs
// — a revalidation with If-Modified-Since at the cached Last-Modified
// must cost no body, and the origin's tolerance directives must ride
// the response either way.
func TestProxyAnswersConditionalGet(t *testing.T) {
	h := newHarness(t, topology{origin: []webserver.Option{webserver.WithHistoryExtension(true)}, cfg: Config{
		DefaultDelta: time.Minute,
		Bounds:       core.TTRBounds{Min: time.Minute, Max: time.Hour},
	}})
	px := h.leaf()
	h.origin.Set("/page", []byte("v1"), "")
	_, _, hdr := px.get("/page")
	lastMod := hdr.Get("Last-Modified")
	if lastMod == "" {
		t.Fatal("no Last-Modified on the cached response")
	}

	req := httptest.NewRequest(http.MethodGet, "/page", nil)
	req.Header.Set("If-Modified-Since", lastMod)
	code, _, hdr := px.do(req)
	if code != http.StatusNotModified {
		t.Fatalf("conditional GET = %d, want 304", code)
	}
	if got := hdr.Get("Last-Modified"); got != lastMod {
		t.Errorf("304 Last-Modified = %q, want %q", got, lastMod)
	}

	// An out-of-date validator still gets the full body.
	req.Header.Set("If-Modified-Since", h.clk.Now().Add(-24*time.Hour).UTC().Format(http.TimeFormat))
	if code, _, _ := px.do(req); code != http.StatusOK {
		t.Errorf("stale-validator GET = %d, want 200", code)
	}
}

// TestProxyForwardsToleranceDirectives: the origin's Cache-Control
// extension directives (Δ, group, δ) must reach a child through the
// parent, or the child would run default tolerances and no groups.
func TestProxyForwardsToleranceDirectives(t *testing.T) {
	h := newHarness(t, topology{})
	h.origin.Set("/obj", []byte("v1"), "")
	h.origin.SetTolerances("/obj", httpx.Tolerances{
		Delta: 30 * time.Second, Group: "g", GroupDelta: 10 * time.Second,
	})
	_, _, hdr := h.leaf().get("/obj")
	cc := hdr.Get("Cache-Control")
	if cc == "" {
		t.Fatal("no Cache-Control forwarded")
	}
	for _, want := range []string{"delta", "group"} {
		if !strings.Contains(cc, want) {
			t.Errorf("Cache-Control %q missing %s directive", cc, want)
		}
	}
}

// TestRelayPassThroughServesNonResidentKeys: an upstream event for an
// object the parent does not cache must still reach downstream
// subscribers — a leaf may well cache what its parent does not.
func TestRelayPassThroughServesNonResidentKeys(t *testing.T) {
	h := newHarness(t, chainTopology(Config{}))
	var mu sync.Mutex
	var got []push.Event
	h.watch(h.root(), push.SubscriberConfig{
		OnEvent: func(ev push.Event) {
			mu.Lock()
			got = append(got, ev)
			mu.Unlock()
		},
	})
	h.quiesce()
	if subs := h.root().relayHub().Subscribers; subs != 2 {
		t.Fatalf("%d relay subscribers, want the leaf and the watcher", subs)
	}

	h.origin.Set("/nobody-cached-this", []byte("v1"), "")
	h.quiesce()
	mu.Lock()
	defer mu.Unlock()
	for _, ev := range got {
		if ev.Key == "/nobody-cached-this" {
			return
		}
	}
	t.Fatalf("pass-through event never relayed (relay stats %+v)", h.root().RelayStats())
}

// TestTwoHopPushDeliversThroughParent: with TTR bounds so wide that
// polling could never observe the update, an origin update must reach
// the leaf's cache via origin hub → parent relay → leaf. The origin's
// events carry no payload, so the parent confirms the update by a
// pushed poll and relays the body that poll fetched, which the leaf
// installs without a request of its own.
func TestTwoHopPushDeliversThroughParent(t *testing.T) {
	h := newHarness(t, withStrippedEvents(chainTopology(Config{
		DefaultDelta: time.Minute,
		Bounds:       core.TTRBounds{Min: time.Minute, Max: time.Hour},
	})))
	parent, leaf := h.root(), h.leaf()
	h.origin.Set("/page", []byte("v1"), "")
	h.quiesce()
	if _, body, _ := leaf.get("/page"); body != "v1" {
		t.Fatalf("admitted body %q", body)
	}

	h.origin.Set("/page", []byte("v2"), "")
	h.quiesce()
	if b, _ := leaf.CachedBody("/page"); string(b) != "v2" {
		t.Fatalf("update never reached the leaf (parent push %+v, relay %+v, leaf push %+v)",
			parent.PushStats(), parent.RelayStats(), leaf.PushStats())
	}
	if st := parent.ObjectStats("/page"); st.Pushed == 0 || st.Applied != 0 {
		t.Errorf("parent freshness did not come from a pushed poll: %+v", st)
	}
	if st := leaf.ObjectStats("/page"); st.Applied == 0 || st.Pushed != 0 {
		t.Errorf("leaf did not install the body its parent's poll fetched: %+v", st)
	}
	if n := leaf.up.requestsFor("/page"); n != 1 {
		t.Errorf("leaf sent %d requests for /page, want its admission alone", n)
	}
	if rs := parent.RelayStats(); !rs.Enabled || rs.Hub.Seq == 0 {
		t.Errorf("relay hub never published: %+v", rs)
	}
}

// TestClosingRelayParentReleasesLeaves: a Close()d parent will never
// publish again, so its relay must not keep heartbeating children into
// believing their stretched schedules are still backed by a live
// channel — they must fall back to paper-mode polling.
func TestClosingRelayParentReleasesLeaves(t *testing.T) {
	h := newHarness(t, chainTopology(Config{
		PushStretch: 10,
		Bounds:      core.TTRBounds{Min: 50 * time.Millisecond, Max: 300 * time.Millisecond},
	}))
	h.origin.Set("/page", []byte("v1"), "")
	h.quiesce()
	if _, body, _ := h.leaf().get("/page"); body != "v1" {
		t.Fatalf("admitted body %q", body)
	}

	h.root().Close()
	h.quiesce()
	if st := h.leaf().PushStats(); st.Connected || (st.Fallbacks == 0 && st.Resets == 0) {
		t.Fatalf("leaf still believes the closed parent's channel is live: %+v", st)
	}
}

// TestKillTheMiddleDrivesLeafSweepWithoutDisconnect is the chaos path of
// the hierarchy: killing the parent's upstream stream mid-burst must
// propagate a mid-stream hello/Reset to the leaves — running their
// fallback reconciliation — while their connections to the parent stay
// up, and freshness must keep flowing on paper-mode bounds via the
// parent's own polling (the relay publishes what those polls install).
func TestKillTheMiddleDrivesLeafSweepWithoutDisconnect(t *testing.T) {
	const ttrMax = 300 * time.Millisecond
	h := newHarness(t, chainTopology(Config{
		PushStretch: 10,
		Bounds:      core.TTRBounds{Min: 50 * time.Millisecond, Max: ttrMax},
	}))
	parent, leaf := h.root(), h.leaf()
	h.origin.Set("/page", []byte("v1"), "")
	h.quiesce()
	if _, body, _ := leaf.get("/page"); body != "v1" {
		t.Fatalf("admitted body %q", body)
	}
	leafConnects := leaf.PushStats().Connects

	// Mid-burst: updates flowing while the middle loses its upstream.
	h.origin.Set("/page", []byte("v2"), "")
	h.origin.SetPushAvailable(false)
	h.quiesce()
	if st := parent.PushStats(); st.Fallbacks == 0 {
		t.Fatalf("parent never noticed its upstream died: %+v", st)
	}
	st := leaf.PushStats()
	if st.Resets == 0 {
		t.Fatalf("mid-stream Reset never reached the leaf (leaf push %+v)", st)
	}
	if st.Connects != leafConnects {
		t.Errorf("leaf reconnected (%d → %d connects); the Reset must ride the live stream",
			leafConnects, st.Connects)
	}
	if !st.Connected {
		t.Error("leaf channel to the parent should still be healthy")
	}

	// The parent is blind upstream but polls paper-mode; its confirmed
	// updates must keep flowing to the leaf through the relay. One full
	// grown TTR bounds the staleness.
	h.origin.Set("/page", []byte("v3"), "")
	h.advance(ttrMax)
	if b, _ := leaf.CachedBody("/page"); string(b) != "v3" {
		t.Fatalf("update during the parent's blind window never reached the leaf within %v (leaf %+v)",
			ttrMax, leaf.PushStats())
	}

	// Revive the origin's endpoint: the parent re-arms, and the relay
	// announces the resync hole to the leaf (gap unknown ⇒ children
	// must reconcile) — the leaf survives it connected.
	h.origin.SetPushAvailable(true)
	h.quiesce()
	if !parent.PushStats().Connected {
		t.Fatal("parent never re-armed")
	}
	h.origin.Set("/page", []byte("v4"), "")
	h.quiesce()
	if b, _ := leaf.CachedBody("/page"); string(b) != "v4" {
		t.Fatal("re-armed chain did not deliver")
	}
}
