package webproxy

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"broadway/internal/core"
	"broadway/internal/httpx"
	"broadway/internal/push"
)

// This file tests the lease's re-arm: a pushed install on a carried key —
// a verified payload, or a pushed poll's answer — is a validation, so it
// moves the key's audit to a lease term after the evidence arrived. The
// paper-mode instant and the policy stay where the last regular poll left
// them, and value frames carry the object's Cache-Control, so a key the
// channel keeps busy learns a tolerance change from its next update.

// rearmConfig is a lease of L = 32 s with a one-second audit grid.
func rearmConfig() Config {
	return Config{
		PushStretch:  4,
		DefaultDelta: time.Second,
		Bounds:       core.TTRBounds{Min: time.Second, Max: 8 * time.Second},
	}
}

// rearmCases are the two rungs a pushed install arrives by: a verified
// payload, which costs no upstream request, and an invalidation (the
// stripped frame a degraded rung leaves), whose pushed poll costs one.
var rearmCases = []struct {
	name  string
	tp    func() topology
	polls int // upstream requests per push
}{
	{"value", func() topology { return valuePushTopology(rearmConfig()) }, 0},
	{"invalidation", func() topology { return withStrippedEvents(pushTopology(rearmConfig())) }, 1},
}

// pushEvery admits key, then updates it at the origin n times, a quarter
// term apart from the admission on, and leaves the clock a quarter term
// past the last update. It returns the upstream requests the admission
// made, and the instants of the admission and of the last update.
func pushEvery(t *testing.T, h *harness, key string, n int) (admitted int, start, last time.Time) {
	t.Helper()
	px := h.leaf()
	h.origin.Set(key, []byte("v0"), "")
	h.quiesce()
	px.get(key)
	admitted, start = px.up.requestsFor(key), h.clk.Now()
	for i := 1; i <= n; i++ {
		last = h.clk.Now()
		h.origin.Set(key, []byte(fmt.Sprintf("v%d", i)), "")
		h.quiesce()
		h.advance(px.lease.term / 4)
	}
	if b, _ := px.CachedBody(key); string(b) != fmt.Sprintf("v%d", n) {
		t.Fatalf("cached %q, want the last push", b)
	}
	return admitted, start, last
}

// TestPushedKeySendsNoAudit: a key pushed more often than L sends no
// audit upstream while the channel is healthy, whichever rung carries its
// updates.
func TestPushedKeySendsNoAudit(t *testing.T) {
	for _, c := range rearmCases {
		t.Run(c.name, func(t *testing.T) {
			h := newHarness(t, c.tp())
			px := h.leaf()
			const key, pushes = "/hot/k", 16 // four terms
			admitted, start, _ := pushEvery(t, h, key, pushes)
			if _, _, ok := regularSince(px, key, start); ok {
				t.Errorf("a key pushed every %v was audited while the channel was healthy", px.lease.term/4)
			}
			if got := px.up.requestsFor(key) - admitted; got != pushes*c.polls {
				t.Errorf("%d upstream requests beyond the admission, want %d", got, pushes*c.polls)
			}
			if st := px.PushStats(); st.AuditsDeferred != pushes || !st.Connected {
				t.Errorf("%d audits deferred by %d pushes: %+v", st.AuditsDeferred, pushes, st)
			}
		})
	}
}

// TestQuietKeyAuditedWithinTermOfLastPush: once a key's pushes stop, its
// next audit runs after the last event's arrival and within L of it.
func TestQuietKeyAuditedWithinTermOfLastPush(t *testing.T) {
	for _, c := range rearmCases {
		t.Run(c.name, func(t *testing.T) {
			h := newHarness(t, c.tp())
			px := h.leaf()
			const key = "/hot/k"
			_, start, last := pushEvery(t, h, key, 8) // two terms
			h.advance(px.lease.term)
			first, _, ok := regularSince(px, key, start)
			switch {
			case !ok:
				t.Errorf("not audited within %v of the last push", px.lease.term)
			case !first.After(last):
				t.Errorf("audited %v after admission, before the last push at %v", first.Sub(start), last.Sub(start))
			case first.Sub(last) > px.lease.term:
				t.Errorf("audited %v after the last push, more than the term %v", first.Sub(last), px.lease.term)
			}
		})
	}
}

// TestPushedValueCarriesToleranceChange: a tolerance change followed by
// an update reaches the leaf's Cache-Control with that update, through a
// relaying parent, with no poll anywhere.
func TestPushedValueCarriesToleranceChange(t *testing.T) {
	tp := valuePushTopology(rearmConfig())
	tp.hops = 2
	h := newHarness(t, tp)
	px := h.leaf()
	const key = "/tol/k"
	h.origin.Set(key, []byte("v1"), "")
	h.quiesce()
	px.get(key)
	polls := h.origin.Stats().Polls

	tol := httpx.Tolerances{Delta: 7 * time.Second, Group: "news", GroupDelta: 9 * time.Second}
	h.origin.SetTolerances(key, tol)
	h.origin.Set(key, []byte("v2"), "")
	h.quiesce()
	code, body, hdr := px.get(key)
	if code != 200 || body != "v2" {
		t.Fatalf("leaf served %d %q, want the pushed v2", code, body)
	}
	if got := hdr.Get("Cache-Control"); got != tol.FormatCacheControl() {
		t.Errorf("Cache-Control %q with the update, want %q", got, tol.FormatCacheControl())
	}
	if got := h.origin.Stats().Polls - polls; got != 0 {
		t.Errorf("the origin saw %d polls; the update alone must carry the change", got)
	}
}

// TestRelayConfirmationCarriesCacheControl: a relaying proxy that learns
// an update by polling publishes the payload downstream with the
// Cache-Control it just installed.
func TestRelayConfirmationCarriesCacheControl(t *testing.T) {
	cfg := rearmConfig()
	tp := withStrippedEvents(pushTopology(cfg))
	tp.hops = 2
	h := newHarness(t, tp)
	var mu sync.Mutex
	var frames []push.Event
	h.watch(h.root(), push.SubscriberConfig{OnEvent: func(ev push.Event) {
		mu.Lock()
		frames = append(frames, ev)
		mu.Unlock()
	}})
	const key = "/tol/k"
	h.origin.Set(key, []byte("v1"), "")
	h.quiesce()
	h.leaf().get(key)

	tol := httpx.Tolerances{Delta: 7 * time.Second}
	h.origin.SetTolerances(key, tol)
	h.origin.Set(key, []byte("v2"), "")
	h.quiesce()
	mu.Lock()
	defer mu.Unlock()
	var got []string
	for _, ev := range frames {
		if ev.Key == key && ev.HasBody && string(ev.Body) == "v2" {
			got = append(got, ev.CacheControl)
		}
	}
	if len(got) != 1 || got[0] != tol.FormatCacheControl() {
		t.Errorf("the root published v2 with Cache-Control %q, want once with %q", got, tol.FormatCacheControl())
	}
}

// TestDiskRecordTakesPushedCacheControl: a pushed value landing on a
// demoted key's disk record brings the Cache-Control with it, so the
// promotion the channel answers serves the changed tolerance.
func TestDiskRecordTakesPushedCacheControl(t *testing.T) {
	cfg := rearmConfig()
	cfg.MaxObjects, cfg.Shards, cfg.DiskDir = 4, 1, t.TempDir()
	h := newHarness(t, valuePushTopology(cfg))
	px := h.leaf()
	const victim = "/c/0"
	h.origin.Set(victim, []byte("v1"), "")
	h.quiesce()
	px.get(victim)
	px.FlushDisk()
	demote(t, h, victim)

	h.advance(time.Second) // the record's validation strictly inside the epoch
	tol := httpx.Tolerances{Delta: 7 * time.Second}
	h.origin.SetTolerances(victim, tol)
	h.origin.Set(victim, []byte("v2"), "")
	h.quiesce()
	if st := px.PushStats(); st.DiskApplied != 1 {
		t.Fatalf("the update did not land on the record: %+v", st)
	}
	_, body, hdr := px.get(victim)
	if ds := px.DiskStats(); body != "v2" || ds.LeasedPromotions != 1 {
		t.Fatalf("served %q, %d leased promotions; want v2 promoted under the lease", body, ds.LeasedPromotions)
	}
	if got := hdr.Get("Cache-Control"); got != tol.FormatCacheControl() {
		t.Errorf("promoted with Cache-Control %q, want %q", got, tol.FormatCacheControl())
	}
	if n := px.up.requestsFor(victim); n != 1 {
		t.Errorf("%d upstream requests for the key, want the admission alone", n)
	}
}

// TestStaleEpochPushMovesNoAudit: a pushed install whose evidence was
// gathered before the current lease epoch began moves no audit, even on
// a key the lease carries again. On the live stack the job of such an
// event always runs before the key's re-leasing poll completes — both
// run on its affinity worker — so the test hands the install its
// evidence directly, as that worker would, once the key is leased again.
func TestStaleEpochPushMovesNoAudit(t *testing.T) {
	cfg := rearmConfig()
	h := newHarness(t, leaseTopology(cfg, true))
	px := h.leaf()
	key := admit(t, h, 1)[0]
	term := px.lease.term
	stale := px.lease.epoch.Load()

	h.tp.hub.Reset() // a new epoch: the sweep returns the key to paper mode
	h.quiesce()
	if px.lease.current(stale) {
		t.Fatal("the Reset began no epoch")
	}
	h.advance(term / 2) // its next regular poll leases it again
	before := scheduleOf(t, px, key, 2)
	wantLeased(t, px, key, before)
	h.advance(term / 4) // the key's audit is still ahead

	h.origin.Set(key, []byte("v2"), "")
	ev := push.Event{Kind: push.KindUpdate, Key: key, ModTime: modTime(h, key),
		Body: []byte("v2"), HasBody: true, Digest: push.DigestOf([]byte("v2"))}
	if installed, _ := px.applyPushedValue(px.lookup(key), &pushedEvent{Event: ev, epoch: stale, at: h.clk.Now()}); !installed {
		t.Fatal("the pushed value was not installed")
	}
	if after := scheduleOf(t, px, key, 2); !after.next.Equal(before.next) || !after.base.Equal(before.base) {
		t.Errorf("stale evidence moved the audit from %v to %v (paper mode %v → %v)",
			before.next, after.next, before.base, after.base)
	}
}

// TestSweepAfterPushesKeepsPaperModeInstant: pushes move a carried key's
// audit but never its paper-mode instant, so after a stream of them a
// disconnect sweeps the key to the instant its last regular poll set.
func TestSweepAfterPushesKeepsPaperModeInstant(t *testing.T) {
	cfg := rearmConfig()
	// A first TTR of 8 s: the paper-mode instant lies past the pushes.
	cfg.DefaultDelta = 8 * time.Second
	cfg.Bounds = core.TTRBounds{Min: 8 * time.Second, Max: 16 * time.Second}
	h := newHarness(t, leaseTopology(cfg, true))
	px := h.leaf()
	key := admit(t, h, 1)[0]
	admitted := scheduleOf(t, px, key, 1)
	wantLeased(t, px, key, admitted)
	if !admitted.base.After(h.clk.Now().Add(4 * time.Second)) {
		t.Fatalf("paper-mode instant %v too close for the test", admitted.base.Sub(h.clk.Now()))
	}

	for i := 1; i <= 4; i++ {
		updateValue(h, key, fmt.Sprintf("v%d", i))
		h.quiesce()
		h.advance(time.Second)
	}
	if _, _, ok := regularSince(px, key, admitted.validatedAt.Add(time.Nanosecond)); ok {
		t.Fatal("a regular poll ran during the pushes")
	}
	if b, _ := px.CachedBody(key); string(b) != "v4" {
		t.Fatalf("cached %q, want the last push", b)
	}

	h.tp.hub.SetAvailable(false)
	h.quiesce()
	wantPaperMode(t, px)
	if swept := scheduleOf(t, px, key, 1); !swept.next.Equal(admitted.base) {
		t.Errorf("swept to %v after admission, want its paper-mode instant %v",
			swept.next.Sub(admitted.validatedAt), admitted.base.Sub(admitted.validatedAt))
	}
}
