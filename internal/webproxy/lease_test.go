package webproxy

// Tests for the lease contract (see the reconciliation rules in push.go):
// what ends a lease mid-term and how fast paper-mode polling takes over,
// how admissions spread over the first term, what a short residency costs
// the origin, and that a key outside the declared interest is not leased.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"broadway/internal/core"
	"broadway/internal/diskstore"
	"broadway/internal/httpx"
	"broadway/internal/push"
	"broadway/internal/webserver"
)

// leaseTopology is one proxy behind an origin whose event hub the test
// owns, so it can announce a hole mid-stream (Hub.Reset) as well as take
// the endpoint down; available false starts it down.
func leaseTopology(cfg Config, available bool) topology {
	hub := push.NewHub(push.HubConfig{PayloadCap: push.DefaultPayloadCap})
	hub.SetAvailable(available)
	return topology{push: true, hub: hub, cfg: cfg, origin: []webserver.Option{webserver.WithHistoryExtension(true)}}
}

// update rewrites key at the origin and announces it on the test's hub.
func update(h *harness, key, body string) {
	h.origin.Set(key, []byte(body), "")
	h.tp.hub.Publish(push.Event{Kind: push.KindUpdate, Key: key})
}

// updateValue is update with the new version riding on the event, as an
// origin serving value-negotiated subscribers announces it.
func updateValue(h *harness, key, body string) {
	h.origin.Set(key, []byte(body), "")
	h.tp.hub.Publish(push.Event{
		Kind: push.KindUpdate, Key: key, ModTime: modTime(h, key),
		Body: []byte(body), HasBody: true, Digest: push.DigestOf([]byte(body)),
	})
}

// modTime is the origin's current Last-Modified for key.
func modTime(h *harness, key string) time.Time {
	rec := httptest.NewRecorder()
	h.origin.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, key, nil))
	mod, _ := http.ParseTime(rec.Header().Get("Last-Modified"))
	return mod
}

// demote admits fresh filler objects until CLOCK has displaced victim
// from a cache configured far smaller than the fillers.
func demote(t *testing.T, h *harness, victim string) {
	t.Helper()
	px := h.leaf()
	for n := 0; px.lookup(victim) != nil; n++ {
		if n == 16 {
			t.Fatalf("%s still resident after %d admissions into a small cache", victim, n)
		}
		k := fmt.Sprintf("/f/%d", h.origin.Stats().Objects)
		h.origin.Set(k, []byte("filler"), "")
		if code, _, _ := px.get(k); code != http.StatusOK {
			t.Fatalf("GET %s: status %d", k, code)
		}
	}
}

// admit hosts and requests n keys named like the benchmark's.
func admit(t *testing.T, h *harness, n int) []string {
	t.Helper()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("/s%d/k%d", i%8, i)
		h.origin.Set(keys[i], []byte("v1"), "")
	}
	for _, k := range keys {
		if code, _, _ := h.leaf().get(k); code != http.StatusOK {
			t.Fatalf("admit %s: status %d", k, code)
		}
	}
	return keys
}

// holdWorker occupies the proxy's only poll worker with a poll of another
// key, held at the origin until release, which then quiesces.
func holdWorker(t *testing.T, h *harness) (release func()) {
	t.Helper()
	px := h.leaf()
	h.origin.Set("/slow", []byte("s"), "")
	px.get("/slow")
	held := px.up.hold(t, "/slow")
	px.reschedule(px.lookup("/slow"), h.clk.Now())
	held.wait(t)
	return func() {
		held.release()
		h.quiesce()
	}
}

// originPath is the origin path a cache key is fetched from: the key
// without its query.
func originPath(key string) string { return strings.SplitN(key, "?", 2)[0] }

// regularSince returns key's first and last regular poll at or after t0.
func regularSince(px *node, key string, t0 time.Time) (first, last time.Time, ok bool) {
	for _, o := range px.observations() {
		if o.Key != key || o.Initial || o.Triggered || o.Pushed || o.At.Before(t0) {
			continue
		}
		if !ok {
			first, ok = o.At, true
		}
		last = o.At
	}
	return first, last, ok
}

// wantPaperMode asserts the schedule is exactly what pure polling would
// have produced: no entry on the heap sits past its paper-mode instant.
func wantPaperMode(t *testing.T, px *node) {
	t.Helper()
	var entries []*entry
	for i := range px.store.shards {
		sh := &px.store.shards[i]
		sh.mu.RLock()
		for _, e := range sh.entries {
			entries = append(entries, e)
		}
		sh.mu.RUnlock()
	}
	px.schedMu.Lock()
	defer px.schedMu.Unlock()
	for _, e := range entries {
		if e.item != nil && !e.nextAt.Equal(e.baseNextAt) {
			t.Errorf("%s scheduled %v past its paper-mode instant", e.key, e.nextAt.Sub(e.baseNextAt))
		}
	}
}

// TestLeaseEndsMidTerm kills a live lease three ways — the link dies, the
// upstream announces a hole mid-stream, the proxy bounces its own stream —
// with hundreds of keys mid-term, and holds each to the labelled bound:
// every key, updated or not, is polled within its own unstretched TTR of
// the event, every update is visible inside that window, and a key is
// leased again only by a regular poll of its own that ran after the
// channel was back.
func TestLeaseEndsMidTerm(t *testing.T) {
	const (
		n      = 256
		ttrMax = time.Second
	)
	cases := []struct {
		name string
		end  func(h *harness)
		// down marks an event the channel does not recover from by itself.
		down                      bool
		fallbacks, resets, bounce uint64
	}{
		{name: "link death", end: func(h *harness) { h.tp.hub.SetAvailable(false) }, down: true, fallbacks: 1},
		{name: "mid-stream Reset", end: func(h *harness) { h.tp.hub.Reset() }, resets: 1},
		{name: "Bounce", end: func(h *harness) { h.leaf().sub.Bounce() }, fallbacks: 1, bounce: 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newHarness(t, leaseTopology(Config{
				PushStretch:  60,
				DefaultDelta: 100 * time.Millisecond,
				Bounds:       core.TTRBounds{Min: 100 * time.Millisecond, Max: ttrMax},
			}, true))
			px := h.leaf()
			keys := admit(t, h, n)
			ttr := make(map[string]time.Duration, n)
			for _, k := range keys {
				snap := scheduleOf(t, px, k, 1)
				wantLeased(t, px, k, snap)
				ttr[k] = snap.ttr()
			}

			h.advance(ttrMax / 2) // mid-term: past every paper-mode instant
			ended := h.clk.Now()
			c.end(h)
			h.quiesce()
			reconciled := func() bool {
				st := px.PushStats()
				return st.Fallbacks == c.fallbacks && st.Resets == c.resets && st.Bounces == c.bounce
			}
			if !reconciled() {
				t.Fatalf("event not reconciled once: %+v", px.PushStats())
			}
			if c.down {
				wantPaperMode(t, px)
			}
			for i := 0; i < n; i += 4 {
				update(h, keys[i], "v2")
			}

			// Every key is polled on its unstretched schedule, and every
			// update is visible inside the same window.
			h.advance(ttrMax)
			for _, k := range keys {
				first, _, ok := regularSince(px, k, ended)
				if !ok {
					t.Fatalf("%s was never polled after the lease ended", k)
				}
				if late := first.Sub(ended) - ttr[k]; late > 0 {
					t.Errorf("%s polled %v after its unstretched TTR %v had passed", k, late, ttr[k])
				}
			}
			for i := 0; i < n; i += 4 {
				if b, _ := px.CachedBody(keys[i]); string(b) != "v2" {
					t.Fatalf("an update made after the lease ended was not visible within %v: %s = %q", ttrMax, keys[i], b)
				}
			}
			if !reconciled() {
				t.Errorf("reconciled more than once: %+v", px.PushStats())
			}

			// A clean reconnect leases nothing by itself: each key
			// re-enters at its own next regular poll.
			back := ended
			if c.down {
				wantPaperMode(t, px)
				back = h.clk.Now()
				h.tp.hub.SetAvailable(true)
				h.quiesce()
			}
			h.advance(2 * ttrMax)
			for _, k := range keys {
				_, last, ok := regularSince(px, k, back)
				if !ok {
					t.Fatalf("%s: no regular poll since the channel came back", k)
				}
				snap := scheduleOf(t, px, k, 2)
				if want := bucketed(px, last.Add(px.lease.term), snap.base); !snap.next.Equal(want) {
					t.Fatalf("%s: next poll %v after its last regular poll, want the term %v in its bucket, %v: leases not re-entered poll by poll",
						k, snap.next.Sub(last), px.lease.term, want.Sub(last))
				}
			}
		})
	}
}

// TestLeasePhaseSpreadsAdmissions: keys admitted at one instant under a
// healthy channel must not poll as a herd — each lands at its own hash
// phase in (TTR, L], and no eighth of that range holds more than twice
// its share.
func TestLeasePhaseSpreadsAdmissions(t *testing.T) {
	const (
		n       = 1024
		ttrMin  = 2 * time.Second
		buckets = 8
	)
	h := newHarness(t, leaseTopology(Config{
		DefaultDelta: ttrMin,
		Bounds:       core.TTRBounds{Min: ttrMin, Max: 8 * time.Second},
	}, true))
	px := h.leaf()
	// Off the audit grid, so a phase near L is nearer the bucket past
	// validation + L than the one before it, and must take the one before.
	h.advance(750 * time.Millisecond)
	instant := h.clk.Now() // the clock stands still: every key is admitted at it
	term := px.PushStats().LeaseTerm
	if term != 32*time.Second {
		t.Fatalf("lease term %v, want the default 4 × Bounds.Max", term)
	}
	var counts [buckets]int
	for _, k := range admit(t, h, n) {
		snap := scheduleOf(t, px, k, 1)
		wantLeased(t, px, k, snap)
		if !snap.validatedAt.Equal(instant) || snap.ttr() != ttrMin {
			t.Fatalf("%s validated %v with TTR %v, want the frozen instant and TTRmin", k, snap.validatedAt, snap.ttr())
		}
		phase := snap.next.Sub(instant)
		if phase <= ttrMin || phase > term {
			t.Fatalf("%s: phase %v outside (TTR, L] = (%v, %v]", k, phase, ttrMin, term)
		}
		counts[int((phase-ttrMin-1)*buckets/(term-ttrMin))]++
	}
	for i, c := range counts {
		if c > 2*n/buckets {
			t.Errorf("eighth %d of (TTR, L] holds %d of %d keys, more than twice its share: %v", i, c, n, counts)
		}
	}
}

// TestLeasePromoteDemoteCostsNoOriginRequest pins the churn saving: a
// disk-tier object whose record the live channel has carried since its
// last validation is promoted with no origin request — the channel
// answers the 304 — and a residency that outlasts the unstretched TTR
// costs nothing either. The promoted entry vouches for the record's own
// validation, and its first audit is capped at that validation plus L,
// the bound a resident leased key keeps against a silent upstream.
func TestLeasePromoteDemoteCostsNoOriginRequest(t *testing.T) {
	const ttrMin = 50 * time.Millisecond
	h := newHarness(t, leaseTopology(Config{
		MaxObjects:   4,
		Shards:       1,
		DiskDir:      t.TempDir(),
		DefaultDelta: ttrMin,
		Bounds:       core.TTRBounds{Min: ttrMin, Max: 10 * time.Second},
	}, true))
	px := h.leaf()
	term := px.PushStats().LeaseTerm
	const age = 20 * time.Second
	// A phase past term − age, so the cap (validation + L) decides the
	// first audit rather than the phase.
	victim := "/c/0"
	for i := 1; px.lease.phase(victim, ttrMin) <= term-age; i++ {
		victim = fmt.Sprintf("/c/%d", i)
	}
	h.origin.Set(victim, []byte("victim"), "")
	get := func(k string) {
		t.Helper()
		if code, body, _ := px.get(k); code != http.StatusOK || k == victim && body != "victim" {
			t.Fatalf("GET %s: status %d, %q", k, code, body)
		}
	}

	// Validated strictly inside the lease epoch the connect began.
	h.advance(time.Second)
	validated := h.clk.Now()
	get(victim)
	px.FlushDisk() // the demotion below needs the record written behind
	demote(t, h, victim)
	if got := px.up.requestsFor(victim); got != 1 {
		t.Fatalf("%d origin requests before the promotion, want the admission fetch alone", got)
	}

	h.advance(validated.Add(age).Sub(h.clk.Now()))
	get(victim) // promote: answered by the channel
	if ds := px.DiskStats(); ds.Promotions != 1 || ds.LeasedPromotions != 1 {
		t.Fatalf("not promoted under the lease: %+v", ds)
	}
	snap := scheduleOf(t, px, victim, 1)
	if !snap.validatedAt.Equal(validated) || !snap.base.Equal(validated.Add(ttrMin)) {
		t.Errorf("promoted entry validated %v with paper-mode poll %v, want the record's %v and %v",
			snap.validatedAt, snap.base, validated, validated.Add(ttrMin))
	}
	if want := bucketed(px, validated.Add(term), snap.base); !snap.next.Equal(want) {
		t.Errorf("first audit %v after the record's validation, want L = %v in its bucket, %v",
			snap.next.Sub(validated), term, want.Sub(validated))
	}

	// Resident past the instant an unleased first poll would fire.
	h.advance(4 * ttrMin)
	demote(t, h, victim)
	if got := px.up.requestsFor(victim) - 1; got != 0 {
		t.Errorf("promote-then-demote residency cost the origin %d requests, want none", got)
	}
}

// TestLeaseWaitsForDeclaredInterest: an admission outside the live
// interest declaration is not covered by the channel yet, so it keeps the
// unstretched first poll; once the bounce has widened the declaration its
// next regular poll leases it.
func TestLeaseWaitsForDeclaredInterest(t *testing.T) {
	h := newHarness(t, leaseTopology(Config{
		PushInterest: true,
		PushPrefixes: []string{"/in/"},
		DefaultDelta: 50 * time.Millisecond,
		Bounds:       core.TTRBounds{Min: 50 * time.Millisecond, Max: 10 * time.Second},
	}, true))
	px := h.leaf()
	h.origin.Set("/in/a", []byte("v1"), "")
	h.origin.Set("/out/b", []byte("v1"), "")

	px.get("/in/a")
	wantLeased(t, px, "/in/a", scheduleOf(t, px, "/in/a", 1))

	// The stream cannot come back until the admission below is scheduled:
	// against the declaration that filtered it out.
	px.up.fail("/events", true)
	px.get("/out/b")
	px.schedMu.Lock()
	e := px.lookup("/out/b")
	first, base := e.nextAt, e.baseNextAt
	px.schedMu.Unlock()
	if !first.Equal(base) {
		t.Errorf("/out/b leased %v past its first poll while outside the declaration", first.Sub(base))
	}
	if st := px.PushStats(); st.Bounces != 1 {
		t.Fatalf("admission outside the declaration bounced the stream %d times, want 1", st.Bounces)
	}

	px.up.fail("/events", false)
	h.quiesce()
	if !px.PushStats().Connected || !px.sub.DeclaredInterest().Matches("/out/b") {
		t.Fatal("the bounce never widened the declaration")
	}
	h.advance(50 * time.Millisecond)
	_, last, ok := regularSince(px, "/out/b", time.Time{})
	if !ok {
		t.Fatal("/out/b was never polled")
	}
	if snap := scheduleOf(t, px, "/out/b", 2); !snap.next.Equal(bucketed(px, last.Add(px.lease.term), snap.base)) {
		t.Error("/out/b never leased after the declaration covered it")
	}
}

// TestLeaseRefusedWhenAdmissionRacedAnUpdate stages the one ordering the
// channel cannot cover by itself: the fetch and the stream are separate
// connections, so an update made after the upstream built an admission's
// (or a promotion's) response can be announced — and find nothing resident
// to refresh — before that response is installed. Such an admission must
// take no lease: the stale body is caught by the paper-mode first poll,
// not held for a term. The promotion cases use a record outside the lease
// (validated before a reconnect), so the promotion fetches and the update
// overtakes that fetch; the leased cases promote a record the channel
// carried, with no fetch, and the update lands between the promotion's
// record read and its install.
func TestLeaseRefusedWhenAdmissionRacedAnUpdate(t *testing.T) {
	const ttrMin = 100 * time.Millisecond
	cases := []struct {
		name                    string
		promote, values, leased bool
	}{
		{name: "admission"},
		{name: "promotion", promote: true},
		// The event's payload lands on the disk record the promotion has
		// already read past, so it is handled, not dropped — and must
		// still reach the promotion.
		{name: "promotion, update absorbed by the disk record", promote: true, values: true},
		{name: "leased promotion", promote: true, leased: true},
		{name: "leased promotion, update absorbed by the disk record", promote: true, values: true, leased: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{
				PushValues:   c.values,
				DefaultDelta: ttrMin,
				Bounds:       core.TTRBounds{Min: ttrMin, Max: 10 * time.Second},
			}
			if c.promote {
				cfg.MaxObjects, cfg.Shards, cfg.DiskDir = 4, 1, t.TempDir()
			}
			h := newHarness(t, leaseTopology(cfg, true))
			px := h.leaf()
			// A phase far past the TTR, so a lease taken by mistake cannot
			// pass for the paper-mode poll.
			key := "/r/0"
			for i := 1; px.lease.phase(key, ttrMin) < 10*ttrMin; i++ {
				key = fmt.Sprintf("/r/%d", i)
			}
			h.origin.Set(key, []byte("v1"), "")
			if c.promote {
				// Validated strictly inside the lease epoch the connect began.
				h.advance(time.Second)
				px.get(key)
				wantLeased(t, px, key, scheduleOf(t, px, key, 1))
				px.FlushDisk()
				demote(t, h, key)
			}
			if c.promote && !c.leased {
				px.sub.Bounce()
				h.quiesce()
				if st := px.PushStats(); st.Bounces != 1 || st.Connects != 2 || !st.Connected {
					t.Fatalf("the stream never came back from the bounce: %+v", st)
				}
			}
			upd := update
			if c.values {
				upd = updateValue
			}

			var body string
			if c.leased {
				// admit, with the update announced and handled between the
				// record read and the install.
				px.flight.Do(key, func() (any, error) {
					rec, diskBody, ok := px.disk.Get(key)
					resp := px.channelAnswer(key, &rec)
					if !ok || resp == nil {
						t.Fatal("the record is not carried")
					}
					upd(h, key, "v2")
					h.quiesce()
					e := px.admitFrom(key, &rec, diskBody, resp)
					e.mu.RLock()
					body = string(e.body)
					e.mu.RUnlock()
					return e, nil
				})
			} else {
				// The update overtakes the response that missed it: made once
				// the response is built, announced, and handled by the proxy
				// before the first byte of that response is written.
				px.up.beforeReply(key, func() {
					upd(h, key, "v2")
					h.quiesce()
				})
				_, body, _ = px.get(key)
			}
			if body != "v1" {
				t.Fatalf("admitted %q, want the version read before the update", body)
			}
			st := px.PushStats()
			if c.values && st.DiskApplied != 1 || !c.values && st.Dropped != 1 {
				t.Fatalf("the event did not find the key non-resident: %+v", st)
			}
			if ds := px.DiskStats(); c.promote && (ds.Promotions != 1 || c.leased != (ds.LeasedPromotions == 1)) {
				t.Fatalf("not promoted from disk as expected: %+v", ds)
			}
			h.advance(ttrMin)
			if b, _ := px.CachedBody(key); string(b) != "v2" {
				snap := scheduleOf(t, px, key, 1)
				t.Fatalf("update still invisible %v after admission: next poll %v after validation, paper-mode %v",
					ttrMin, snap.next.Sub(snap.validatedAt), snap.ttr())
			}
			fetches := 1 // the admission
			if c.promote && !c.leased {
				fetches++ // and the promotion
			}
			if got := px.up.requestsFor(key); got != fetches+1 {
				t.Errorf("%d origin requests, want %d fetches plus the one paper-mode poll", got, fetches)
			}
			// The poll that caught the update leases the key as usual.
			wantLeased(t, px, key, scheduleOf(t, px, key, 2))
		})
	}
}

// TestPromotionValidatesUnlessCarried covers every reason a promotion
// under a live lease must still fetch: the record was validated before
// the current lease epoch, is as old as the term, is not covered by the
// channel, or had an announced update land nowhere (each path that voids
// it). Every case leaves the origin holding a version the record does
// not, and the promotion must fetch it and serve it; the control shows
// the same record carried, with no fetch, when nothing spoils it.
func TestPromotionValidatesUnlessCarried(t *testing.T) {
	const ttrMin = time.Second
	silent := func(h *harness, key string) string {
		h.origin.Set(key, []byte("v2"), "")
		return "v2"
	}
	type promoCase struct {
		h   *harness
		dir string
		key string // the cache key; the origin path drops its query
	}
	demoted := func(t *testing.T, c *promoCase) {
		t.Helper()
		c.h.leaf().FlushDisk()
		demote(t, c.h, c.key)
	}
	cases := []struct {
		name string
		key  string
		cfg  func(*Config)
		// originCap, when set, is the payload cap of the origin's hub.
		originCap int
		carried   bool
		// spoil runs with the key resident (admitted at an instant strictly
		// inside the lease epoch), leaves it demoted, and returns the body
		// the origin now holds.
		spoil func(t *testing.T, c *promoCase) string
	}{
		{
			name:    "carried (control)",
			carried: true,
			spoil: func(t *testing.T, c *promoCase) string {
				demoted(t, c)
				updateValue(c.h, c.key, "v2") // lands on the record
				c.h.quiesce()
				return "v2"
			},
		},
		{
			name: "epoch: reconnect",
			spoil: func(t *testing.T, c *promoCase) string {
				demoted(t, c)
				c.h.advance(time.Second)
				c.h.tp.hub.SetAvailable(false)
				c.h.quiesce()
				body := silent(c.h, c.key)
				c.h.tp.hub.SetAvailable(true)
				c.h.quiesce()
				return body
			},
		},
		{
			name: "epoch: mid-stream Reset",
			spoil: func(t *testing.T, c *promoCase) string {
				demoted(t, c)
				c.h.advance(time.Second)
				body := silent(c.h, c.key)
				c.h.tp.hub.Reset()
				c.h.quiesce()
				if st := c.h.leaf().PushStats(); st.Resets != 1 {
					t.Fatalf("Reset never handled: %+v", st)
				}
				return body
			},
		},
		{
			name: "epoch: frame loss",
			spoil: func(t *testing.T, c *promoCase) string {
				demoted(t, c)
				c.h.advance(time.Second)
				body := silent(c.h, c.key)
				c.h.leaf().handlePushFrameLoss() // as the subscriber reports a dropped line
				return body
			},
		},
		{
			name: "epoch: Bounce",
			spoil: func(t *testing.T, c *promoCase) string {
				demoted(t, c)
				c.h.advance(time.Second)
				body := silent(c.h, c.key)
				c.h.leaf().sub.Bounce()
				c.h.quiesce()
				if st := c.h.leaf().PushStats(); st.Bounces != 1 || st.Connects != 2 || !st.Connected {
					t.Fatalf("never came back from the bounce: %+v", st)
				}
				return body
			},
		},
		{
			name: "epoch: channel down",
			spoil: func(t *testing.T, c *promoCase) string {
				demoted(t, c)
				c.h.tp.hub.SetAvailable(false)
				c.h.quiesce()
				return silent(c.h, c.key)
			},
		},
		{
			name: "record age L",
			spoil: func(t *testing.T, c *promoCase) string {
				demoted(t, c)
				c.h.advance(c.h.leaf().PushStats().LeaseTerm)
				return silent(c.h, c.key)
			},
		},
		{
			name: "query-bearing key",
			key:  "/k/doc?x=1",
			spoil: func(t *testing.T, c *promoCase) string {
				demoted(t, c)
				return silent(c.h, originPath(c.key))
			},
		},
		{
			// A record validated inside the epoch for a key the live
			// declaration misses, written here directly: the proxy cannot
			// validate an undeclared key itself without its bounce starting
			// a new epoch.
			name: "undeclared key",
			cfg: func(cfg *Config) {
				cfg.PushInterest, cfg.PushPrefixes = true, []string{"/f/", "/k/"}
			},
			spoil: func(t *testing.T, c *promoCase) string {
				c.key = "/out/doc"
				c.h.origin.Set(c.key, []byte("v1"), "")
				px := c.h.leaf()
				px.disk.Put(diskstore.Record{Key: c.key, LastMod: modTime(c.h, c.key), HasLastMod: true,
					ValidatedAt: c.h.clk.Now()}, []byte("v1"))
				if px.sub.DeclaredInterest().Matches(c.key) {
					t.Fatal("test premise: the live declaration covers the key")
				}
				return silent(c.h, c.key)
			},
		},
		{
			name: "void: invalidation-only proxy",
			cfg:  func(cfg *Config) { cfg.PushValues = false },
			spoil: func(t *testing.T, c *promoCase) string {
				demoted(t, c)
				update(c.h, c.key, "v2")
				c.h.quiesce()
				return "v2"
			},
		},
		{
			name: "void: stripped payload",
			spoil: func(t *testing.T, c *promoCase) string {
				demoted(t, c)
				update(c.h, c.key, "v2")
				c.h.quiesce()
				return "v2"
			},
		},
		{
			name:      "void: over-cap payload",
			originCap: 8,
			spoil: func(t *testing.T, c *promoCase) string {
				demoted(t, c)
				const body = "v2, longer than the payload cap"
				updateValue(c.h, c.key, body)
				c.h.quiesce()
				return body
			},
		},
		{
			name: "void: delta base miss",
			spoil: func(t *testing.T, c *promoCase) string {
				demoted(t, c)
				v2 := []byte("v2")
				c.h.origin.Set(c.key, v2, "")
				px := c.h.leaf()
				px.handlePushEvent(push.Event{Kind: push.KindUpdate, Key: c.key, ModTime: modTime(c.h, c.key),
					HasBody: true, Body: []byte("a delta against some other base"), Digest: push.DigestOf(v2),
					BaseDigest: push.DigestOf([]byte("not the record's body")), DeltaCodec: push.DeltaCodecBlock})
				if st := px.PushStats(); st.DeltaBaseMisses != 1 {
					t.Fatalf("test premise: the delta did not miss its base: %+v", st)
				}
				return string(v2)
			},
		},
		{
			name: "void: pushed job evicted before it ran",
			cfg:  func(cfg *Config) { cfg.PollWorkers = 1 },
			spoil: func(t *testing.T, c *promoCase) string {
				px := c.h.leaf()
				release := holdWorker(t, c.h)
				updateValue(c.h, c.key, "v2")
				c.h.quiesce()
				if st := px.PushStats(); st.Polls != 1 {
					t.Fatalf("test premise: no pushed job queued: %+v", st)
				}
				e := px.lookup(c.key)
				if !px.store.removeEntry(e) {
					t.Fatal("the key was not resident")
				}
				px.demote([]*entry{e})
				release()
				return "v2"
			},
		},
		{
			// A payload received in one epoch and installed in the next is
			// evidence from the old one: it must not stamp a record that
			// passes for carried past the update the hole swallowed.
			name: "epoch: payload queued across a Reset",
			cfg: func(cfg *Config) {
				// A TTR long enough that the Reset's sweep leaves the
				// paper-mode poll in the future.
				cfg.PollWorkers, cfg.DefaultDelta, cfg.Bounds.Min = 1, 5*time.Second, 5*time.Second
			},
			spoil: func(t *testing.T, c *promoCase) string {
				release := holdWorker(t, c.h)
				updateValue(c.h, c.key, "v2")
				c.h.quiesce()
				c.h.clk.AdvanceTo(c.h.clk.Now().Add(time.Second))
				c.h.origin.Set(c.key, []byte("v3"), "") // lost in the hole
				c.h.tp.hub.Reset()
				c.h.quiesce()
				if st := c.h.leaf().PushStats(); st.Resets != 1 {
					t.Fatalf("Reset never handled: %+v", st)
				}
				c.h.clk.AdvanceTo(c.h.clk.Now().Add(time.Second))
				release()
				if b, _ := c.h.leaf().CachedBody(c.key); string(b) != "v2" {
					t.Fatalf("test premise: the queued payload was not installed: %q", b)
				}
				demoted(t, c)
				return "v3"
			},
		},
		{
			name: "void: pushed poll failed",
			cfg:  func(cfg *Config) { cfg.PushValues = false },
			spoil: func(t *testing.T, c *promoCase) string {
				px := c.h.leaf()
				px.up.fail(c.key, true)
				update(c.h, c.key, "v2")
				c.h.quiesce()
				if px.UpstreamStatus().Errors != 1 {
					t.Fatal("the pushed poll never failed")
				}
				px.up.fail(c.key, false)
				demoted(t, c) // before the retry, which the stepped clock holds back
				return "v2"
			},
		},
		{
			// A pushed body too large to install directly falls back to a
			// poll, whose install swaps it in and then evicts the entry for
			// outgrowing the byte budget before it could persist it.
			name: "void: install stopped at the eviction guard",
			cfg:  func(cfg *Config) { cfg.MaxBytes = 4096 },
			spoil: func(t *testing.T, c *promoCase) string {
				body := strings.Repeat("v2", 2500)
				updateValue(c.h, c.key, body)
				c.h.quiesce()
				if c.h.leaf().lookup(c.key) != nil {
					t.Fatal("the grown entry was never evicted")
				}
				return body
			},
		},
		{
			// The pushed install's write-behind fails: a regular file
			// squats where the new blob's directory must go.
			name: "void: failed disk write",
			spoil: func(t *testing.T, c *promoCase) string {
				px := c.h.leaf()
				blobDir := func(b []byte) string {
					sum := sha256.Sum256(b)
					return filepath.Join(c.dir, "blobs", hex.EncodeToString(sum[:])[:2])
				}
				px.FlushDisk()
				v2 := []byte("v2")
				for i := 0; ; i++ {
					if _, err := os.Stat(blobDir(v2)); os.IsNotExist(err) {
						break
					}
					v2 = []byte(fmt.Sprintf("v2.%d", i))
				}
				if err := os.WriteFile(blobDir(v2), nil, 0o644); err != nil {
					t.Fatal(err)
				}
				updateValue(c.h, c.key, string(v2))
				c.h.quiesce()
				if b, _ := px.CachedBody(c.key); string(b) != string(v2) {
					t.Fatalf("test premise: the pushed body was not installed: %q", b)
				}
				demoted(t, c)
				if ds := px.DiskStats(); ds.WriteErrors == 0 {
					t.Fatalf("test premise: no write failed: %+v", ds)
				}
				return string(v2)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := &promoCase{dir: t.TempDir(), key: tc.key}
			if c.key == "" {
				c.key = "/k/doc"
			}
			cfg := Config{
				MaxObjects:   4,
				Shards:       1,
				DiskDir:      c.dir,
				PushValues:   true,
				DefaultDelta: ttrMin,
				Bounds:       core.TTRBounds{Min: ttrMin, Max: 10 * time.Second},
			}
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			tp := leaseTopology(cfg, true)
			if tc.originCap > 0 {
				tp.hub = push.NewHub(push.HubConfig{PayloadCap: tc.originCap})
			}
			c.h = newHarness(t, tp)
			px := c.h.leaf()
			c.h.origin.Set(originPath(c.key), []byte("v1"), "")
			// Validated strictly inside the lease epoch the connect began.
			c.h.advance(time.Second)
			if code, body, _ := px.get(c.key); code != http.StatusOK || body != "v1" {
				t.Fatalf("admission: %d %q", code, body)
			}

			want := tc.spoil(t, c)
			if px.lookup(c.key) != nil {
				t.Fatal("test premise: the key is still resident")
			}
			before := px.up.requestsFor(originPath(c.key))
			code, body, _ := px.get(c.key)
			if code != http.StatusOK || body != want {
				t.Errorf("promotion served %d %q, want the origin's current %q", code, body, want)
			}
			fetched := px.up.requestsFor(originPath(c.key)) - before
			leased := px.DiskStats().LeasedPromotions
			switch {
			case tc.carried && (fetched != 0 || leased != 1):
				t.Errorf("carried record: %d origin requests and %d leased promotions, want none and one", fetched, leased)
			case !tc.carried && (fetched != 1 || leased != 0):
				t.Errorf("%d origin requests and %d leased promotions, want one fetch and none", fetched, leased)
			}
		})
	}
}

// TestOverrideJournalsOnlyACarriedEntry: a runtime tolerance override
// writes the resident entry's record only while the lease carries the
// entry. One in paper-mode recovery — an admission that raced an update, a
// pushed poll that failed — holds a copy older than the origin's; a record
// stamped with its validation would pass for carried, so were the entry
// demoted before the override's own poll, the next promotion would serve
// that copy without a fetch. The control shows a carried entry's record
// written with the new tolerance and promoted with none.
func TestOverrideJournalsOnlyACarriedEntry(t *testing.T) {
	const ttrMin = time.Second
	cases := []struct {
		name    string
		carried bool
		// stage admits key (v1 at the origin) and leaves the origin holding
		// the body a promotion must serve.
		stage func(t *testing.T, h *harness, key string) string
	}{
		{
			name: "carried (control)", carried: true,
			stage: func(t *testing.T, h *harness, key string) string {
				h.leaf().get(key)
				return "v1"
			},
		},
		{
			name: "raced admission",
			stage: func(t *testing.T, h *harness, key string) string {
				h.leaf().up.beforeReply(key, func() {
					update(h, key, "v2")
					h.quiesce()
				})
				if _, body, _ := h.leaf().get(key); body != "v1" {
					t.Fatalf("test premise: admitted %q, want the version read before the update", body)
				}
				return "v2"
			},
		},
		{
			name: "failed pushed poll",
			stage: func(t *testing.T, h *harness, key string) string {
				px := h.leaf()
				px.get(key)
				h.clk.AdvanceTo(h.clk.Now().Add(ttrMin / 2))
				px.up.fail(key, true)
				update(h, key, "v2")
				h.quiesce()
				if px.UpstreamStatus().Errors != 1 {
					t.Fatal("the pushed poll never failed")
				}
				px.up.fail(key, false)
				return "v2"
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const key = "/k/doc"
			h := newHarness(t, leaseTopology(Config{
				MaxObjects:   4,
				Shards:       1,
				PollWorkers:  1,
				DiskDir:      t.TempDir(),
				DefaultDelta: ttrMin,
				Bounds:       core.TTRBounds{Min: ttrMin, Max: 10 * time.Second},
			}, true))
			px := h.leaf()
			h.origin.Set(key, []byte("v1"), "")
			// Validated strictly inside the lease epoch the connect began.
			h.clk.AdvanceTo(h.clk.Now().Add(ttrMin / 10))
			want := tc.stage(t, h, key)

			// The override's immediate poll waits behind a held one, and the
			// entry is demoted before it runs.
			release := holdWorker(t, h)
			if _, ok := px.OverrideTolerance(key, 2*ttrMin, 0); !ok {
				t.Fatal("override refused for a resident key")
			}
			px.FlushDisk()
			rec, written := px.disk.Meta(key)
			demote(t, h, key)
			release()
			if tc.carried && (!written || rec.Delta != 2*ttrMin) {
				t.Errorf("carried entry's record not journaled with the new Δ: %+v (present %v)", rec, written)
			}

			before := px.up.requestsFor(key)
			code, body, _ := px.get(key)
			if code != http.StatusOK || body != want {
				t.Errorf("promotion served %d %q, want the origin's current %q", code, body, want)
			}
			fetched, leased := px.up.requestsFor(key)-before, px.DiskStats().LeasedPromotions
			switch {
			case tc.carried && (fetched != 0 || leased != 1):
				t.Errorf("carried record: %d origin requests and %d leased promotions, want none and one", fetched, leased)
			case !tc.carried && (fetched != 1 || leased != 0):
				t.Errorf("%d origin requests and %d leased promotions, want one fetch and none", fetched, leased)
			}
		})
	}
}

// TestLeaseRefusedWhenFetchStraddlesAnEpoch: a fetch whose response was
// built before the current lease epoch began — an admission before the
// first connect, or before a connect whose Reset announced a hole, or a
// resident key's poll across such a connect — installs after the
// connect, when the channel is healthy; but the update lost in the gap
// is never announced, and the connect's sweep ran before the entry
// existed (or while its poll was in flight). The copy must take no lease
// (its paper-mode poll catches the update) and leave no record that
// passes for carried (a promotion fetches).
func TestLeaseRefusedWhenFetchStraddlesAnEpoch(t *testing.T) {
	const ttrMin = 200 * time.Millisecond
	for _, fetch := range []string{"admission, first connect", "admission, connect-time Reset", "poll, connect-time Reset"} {
		for _, check := range []string{"lease", "record"} {
			t.Run(fetch+"/"+check, func(t *testing.T) {
				firstConnect := fetch == "admission, first connect"
				poll := fetch == "poll, connect-time Reset"
				h := newHarness(t, leaseTopology(Config{
					MaxObjects:   4,
					Shards:       1,
					DiskDir:      t.TempDir(),
					DefaultDelta: ttrMin,
					Bounds:       core.TTRBounds{Min: ttrMin, Max: 10 * time.Second},
				}, !firstConnect))
				px, hub := h.leaf(), h.tp.hub
				// A phase far past the TTR, so a lease taken by mistake cannot
				// pass for the paper-mode poll.
				key := "/r/0"
				for i := 1; px.lease.phase(key, ttrMin) < 10*ttrMin; i++ {
					key = fmt.Sprintf("/r/%d", i)
				}
				h.origin.Set(key, []byte("v1"), "")
				// goDark takes the event endpoint down; comeBack brings it up
				// again once the update is published where no stream listens,
				// announcing a hole when the resuming stream must be Reset.
				goDark := func() {
					hub.SetAvailable(false)
					h.quiesce()
				}
				comeBack := func() {
					if !firstConnect {
						hub.Reset()
					}
					hub.SetAvailable(true)
					h.quiesce()
				}
				if !firstConnect {
					// A stream position to resume from, so the reconnect can
					// be told to Reset.
					update(h, "/elsewhere", "x")
					h.quiesce()
				}
				if poll {
					px.get(key)
					wantLeased(t, px, key, scheduleOf(t, px, key, 1))
				} else if !firstConnect {
					goDark()
				}

				// Once the response is built, the update is lost in the gap
				// and the channel comes back before the response is written.
				if poll {
					held := px.up.hold(t, key)
					started := h.clk.Now()
					px.reschedule(px.lookup(key), started)
					held.wait(t)
					goDark()
					update(h, key, "v2")
					comeBack()
					held.release()
					h.quiesce()
					if _, _, ok := regularSince(px, key, started); !ok {
						t.Fatal("the poll never completed")
					}
					if b, _ := px.CachedBody(key); string(b) != "v1" {
						t.Fatalf("the poll installed %q, want the response built before the update", b)
					}
				} else {
					px.up.beforeReply(key, func() {
						update(h, key, "v2")
						comeBack()
					})
					if _, body, _ := px.get(key); body != "v1" {
						t.Fatalf("admitted %q, want the response built before the update", body)
					}
				}
				if hs := hub.Stats(); !firstConnect && hs.ResumeHoles != 1 {
					t.Fatalf("test premise: the reconnect was not told to Reset: %+v", hs)
				}
				if check == "lease" {
					// Within the paper-mode TTR: ttrMin, or its growth by the
					// poll.
					h.advance(2 * ttrMin)
					if b, _ := px.CachedBody(key); string(b) != "v2" {
						snap := scheduleOf(t, px, key, 1)
						t.Fatalf("update still invisible %v after the fetch: next poll %v after validation, paper-mode %v",
							2*ttrMin, snap.next.Sub(snap.validatedAt), snap.ttr())
					}
					return
				}
				// Demoted before its paper-mode poll, and promoted again.
				px.FlushDisk()
				demote(t, h, key)
				if _, body, _ := px.get(key); body != "v2" {
					t.Errorf("promotion served %q, want the origin's v2", body)
				}
			})
		}
	}
}

// TestGroupTriggerSkipsCarriedSibling pins §3.2 triggering under a lease.
// A group member's update — here a pushed payload — polls no sibling the
// live lease carries: the channel vouches for it, so the origin sees no
// request and the update's observation credits the sibling with a sync
// instant. Every other row stages one reason the channel cannot vouch for
// the sibling (each before the sibling's own next poll could lease it
// again), and the sibling is polled on the update's behalf: by a
// triggered poll, or — when its own poll is already queued — by that
// poll.
func TestGroupTriggerSkipsCarriedSibling(t *testing.T) {
	const (
		ttr     = time.Minute
		delta   = time.Second // the group's δ
		updater = "/a/doc"
	)
	const (
		vouched   = "vouched"   // carried: no request, one sync instant
		triggered = "triggered" // a §3.2 triggered poll
		due       = "due"       // its own poll, already queued
	)
	cases := []struct {
		name string
		sib  string // the sibling's key; "/b/doc" when empty
		cfg  func(*Config)
		// admit runs before the sibling's admission fetch.
		admit func(t *testing.T, h *harness, sib string)
		// spoil runs once both members are resident, and may return a hook
		// run after the update's event was handled.
		spoil func(t *testing.T, h *harness, sib string) (afterEvent func())
		want  string
	}{
		{name: "carried", want: vouched},
		{name: "leases off", cfg: func(cfg *Config) { cfg.PushStretch = 1 }, want: triggered},
		{
			// The instant a disconnect has cleared the channel's health and
			// not yet swept the leased schedules back.
			name: "channel down, before its sweep",
			spoil: func(t *testing.T, h *harness, sib string) func() {
				h.leaf().lease.healthy.Store(false)
				return nil
			},
			want: triggered,
		},
		{
			name: "mid-stream Reset",
			spoil: func(t *testing.T, h *harness, sib string) func() {
				h.tp.hub.Reset()
				h.quiesce()
				if st := h.leaf().PushStats(); st.Resets != 1 {
					t.Fatalf("Reset never handled: %+v", st)
				}
				return nil
			},
			want: triggered,
		},
		{
			name: "frame loss",
			spoil: func(t *testing.T, h *harness, sib string) func() {
				h.leaf().handlePushFrameLoss() // as the subscriber reports a dropped line
				return nil
			},
			want: triggered,
		},
		{
			name: "Bounce",
			spoil: func(t *testing.T, h *harness, sib string) func() {
				h.leaf().sub.Bounce()
				h.quiesce()
				if st := h.leaf().PushStats(); st.Bounces != 1 || st.Connects != 2 || !st.Connected {
					t.Fatalf("never came back from the bounce: %+v", st)
				}
				return nil
			},
			want: triggered,
		},
		{
			name: "raced admission",
			admit: func(t *testing.T, h *harness, sib string) {
				h.leaf().up.beforeReply(originPath(sib), func() {
					update(h, sib, "b2")
					h.quiesce()
				})
			},
			want: triggered,
		},
		{
			name: "straddled fetch",
			admit: func(t *testing.T, h *harness, sib string) {
				h.leaf().up.beforeReply(originPath(sib), h.leaf().handlePushFrameLoss)
			},
			want: triggered,
		},
		{
			// The sibling's leased audit falls due and is queued behind the
			// update's job on their shared worker: off the heap, though its
			// schedule still reads leased.
			name: "sibling in flight",
			cfg:  func(cfg *Config) { cfg.PollWorkers = 1 },
			spoil: func(t *testing.T, h *harness, sib string) func() {
				release := holdWorker(t, h)
				return func() {
					px := h.leaf()
					e := px.lookup(sib)
					px.schedMu.Lock()
					audit := e.nextAt
					px.schedMu.Unlock()
					h.clk.AdvanceTo(audit)
					h.quiesce()
					px.schedMu.Lock()
					dispatched := e.item == nil && e.baseNextAt.Before(e.nextAt)
					px.schedMu.Unlock()
					if !dispatched {
						t.Fatal("the sibling's leased audit was never dispatched")
					}
					release()
				}
			},
			want: due,
		},
		{name: "query-bearing sibling", sib: "/b/doc?x=1", want: triggered},
		{
			// Admitted outside the live declaration; the bounce that widens
			// it leaves the sibling unleased until its own next poll.
			name: "undeclared sibling",
			cfg: func(cfg *Config) {
				cfg.PushInterest, cfg.PushPrefixes = true, []string{"/a/"}
			},
			spoil: func(t *testing.T, h *harness, sib string) func() {
				h.quiesce()
				px := h.leaf()
				if st := px.PushStats(); st.Bounces != 1 || st.Connects != 2 || !st.Connected {
					t.Fatalf("never came back from the bounce: %+v", st)
				}
				if !px.sub.DeclaredInterest().Matches(sib) {
					t.Fatal("test premise: the bounce did not widen the declaration")
				}
				return nil
			},
			want: triggered,
		},
		{name: "unpushable sibling", sib: "/b/" + strings.Repeat("k", 4200), want: triggered},
		{
			// Failing a while after the validation, so the retry lands past
			// the paper-mode instant: pulled forward to it, the schedule
			// would still read leased.
			name: "failed pushed poll awaiting retry",
			spoil: func(t *testing.T, h *harness, sib string) func() {
				px := h.leaf()
				h.clk.AdvanceTo(h.clk.Now().Add(5 * time.Second))
				px.up.fail(originPath(sib), true)
				update(h, sib, "b2") // no payload: the job polls
				h.quiesce()
				if px.UpstreamStatus().Errors != 1 {
					t.Fatal("the pushed poll never failed")
				}
				px.up.fail(originPath(sib), false)
				return nil
			},
			want: triggered,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sib := tc.sib
			if sib == "" {
				sib = "/b/doc"
			}
			cfg := Config{
				Mode:              core.TriggerAll,
				PushValues:        true,
				DefaultDelta:      ttr,
				DefaultGroupDelta: delta,
				Bounds:            core.TTRBounds{Min: ttr, Max: 10 * time.Minute},
			}
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			h := newHarness(t, leaseTopology(cfg, true))
			px := h.leaf()
			for _, p := range []string{updater, originPath(sib)} {
				h.origin.Set(p, []byte("v1"), "")
				h.origin.SetTolerances(p, httpx.Tolerances{Group: "g", GroupDelta: delta})
			}
			// Admitted strictly inside the lease epoch the connect began.
			h.clk.AdvanceTo(h.clk.Now().Add(time.Second))
			px.get(updater)
			if tc.admit != nil {
				tc.admit(t, h, sib)
			}
			if code, _, _ := px.get(sib); code != http.StatusOK {
				t.Fatalf("admission of the sibling: status %d", code)
			}
			var afterEvent func()
			if tc.spoil != nil {
				afterEvent = tc.spoil(t, h, sib)
			}

			// Both validations now lie beyond δ, and the sibling's next poll
			// — paper-mode or leased — at least a TTR ahead.
			h.clk.AdvanceTo(h.clk.Now().Add(10 * time.Second))
			requests, updaterRequests := px.up.requestsFor(originPath(sib)), px.up.requestsFor(updater)
			seen := len(px.observations())
			updateValue(h, updater, "v2")
			h.quiesce()
			if afterEvent != nil {
				afterEvent()
			}
			h.quiesce()

			if b, _ := px.CachedBody(updater); string(b) != "v2" {
				t.Fatalf("test premise: the update was not installed: %q", b)
			}
			fetched := px.up.requestsFor(originPath(sib)) - requests
			trig := px.ObjectStats(sib).Triggered
			syncs := px.CacheStats().GroupChannelSyncs
			var credited []string
			for _, o := range px.observations()[seen:] {
				credited = append(credited, o.Vouched...)
			}
			switch tc.want {
			case vouched:
				if fetched != 0 || trig != 0 || syncs != 1 || len(credited) != 1 || credited[0] != sib {
					t.Errorf("carried sibling: %d requests, %d triggered polls, %d channel syncs, vouched %q; want none, none, one, [%s]",
						fetched, trig, syncs, credited, sib)
				}
				if got := px.up.requestsFor(updater) - updaterRequests; got != 0 {
					t.Errorf("the pushed update cost %d origin requests, want none", got)
				}
			case triggered, due:
				wantTrig := uint64(0)
				if tc.want == triggered {
					wantTrig = 1
				}
				if fetched != 1 || trig != wantTrig || syncs != 0 || len(credited) != 0 {
					t.Errorf("%d requests, %d triggered polls, %d channel syncs, vouched %q; want one, %d, none, none",
						fetched, trig, syncs, credited, wantTrig)
				}
			}
		})
	}
}

// TestLeaseTermResolution: L = PushStretch × Bounds.Max, off without a
// push URL or at factors ≤ 1, and capped where the product would
// overflow a Duration.
func TestLeaseTermResolution(t *testing.T) {
	u, _ := url.Parse("http://origin.invalid/events")
	const ceiling = 100 * 365 * 24 * time.Hour
	cases := []struct {
		name    string
		url     *url.URL
		stretch float64
		max     time.Duration
		want    time.Duration
	}{
		{"no push URL", nil, 4, 8 * time.Second, 0},
		{"factor 1", u, 1, 8 * time.Second, 0},
		{"factor below 1", u, 0.5, 8 * time.Second, 0},
		{"default factor", u, 4, 8 * time.Second, 32 * time.Second},
		{"fractional factor", u, 2.5, 8 * time.Second, 20 * time.Second},
		{"default upper bound", u, 2, 0, 2 * core.DefaultTTRMax},
		{"overflowing factor", u, 1e30, 8 * time.Second, ceiling},
		{"infinite factor", u, math.Inf(1), 8 * time.Second, ceiling},
	}
	for _, c := range cases {
		p := &Proxy{cfg: Config{PushURL: c.url, PushStretch: c.stretch, Bounds: core.TTRBounds{Max: c.max}}}
		if got := p.resolveLeaseTerm(); got != c.want {
			t.Errorf("%s: lease term %v, want %v", c.name, got, c.want)
		}
	}
}
