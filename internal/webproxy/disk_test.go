package webproxy

// Tests for the persistent disk tier: kill-and-restart rehydration on
// the stepped clock (the Δt guarantee must hold across a process
// boundary), demotion keeping a working set larger than RAM servable,
// grace-window semantics, and two-tier eviction.

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"broadway/internal/core"
)

// ttrOf reads the learned TTR of a resident entry's policy.
func ttrOf(t *testing.T, px *node, key string) time.Duration {
	t.Helper()
	e := px.lookup(key)
	if e == nil {
		t.Fatalf("%s not resident", key)
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	tp, ok := e.policy.(interface{ TTR() time.Duration })
	if !ok {
		t.Fatalf("%s policy %T does not expose TTR", key, e.policy)
	}
	return tp.TTR()
}

// TestRestartRehydratesWarmZeroDeltaViolations is the kill-and-restart
// conformance replay: a proxy learns per-object TTRs on the stepped
// clock, shuts down, and a second proxy over the same -disk-dir must
// come back warm — every object resident before Start, served as
// X-Cache: GRACE until its single validation poll confirms it, learned
// TTR state intact — with no body ever served that violates Δt after
// validation, including an object the origin rewrote during the
// downtime.
func TestRestartRehydratesWarmZeroDeltaViolations(t *testing.T) {
	var mu sync.Mutex
	polls := make(map[string]int)
	h := newHarness(t, topology{cfg: Config{
		DefaultDelta: 30 * time.Second,
		Bounds:       core.TTRBounds{Min: 10 * time.Second, Max: 10 * time.Minute},
		DiskDir:      t.TempDir(),
		PollObserver: func(o PollObservation) {
			mu.Lock()
			polls[o.Key]++
			mu.Unlock()
		},
	}})
	px := h.leaf()

	const n = 6
	truth := make(map[string]string, n) // origin ground truth per key
	key := func(i int) string { return fmt.Sprintf("/d/%d", i) }
	for i := 0; i < n; i++ {
		truth[key(i)] = fmt.Sprintf("object %d rev 1", i)
		h.origin.Set(key(i), []byte(truth[key(i)]), "text/plain")
	}
	h.stepTo(h.clk.base.Add(admissionPhase))
	for i := 0; i < n; i++ {
		if code, body, _ := px.get(key(i)); code != 200 || body != truth[key(i)] {
			t.Fatalf("admission of %s: %d %q", key(i), code, body)
		}
	}
	h.quiesce()

	// Learn: three unmodified refresh rounds grow each object's TTR past
	// the lower bound; that learned schedule is what must survive.
	for round := 0; round < 3; round++ {
		next, ok := h.nextRefresh()
		if !ok {
			t.Fatal("nothing scheduled")
		}
		h.advance(next.Sub(h.clk.Now()))
	}
	learned := make(map[string]time.Duration, n)
	for i := 0; i < n; i++ {
		learned[key(i)] = ttrOf(t, px, key(i))
		if learned[key(i)] <= px.cfg.Bounds.Min {
			t.Fatalf("%s TTR %v never grew past the bound %v", key(i), learned[key(i)], px.cfg.Bounds.Min)
		}
	}
	px.Close()

	// Downtime: two minutes pass (inside the default 5m grace window),
	// during which the origin rewrites object 0.
	h.advance(2 * time.Minute)
	truth[key(0)] = "object 0 rev 2"
	h.origin.Set(key(0), []byte(truth[key(0)]), "text/plain")

	mu.Lock()
	polls = make(map[string]int)
	mu.Unlock()
	px.reopen()

	// Before Start: every object is back, learned TTR intact (no
	// validation poll has run yet to advance it), served under grace.
	if got := px.Len(); got != n {
		t.Fatalf("rehydrated %d objects, want %d", got, n)
	}
	if got := px.DiskStats().Rehydrated; got != n {
		t.Errorf("DiskStats.Rehydrated = %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		if got := ttrOf(t, px, key(i)); got != learned[key(i)] {
			t.Errorf("%s restored TTR = %v, want the learned %v", key(i), got, learned[key(i)])
		}
		code, body, hdr := px.get(key(i))
		if code != 200 {
			t.Fatalf("grace serve of %s: %d", key(i), code)
		}
		if hdr.Get("X-Cache") != "GRACE" {
			t.Errorf("pre-validation serve of %s labeled %q, want GRACE", key(i), hdr.Get("X-Cache"))
		}
		// The grace window bounds what this serve may be: the last
		// validated copy. Object 0's downtime rewrite is allowed to be
		// invisible here — but only here.
		if i != 0 && body != truth[key(i)] {
			t.Errorf("grace serve of %s = %q, want %q", key(i), body, truth[key(i)])
		}
	}
	if px.DiskStats().GraceServes == 0 {
		t.Error("no grace serves counted")
	}

	// Start drains the validation polls through the worker pool.
	px.Start()
	h.quiesce()

	// Exactly one validation poll per object — a restart must not herd.
	mu.Lock()
	for i := 0; i < n; i++ {
		if got := polls[key(i)]; got != 1 {
			t.Errorf("%s saw %d validation polls, want 1", key(i), got)
		}
	}
	mu.Unlock()

	// Validated: every serve is a plain HIT of the origin's current
	// body — the downtime rewrite included. Zero Δt violations remain.
	for i := 0; i < n; i++ {
		code, body, hdr := px.get(key(i))
		if code != 200 || body != truth[key(i)] {
			t.Errorf("post-validation serve of %s = %d %q, want 200 %q", key(i), code, body, truth[key(i)])
		}
		if hdr.Get("X-Cache") != "HIT" {
			t.Errorf("post-validation serve of %s labeled %q, want HIT", key(i), hdr.Get("X-Cache"))
		}
	}
}

// TestDemotionKeepsWorkingSetServableFromDisk pins the tier-transition
// semantics: a memory budget far below the working set keeps every
// object servable — CLOCK victims demote to disk and come back through
// a validating 304 that reuses the stored body, so no object's body is
// ever fetched from the origin twice.
func TestDemotionKeepsWorkingSetServableFromDisk(t *testing.T) {
	var mu sync.Mutex
	fullFetches := make(map[string]int)
	lastMod := time.Unix(1_700_000_000, 0).UTC().Add(-time.Hour)
	body := func(path string) string {
		b := fmt.Sprintf("payload of %s ", path)
		for len(b) < 1024 {
			b += "x"
		}
		return b
	}
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Last-Modified", lastMod.Format(http.TimeFormat))
		if ims := r.Header.Get("If-Modified-Since"); ims != "" {
			if since, err := http.ParseTime(ims); err == nil && !lastMod.After(since) {
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
		mu.Lock()
		fullFetches[r.URL.Path]++
		mu.Unlock()
		fmt.Fprint(w, body(r.URL.Path))
	})

	// ~1.5KiB per resident entry; 3200 bytes keeps roughly two of the
	// eight objects in memory at any instant.
	px := newHarness(t, topology{handler: handler, cfg: Config{
		MaxBytes:     3200,
		Shards:       2,
		Bounds:       noRefreshBounds,
		DefaultDelta: time.Hour,
		DiskDir:      t.TempDir(),
	}}).leaf()

	const n = 8
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("/w/%d", i)
		if code, got, _ := px.get(k); code != 200 || got != body(k) {
			t.Fatalf("first pass %s: %d (body len %d)", k, code, len(got))
		}
	}
	checkStoreInvariants(t, px)
	ds := px.DiskStats()
	if ds.Demotions == 0 {
		t.Fatal("no demotions: the byte budget did not displace anything")
	}

	// Second pass: everything is still servable — resident keys HIT,
	// demoted keys promote from disk via 304 — and the origin never
	// re-sends a body.
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("/w/%d", i)
		code, got, hdr := px.get(k)
		if code != 200 || got != body(k) {
			t.Fatalf("second pass %s: %d (body len %d)", k, code, len(got))
		}
		if xc := hdr.Get("X-Cache"); xc != "HIT" && xc != "MISS" {
			t.Errorf("second pass %s labeled %q", k, xc)
		}
	}
	checkStoreInvariants(t, px)
	if ds = px.DiskStats(); ds.Promotions == 0 {
		t.Error("no promotions: the second pass should have come back from disk")
	}
	mu.Lock()
	for k, c := range fullFetches {
		if c != 1 {
			t.Errorf("%s fetched in full %d times, want 1 (revalidation must 304)", k, c)
		}
	}
	if len(fullFetches) != n {
		t.Errorf("origin saw %d distinct objects, want %d", len(fullFetches), n)
	}
	mu.Unlock()

	// Two-tier agreement: after the write-behind drains, every object
	// lives in memory, on disk, or both — none were lost.
	px.FlushDisk()
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("/w/%d", i)
		_, onDisk := px.disk.Meta(k)
		if px.lookup(k) == nil && !onDisk {
			t.Errorf("%s vanished from both tiers", k)
		}
	}
}

// TestGraceWindowSkipsStaleRecords: records whose last validation is
// older than the grace window must not come back warm (that would silently
// widen Δt); they stay demoted and are promoted through a validating
// fetch on demand.
func TestGraceWindowSkipsStaleRecords(t *testing.T) {
	h := newHarness(t, topology{cfg: Config{
		DefaultDelta: 30 * time.Second,
		Bounds:       core.TTRBounds{Min: 10 * time.Second, Max: 10 * time.Minute},
		DiskDir:      t.TempDir(),
	}})
	px := h.leaf()
	h.origin.Set("/stale", []byte("stale body"), "text/plain")
	h.stepTo(h.clk.base.Add(admissionPhase))
	if code, _, _ := px.get("/stale"); code != 200 {
		t.Fatalf("admission: %d", code)
	}
	h.quiesce()
	px.Close()

	// Ten minutes of downtime blow way past the five-minute grace.
	h.advance(10 * time.Minute)

	px.reopen()
	px.Start()
	if got := px.Len(); got != 0 {
		t.Fatalf("%d objects rehydrated past the grace window, want 0", got)
	}
	if got := px.DiskStats().Rehydrated; got != 0 {
		t.Errorf("DiskStats.Rehydrated = %d, want 0", got)
	}

	// On demand the record promotes — validated first, so the serve is a
	// MISS (never GRACE) and Δt holds from the first byte.
	code, body, hdr := px.get("/stale")
	if code != 200 || body != "stale body" {
		t.Fatalf("promote-on-demand: %d %q", code, body)
	}
	if xc := hdr.Get("X-Cache"); xc != "MISS" {
		t.Errorf("promoted serve labeled %q, want MISS", xc)
	}
	if got := px.DiskStats().Promotions; got != 1 {
		t.Errorf("DiskStats.Promotions = %d, want 1", got)
	}
	if got, _, _ := px.get("/stale"); got != 200 {
		t.Errorf("re-serve after promotion: %d", got)
	}
}

// TestEvictPurgesBothTiers: admin eviction must not leave a disk record
// behind (the next request would resurrect supposedly-evicted content),
// and its return value distinguishes residency in either tier from a
// miss on both.
func TestEvictPurgesBothTiers(t *testing.T) {
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "evictable")
	})
	px := newHarness(t, topology{handler: handler, cfg: Config{
		Bounds:       noRefreshBounds,
		DefaultDelta: time.Hour,
		DiskDir:      t.TempDir(),
	}}).leaf()

	if code, _, _ := px.get("/e/1"); code != 200 {
		t.Fatal("admission failed")
	}
	px.FlushDisk()
	if _, ok := px.disk.Meta("/e/1"); !ok {
		t.Fatal("admitted object never reached the disk tier")
	}

	if !px.Evict("/e/1") {
		t.Fatal("Evict(/e/1) reported nothing to evict")
	}
	if _, ok := px.disk.Meta("/e/1"); ok {
		t.Error("disk record survived the eviction")
	}
	if px.Evict("/e/1") {
		t.Error("second Evict reported success on a key gone from both tiers")
	}
	if px.Evict("/never-seen") {
		t.Error("Evict of a never-cached key reported success")
	}
	px.FlushDisk()
	if px.DiskStats().Deletes == 0 {
		t.Error("DiskStats.Deletes = 0 after a two-tier eviction")
	}

	// The re-request is a cold fetch — nothing resurrects from disk.
	if code, body, _ := px.get("/e/1"); code != 200 || body != "evictable" {
		t.Fatalf("re-request after eviction: %d %q", code, body)
	}
	if fetches := px.up.requestsFor("/e/1"); fetches != 2 {
		t.Errorf("origin fetched %d times, want 2 (evicted content must not come back from disk)", fetches)
	}
}
