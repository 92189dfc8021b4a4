package webproxy

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"broadway/internal/core"
	"broadway/internal/httpx"
	"broadway/internal/webserver"
)

// Tests for batched pull-mode polls (see audit.go and popLocked): a pass
// that pops an unleased poll takes every unleased poll due within the
// piggyback window along, early only; leased audits keep their grid; a
// lone poll is a GET; every upstream answers batches, push or no push;
// and a refusing upstream is polled key by key until the back-off ends.

// placeAt puts key's next regular poll at at, unleased.
func placeAt(t *testing.T, px *node, key string, at time.Time) {
	t.Helper()
	e := px.lookup(key)
	if e == nil {
		t.Fatalf("%s not resident", key)
	}
	px.reschedule(e, at)
}

// TestPullPollsWithinWindowCostOneRequestPerBatch: N unleased keys due
// within the window of the first cost ⌈N/cap⌉ upstream requests and one
// validation each — one 304 at the origin, one poll observation at the
// pass's instant — and each key's next poll lands where a GET answered 304
// at that instant puts it, on a twin proxy whose upstream refuses batches.
// N is one past a multiple of the cap: batches split evenly, so no key is
// left over for a GET of its own.
func TestPullPollsWithinWindowCostOneRequestPerBatch(t *testing.T) {
	const n = 2*httpx.MaxAuditLines + 1
	run := func(refuse bool) (*harness, []string, time.Time, webserver.OriginStats) {
		h := newHarness(t, topology{refuseAudits: refuse})
		px := h.leaf()
		keys := admit(t, h, n)
		t0 := h.clk.Now().Add(px.cfg.Bounds.Min / 2)
		w := px.piggybackWindow()
		for i, k := range keys {
			at := t0
			if !refuse {
				at = t0.Add(w * time.Duration(i) / n) // spread over [t0, t0+w)
			}
			placeAt(t, px, k, at)
		}
		before := h.origin.Stats()
		h.stepTo(t0)
		h.quiesce()
		return h, keys, t0, before
	}
	twin, _, _, _ := run(true)
	h, keys, t0, before := run(false)
	px := h.leaf()

	const batches = (n + httpx.MaxAuditLines - 1) / httpx.MaxAuditLines
	if got := px.up.auditBatches(); got != batches {
		t.Errorf("%d batches sent for %d keys due within the window, want ⌈N/%d⌉ = %d", got, n, httpx.MaxAuditLines, batches)
	}
	after := h.origin.Stats()
	if polls, nm := after.Polls-before.Polls, after.NotModified-before.NotModified; polls != n || nm != n {
		t.Errorf("origin counted %d polls and %d 304s, want one of each per key (%d)", polls, nm, n)
	}
	seen := audits(px, t0)
	for _, k := range keys {
		if seen[k] != 1 {
			t.Fatalf("%s observed %d polls at the pass, want 1", k, seen[k])
		}
		if got := px.up.requestsFor(k); got != 2 {
			t.Fatalf("%s: %d upstream requests counted, want the admission and its batch line", k, got)
		}
		got, want := scheduleOf(t, px, k, 2).next, scheduleOf(t, twin.leaf(), k, 2).next
		if !got.Equal(want) {
			t.Fatalf("%s next polls %v after the pass, want %v as after a GET's 304", k, got.Sub(t0), want.Sub(t0))
		}
	}
}

// TestPullPollsNeverLateNorEarlierThanWindow is the piggyback's property,
// on seeded random admissions and updates: no regular poll runs later than
// its instant, and none more than the window before it — and some ran
// early, in batches.
func TestPullPollsNeverLateNorEarlierThanWindow(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var (
				mu    sync.Mutex
				due   = make(map[string]time.Time) // each key's scheduled instant
				early int
				px    *node
			)
			check := func(o PollObservation) {
				if o.Triggered || o.Pushed {
					return
				}
				mu.Lock()
				defer mu.Unlock()
				if at, ok := due[o.Key]; ok && !o.Initial {
					switch w := px.piggybackWindow(); {
					case o.At.After(at):
						t.Errorf("%s polled %v after its instant", o.Key, o.At.Sub(at))
					case o.At.Before(at.Add(-w)):
						t.Errorf("%s polled %v before its instant, past the %v window", o.Key, at.Sub(o.At), w)
					case o.At.Before(at):
						early++
					}
				}
				due[o.Key] = px.scheduledNextAt(px.lookup(o.Key))
			}
			h := newHarness(t, topology{manual: true, cfg: Config{
				Bounds:       core.TTRBounds{Min: time.Second, Max: 20 * time.Second},
				PollObserver: check,
			}})
			px = h.leaf()
			h.start()
			const n = 48
			var steps []step
			for i := 0; i < n; i++ {
				key := fmt.Sprintf("/p/%d", i)
				h.origin.Set(key, []byte("v0"), "")
				// Admissions in clusters a few milliseconds apart, so
				// instants fall within one another's windows.
				at := time.Duration(rng.Intn(4))*time.Second + time.Duration(rng.Intn(50))*time.Millisecond
				steps = append(steps, step{at, func() { px.get(key) }})
				for u := 0; u < 3; u++ {
					rev := fmt.Sprintf("v%d", u+1)
					steps = append(steps, step{at + time.Duration(rng.Int63n(int64(90*time.Second))), func() { h.origin.Set(key, []byte(rev), "") }})
				}
			}
			h.play(2*time.Minute, steps)
			mu.Lock()
			defer mu.Unlock()
			if early == 0 || px.up.auditBatches() == 0 {
				t.Errorf("%d polls ran early in %d batches, want some of each", early, px.up.auditBatches())
			}
		})
	}
}

// TestLeasedAuditNeverPiggybacked: unleased polls due just before a leased
// key's audit bucket go in their own batch, and the audit still runs at
// its bucket's exact instant.
func TestLeasedAuditNeverPiggybacked(t *testing.T) {
	h := newHarness(t, leaseTopology(Config{}, true))
	px := h.leaf()
	keys := admit(t, h, 3)
	leased := keys[0]
	bucket := oneBucket(t, h, px, keys[:1])
	early := bucket.Add(-px.piggybackWindow() / 2)
	for _, k := range keys[1:] {
		placeAt(t, px, k, early)
	}
	h.stepTo(early)
	h.quiesce()
	if got := audits(px, early); got[leased] != 0 || got[keys[1]] != 1 || got[keys[2]] != 1 {
		t.Errorf("polls at the unleased keys' instant %v, want theirs and not the leased audit", got)
	}
	if got := px.up.auditBatches(); got != 1 {
		t.Errorf("%d batches for the unleased pair, want 1", got)
	}
	h.stepTo(bucket)
	h.quiesce()
	if got := audits(px, bucket)[leased]; got != 1 {
		t.Errorf("leased key observed %d audits at its bucket, want 1", got)
	}
	wantLeased(t, px, leased, scheduleOf(t, px, leased, 2))
}

// TestLonePullPollIsAGet: a pass with one key to validate polls it by
// conditional GET, and a key due just past the window waits for its own
// instant.
func TestLonePullPollIsAGet(t *testing.T) {
	h := newHarness(t, topology{})
	px := h.leaf()
	keys := admit(t, h, 2)
	at := h.clk.Now().Add(px.cfg.Bounds.Min / 2)
	later := at.Add(px.piggybackWindow() + time.Millisecond)
	placeAt(t, px, keys[0], at)
	placeAt(t, px, keys[1], later)
	h.stepTo(later)
	h.quiesce()
	if got := px.up.auditBatches(); got != 0 {
		t.Errorf("%d batches for lone polls, want none", got)
	}
	for k, when := range map[string]time.Time{keys[0]: at, keys[1]: later} {
		if got := audits(px, when)[k]; got != 1 {
			t.Errorf("%s observed %d polls at its instant, want 1", k, got)
		}
		if got := px.up.requestsFor(k); got != 2 {
			t.Errorf("%s: %d upstream requests, want the admission and one GET", k, got)
		}
	}
}

// TestPullParentAnswersChildBatch: with neither push nor RelayEvents, a
// parent answers its child's batch from its cache — a hit per key, no
// request of its own — as it answers the GETs the batch stands for.
func TestPullParentAnswersChildBatch(t *testing.T) {
	h := newHarness(t, topology{hops: 2})
	root, leaf := h.root(), h.leaf()
	keys := admit(t, h, 4)
	at := h.clk.Now().Add(leaf.cfg.Bounds.Min / 2)
	hits := make(map[string]uint64)
	for _, k := range keys {
		placeAt(t, leaf, k, at)
		placeAt(t, root, k, at.Add(leaf.cfg.Bounds.Min))
		hits[k] = root.ObjectStats(k).Hits
	}
	h.stepTo(at)
	h.quiesce()
	if got := leaf.up.auditBatches(); got != 1 || leaf.auditRefused.Load() != nil {
		t.Fatalf("child sent %d batches, refused %v; want one, answered", got, leaf.auditRefused.Load() != nil)
	}
	for _, k := range keys {
		if got := audits(leaf, at)[k]; got != 1 {
			t.Errorf("%s observed %d polls at the child, want 1", k, got)
		}
		if got := root.ObjectStats(k).Hits - hits[k]; got != 1 {
			t.Errorf("%s: parent counted %d hits for the batch, want 1", k, got)
		}
		if got := root.up.requestsFor(k); got != 1 {
			t.Errorf("%s: parent made %d upstream requests, want its admission alone", k, got)
		}
	}
}

// TestRefusedBatchPollsPerKeyUntilBackoff: an upstream that answers a
// batch 404 gets that one POST; every poll then runs at its own instant as
// a GET, none piggybacked, until auditRetryTerms × Bounds.Max have passed
// on a proxy with no push stream, when a pass batches again.
func TestRefusedBatchPollsPerKeyUntilBackoff(t *testing.T) {
	h := newHarness(t, topology{refuseAudits: true})
	px := h.leaf()
	keys := admit(t, h, 2)
	w := px.piggybackWindow()
	pass := func() time.Time {
		at := h.clk.Now().Add(px.cfg.Bounds.Min / 2)
		placeAt(t, px, keys[0], at)
		placeAt(t, px, keys[1], at.Add(w/2))
		h.stepTo(at.Add(w))
		h.quiesce()
		return at
	}

	at := pass()
	if got := px.up.auditBatches(); got != 1 || px.auditRefused.Load() == nil {
		t.Fatalf("%d batches, refusal remembered %v; want one, remembered", got, px.auditRefused.Load() != nil)
	}
	if got := audits(px, at); got[keys[0]] != 1 || got[keys[1]] != 1 {
		t.Errorf("polls at the refused pass %v, want both keys by GET at once", got)
	}

	at = pass()
	if got := px.up.auditBatches(); got != 1 {
		t.Errorf("%d batches while refused, want still 1", got)
	}
	if got0, got1 := audits(px, at)[keys[0]], audits(px, at.Add(w/2))[keys[1]]; got0 != 1 || got1 != 1 {
		t.Errorf("polls while refused: %d and %d at their own instants, want 1 and 1", got0, got1)
	}

	h.refusing.Store(false)
	h.advance(auditRetryTerms * px.cfg.Bounds.Max)
	sent := px.up.auditBatches()
	at = pass()
	if got := px.up.auditBatches() - sent; got != 1 {
		t.Errorf("%d batches after the back-off, want 1", got)
	}
	if got := audits(px, at); got[keys[0]] != 1 || got[keys[1]] != 1 {
		t.Errorf("polls after the back-off %v, want both keys in the pass", got)
	}
}

// TestBatchVouchedRehydratedKeyLeavesGrace: a rehydrated, suspect key the
// origin vouches for in a batch is served as a plain HIT afterwards, as
// after its GET's 304.
func TestBatchVouchedRehydratedKeyLeavesGrace(t *testing.T) {
	h := newHarness(t, topology{cfg: Config{DiskDir: t.TempDir()}})
	px := h.leaf()
	keys := admit(t, h, 2)
	px.Close()
	h.advance(time.Minute)
	px.reopen()
	for _, k := range keys {
		if _, _, hdr := px.get(k); hdr.Get("X-Cache") != "GRACE" {
			t.Fatalf("rehydrated %s labelled %q, want GRACE", k, hdr.Get("X-Cache"))
		}
	}
	sent, before := px.up.auditBatches(), h.origin.Stats()
	px.Start()
	h.quiesce()
	if got := px.up.auditBatches() - sent; got != 1 {
		t.Errorf("%d batches validated the rehydrated keys, want 1", got)
	}
	if got := h.origin.Stats().NotModified - before.NotModified; got != 2 {
		t.Errorf("origin vouched for %d keys, want 2", got)
	}
	for _, k := range keys {
		if code, _, hdr := px.get(k); code != http.StatusOK || hdr.Get("X-Cache") != "HIT" {
			t.Errorf("%s after the batch: %d labelled %q, want a HIT", k, code, hdr.Get("X-Cache"))
		}
	}
}

// TestFetchedBodyHasNoSpareCapacity: a fetched body is retained at its
// exact size.
func TestFetchedBodyHasNoSpareCapacity(t *testing.T) {
	h := newHarness(t, topology{})
	px := h.leaf()
	body := make([]byte, 1024)
	h.origin.Set("/kib", body, "")
	px.get("/kib")
	e := px.lookup("/kib")
	e.mu.RLock()
	defer e.mu.RUnlock()
	if len(e.body) != len(body) || cap(e.body) != len(body) {
		t.Errorf("retained body: len %d cap %d, want both %d", len(e.body), cap(e.body), len(body))
	}
}

// TestBatchAnsweredByNonSpeakerIsRefused: an upstream that answers the
// batch POST 200 with something other than a batch answer — as a handler
// serving every request alike does — vouches for nothing: the batch counts
// as refused and every key polls by GET, which sees its change.
func TestBatchAnsweredByNonSpeakerIsRefused(t *testing.T) {
	var mu sync.Mutex
	rev := "v1"
	lastMod := time.Unix(1_600_000_000, 0).UTC()
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		body, mod := rev, lastMod
		mu.Unlock()
		w.Header().Set("Last-Modified", mod.Format(http.TimeFormat))
		if since, err := http.ParseTime(r.Header.Get("If-Modified-Since")); err == nil && !mod.After(since) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		if r.Method == http.MethodPost {
			return // a 200 with an empty, untyped body
		}
		w.Write([]byte(body))
	})
	h := newHarness(t, topology{handler: handler})
	px := h.leaf()
	keys := []string{"/a", "/b"}
	for _, k := range keys {
		px.get(k)
	}
	mu.Lock()
	rev, lastMod = "v2", lastMod.Add(time.Hour)
	mu.Unlock()
	at := h.clk.Now().Add(px.cfg.Bounds.Min / 2)
	for _, k := range keys {
		placeAt(t, px, k, at)
	}
	h.stepTo(at)
	h.quiesce()
	if px.up.auditBatches() != 1 || px.auditRefused.Load() == nil {
		t.Errorf("%d batches, refusal remembered %v; want one, remembered", px.up.auditBatches(), px.auditRefused.Load() != nil)
	}
	for _, k := range keys {
		if b, _ := px.CachedBody(k); string(b) != "v2" {
			t.Errorf("%s = %q after the pass, want the changed v2", k, b)
		}
		if got := px.up.requestsFor(k); got != 2 {
			t.Errorf("%s: %d upstream requests, want the admission and one GET", k, got)
		}
	}
}
