package webproxy

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"broadway/internal/httpx"
)

// Tests for batched lease audits (see audit.go): the keys due in one audit
// bucket cost one request per batch and one validation each; a batch
// catches what the single GETs it replaces would have caught; and an
// upstream that cannot answer one, a failed batch, or an epoch that ends
// while one is in flight all leave the lease where the per-key path
// would.

// oneBucket reschedules keys as if each had just been validated at the
// current instant in the current epoch, so their next audits share one
// bucket, and returns that bucket's instant.
func oneBucket(t *testing.T, h *harness, px *node, keys []string) time.Time {
	t.Helper()
	now, epoch := h.clk.Now(), px.lease.epoch.Load()
	ttr := px.cfg.Bounds.Min
	due := bucketed(px, now.Add(px.lease.term), now.Add(ttr))
	for _, k := range keys {
		e := px.lookup(k)
		px.rescheduleHybrid(e, now, ttr, time.Time{}, epoch)
		if snap := scheduleOf(t, px, k, 1); !snap.next.Equal(due) {
			t.Fatalf("%s audited %v after now, want the bucket at %v", k, snap.next.Sub(now), due.Sub(now))
		}
	}
	return due
}

// audits counts key's regular polls answered at instant at.
func audits(px *node, at time.Time) map[string]int {
	n := make(map[string]int)
	for _, o := range px.observations() {
		if !o.Initial && !o.Triggered && !o.Pushed && o.At.Equal(at) {
			n[o.Key]++
		}
	}
	return n
}

// TestAuditBucketCostsOneRequestPerBatch: N leased keys due in one bucket
// cost ⌈N/cap⌉ upstream requests, and each is still validated once — one
// 304 at the origin, one poll observation, one request in the harness's
// per-key count — and leased again.
func TestAuditBucketCostsOneRequestPerBatch(t *testing.T) {
	const n = 2*httpx.MaxAuditLines + 3
	h := newHarness(t, leaseTopology(Config{}, true))
	px := h.leaf()
	keys := admit(t, h, n)
	due := oneBucket(t, h, px, keys)
	before := h.origin.Stats()

	h.advance(due.Sub(h.clk.Now()))
	const batches = (n + httpx.MaxAuditLines - 1) / httpx.MaxAuditLines
	after := h.origin.Stats()
	if got := px.up.auditBatches(); got != batches {
		t.Errorf("%d audit batches sent for %d keys, want ⌈N/%d⌉ = %d", got, n, httpx.MaxAuditLines, batches)
	}
	if got := px.CacheStats().AuditBatches; got != batches {
		t.Errorf("CacheStats.AuditBatches %d, want %d", got, batches)
	}
	if got := after.AuditBatches - before.AuditBatches; got != batches {
		t.Errorf("origin answered %d batches, want %d", got, batches)
	}
	if polls, nm := after.Polls-before.Polls, after.NotModified-before.NotModified; polls != n || nm != n {
		t.Errorf("origin counted %d polls and %d 304s, want one of each per key (%d)", polls, nm, n)
	}
	seen := audits(px, due)
	for _, k := range keys {
		if seen[k] != 1 {
			t.Fatalf("%s observed %d audits at the bucket, want 1", k, seen[k])
		}
		if got := px.up.requestsFor(k); got != 2 {
			t.Fatalf("%s: %d upstream requests counted, want the admission and its batch line", k, got)
		}
		wantLeased(t, px, k, scheduleOf(t, px, k, 2))
	}
}

// TestBatchedAuditCatchesSilentUpstream is the staleness table's silent
// row through batches: an update the channel never announces reaches
// every key within L of its validation, whether the leaf audits the origin
// or a parent that audits it in turn, and the audits travelled in batches.
func TestBatchedAuditCatchesSilentUpstream(t *testing.T) {
	for _, hops := range []int{1, 2} {
		t.Run(map[int]string{1: "origin", 2: "parent"}[hops], func(t *testing.T) {
			tp := leaseTopology(Config{}, true)
			tp.hops = hops
			h := newHarness(t, tp)
			keys := admit(t, h, 64)
			for i := 0; i < len(keys); i += 2 {
				h.origin.Set(keys[i], []byte("v2"), "") // never announced
			}
			h.advance(h.leaf().lease.term)
			for i, k := range keys {
				want := map[bool]string{true: "v2", false: "v1"}[i%2 == 0]
				if b, _ := h.leaf().CachedBody(k); string(b) != want {
					t.Errorf("%s = %q a lease term after its validation, want %q", k, b, want)
				}
			}
			for i, n := range h.nodes {
				if n.up.auditBatches() == 0 {
					t.Errorf("node %d audited without a batch", i)
				}
			}
		})
	}
}

// TestBatchedAuditCarriesToleranceChange: a Cache-Control change, which no
// event carries, lands within L through a batch: the line's token no
// longer matches, so the key is listed and its own GET brings the
// directive.
func TestBatchedAuditCarriesToleranceChange(t *testing.T) {
	h := newHarness(t, leaseTopology(Config{}, true))
	px := h.leaf()
	keys := admit(t, h, 16)
	tol := httpx.Tolerances{Delta: 7 * time.Second}
	h.origin.SetTolerances(keys[3], tol)
	h.advance(px.lease.term)
	if _, _, hdr := px.get(keys[3]); hdr.Get("Cache-Control") != tol.FormatCacheControl() {
		t.Errorf("Cache-Control %q a lease term after the change, want %q", hdr.Get("Cache-Control"), tol.FormatCacheControl())
	}
	if px.up.auditBatches() == 0 {
		t.Error("audited without a batch")
	}
}

// TestAuditBatchRefusedUntilReconnect: an upstream that answers a batch
// 404 is audited key by key from then on, until the push stream
// reconnects, when the next bucket tries a batch again.
func TestAuditBatchRefusedUntilReconnect(t *testing.T) {
	tp := leaseTopology(Config{}, true)
	tp.refuseAudits = true
	h := newHarness(t, tp)
	px := h.leaf()
	keys := admit(t, h, 4)
	bucket := func(want int) {
		t.Helper()
		due := oneBucket(t, h, px, keys)
		h.advance(due.Sub(h.clk.Now()))
		if got := px.up.auditBatches(); got != want {
			t.Fatalf("%d batches sent, want %d", got, want)
		}
		seen := audits(px, due)
		for _, k := range keys {
			if seen[k] != 1 {
				t.Fatalf("%s observed %d audits at the bucket, want 1", k, seen[k])
			}
		}
	}
	bucket(1) // refused, then polled key by key
	bucket(1) // remembered
	px.sub.Bounce()
	h.quiesce()
	if st := px.PushStats(); st.Connects != 2 || !st.Connected {
		t.Fatalf("never reconnected: %+v", st)
	}
	bucket(2) // asked again
	if n := px.up.requestsFor(keys[0]); n != 4 {
		t.Errorf("%s: %d upstream requests, want the admission and three GETs", keys[0], n)
	}
}

// TestFailedAuditBatchPollsPerKey: a batch the upstream fails (here a
// 503) vouches for nothing: every key it carried polls by itself at once,
// and since the failure says nothing about the grammar, the next bucket
// tries a batch again.
func TestFailedAuditBatchPollsPerKey(t *testing.T) {
	h := newHarness(t, leaseTopology(Config{}, true))
	px := h.leaf()
	keys := admit(t, h, 4)
	px.up.fail(httpx.AuditPath, true)
	due := oneBucket(t, h, px, keys)
	h.advance(due.Sub(h.clk.Now()))
	seen := audits(px, due)
	for _, k := range keys {
		if got := px.up.requestsFor(k); got != 2 || seen[k] != 1 {
			t.Errorf("%s: %d upstream requests and %d audits, want the admission and one GET, one audit", k, got, seen[k])
		}
	}
	if st := px.UpstreamStatus(); st.Errors != 1 || !strings.Contains(st.LastError, "503") {
		t.Errorf("upstream status %+v, want the failed batch as its one error", st)
	}
	px.up.fail(httpx.AuditPath, false)
	due = oneBucket(t, h, px, keys)
	h.advance(due.Sub(h.clk.Now()))
	if got := px.up.auditBatches(); got != 2 {
		t.Errorf("%d batches sent, want the failed one and the next bucket's", got)
	}
}

// TestAuditBatchAcrossResetGrantsNoLease: a batch sent in one lease epoch
// and answered in the next speaks for the old one, as a GET's 304 would:
// its keys are validated but placed at their paper-mode instants.
func TestAuditBatchAcrossResetGrantsNoLease(t *testing.T) {
	h := newHarness(t, leaseTopology(Config{}, true))
	px := h.leaf()
	keys := admit(t, h, 8)
	due := oneBucket(t, h, px, keys)
	held := px.up.hold(t, httpx.AuditPath)
	h.clk.AdvanceTo(due)
	px.Kick()
	held.wait(t)
	h.tp.hub.Reset()
	h.quiesce()
	if st := px.PushStats(); st.Resets != 1 {
		t.Fatalf("Reset never handled: %+v", st)
	}
	held.release()
	h.quiesce()
	seen := audits(px, due)
	for _, k := range keys {
		if seen[k] != 1 {
			t.Fatalf("%s observed %d audits at the bucket, want the batch's 1", k, seen[k])
		}
		if snap := scheduleOf(t, px, k, 2); snap.leased() {
			t.Errorf("%s leased %v past its paper-mode instant on a batch answered across a Reset",
				k, snap.next.Sub(snap.base))
		}
	}
	if got := px.up.auditBatches(); got != 1 {
		t.Errorf("%d batches sent, want 1", got)
	}
}

// TestAuditPassesBoundedByWorkers: each dispatcher pass of audits holds
// one of PollWorkers slots while its batches are in flight; a pass that
// finds none free — a slow upstream — polls its keys one by one on the
// workers instead of piling up requests.
func TestAuditPassesBoundedByWorkers(t *testing.T) {
	h := newHarness(t, leaseTopology(Config{}, true)) // one poll worker
	px := h.leaf()
	keys := admit(t, h, 8)
	first, second := keys[:4], keys[4:]
	dueFirst := oneBucket(t, h, px, first)
	h.advance(px.lease.term / 32)
	dueSecond := oneBucket(t, h, px, second)
	if !dueFirst.Before(dueSecond) {
		t.Fatalf("test premise: buckets at %v and %v", dueFirst, dueSecond)
	}
	held := px.up.hold(t, httpx.AuditPath)
	h.clk.AdvanceTo(dueFirst)
	px.Kick()
	held.wait(t)
	h.clk.AdvanceTo(dueSecond)
	h.quiesce()
	if got := px.up.auditBatches(); got != 1 {
		t.Errorf("%d batches sent with the only slot taken, want the held one", got)
	}
	for _, k := range second {
		if got := px.up.requestsFor(k); got != 2 {
			t.Errorf("%s: %d upstream requests, want the admission and its own GET", k, got)
		}
	}
	held.release()
	h.quiesce()
	seen := audits(px, dueSecond) // answered once the clock had moved on
	for _, k := range first {
		if seen[k] != 1 {
			t.Errorf("%s observed %d audits, want the held batch's 1", k, seen[k])
		}
	}
}

// TestParentListsWhatItCannotVouchFor: a parent answers a child's batch
// from its cache as it would each conditional GET — a resident, validated
// copy no newer than the child's, with the child's Cache-Control, is
// vouched for and counted a hit — and lists every other key: one not
// resident, one still suspect, one changed since the child's copy, and
// one whose Cache-Control the child does not hold.
func TestParentListsWhatItCannotVouchFor(t *testing.T) {
	h := newHarness(t, topology{hops: 2, push: true})
	root := h.root()
	for _, k := range []string{"/ok", "/suspect", "/changed", "/cc"} {
		h.origin.Set(k, []byte("v1"), "")
	}
	h.origin.SetTolerances("/cc", httpx.Tolerances{Delta: 9 * time.Second})
	for _, k := range []string{"/ok", "/suspect", "/changed", "/cc"} {
		h.leaf().get(k)
	}
	h.quiesce()
	root.lookup("/suspect").state.Or(stateSuspect)
	lastMod := modTime(h, "/ok")
	line := func(key string, since time.Time, cc string) httpx.AuditLine {
		return httpx.AuditLine{Key: key, Since: since, Token: httpx.CacheControlToken(cc)}
	}
	var body []byte
	for _, l := range []httpx.AuditLine{
		line("/ok", lastMod, ""),
		line("/absent", lastMod, ""),
		line("/suspect", lastMod, ""),
		line("/changed", lastMod.Add(-time.Second), ""),
		line("/cc", lastMod, ""),
	} {
		body = httpx.AppendAuditLine(body, l)
	}
	hits := root.ObjectStats("/ok").Hits

	req := httptest.NewRequest(http.MethodPost, httpx.AuditPath, bytes.NewReader(body))
	req.Header.Set("Content-Type", httpx.AuditContentType)
	code, answer, _ := root.do(req)
	if code != http.StatusOK {
		t.Fatalf("batch answered %d: %s", code, answer)
	}
	listed, err := httpx.ParseAuditAnswer([]byte(answer))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"/absent", "/suspect", "/changed", "/cc"}
	if len(listed) != len(want) {
		t.Fatalf("listed %q, want %q", listed, want)
	}
	for i := range want {
		if listed[i].Key != want[i] || listed[i].Status != 0 {
			t.Fatalf("listed %+v, want %q plain", listed, want)
		}
	}
	if got := root.ObjectStats("/ok").Hits; got != hits+1 {
		t.Errorf("vouched key counted %d hits, want one more than %d", got, hits)
	}
	if root.lookup("/ok").state.Load()&stateAccessed == 0 {
		t.Error("vouched key's CLOCK bit not set")
	}
}
