package webproxy

// Tests for the one way in: whatever source delivers a validated version
// — cold fetch, origin 200, origin 304, pushed full body, pushed delta,
// a push landed on a disk record followed by a promotion, a startup
// rehydration followed by its validation poll — the cache ends in the
// same consistent state and accounts for the event exactly once.

import (
	"bytes"
	"net/http"
	"reflect"
	"testing"
	"time"

	"broadway/internal/httpx"
	"broadway/internal/push"
)

// installTopology is one proxy (restartable over the same disk
// directory) on the stepped clock, left unstarted: nothing polls unless
// a test makes it due, so every observation is attributable to the step
// that caused it. Pushed events are injected by hand; no stream runs.
// The proxy relays (to no child), so its entries keep their body digests
// for a pushed delta to name as its base (see carriesValues).
func installTopology(t *testing.T) topology {
	return topology{manual: true, cfg: Config{
		DefaultDelta:      time.Hour,
		DefaultGroupDelta: 2 * time.Second,
		Bounds:            noRefreshBounds,
		DiskDir:           t.TempDir(),
	}, tune: func(_ int, cfg *Config) { cfg.RelayEvents = true }}
}

// setGrouped publishes a new version of key in group g at the origin and
// returns its Last-Modified (second-granular, as the origin stores it).
func setGrouped(h *harness, key string, body []byte) time.Time {
	h.origin.Set(key, body, "text/plain")
	h.origin.SetTolerances(key, httpx.Tolerances{Group: "g", GroupDelta: 2 * time.Second})
	return h.clk.Now().Truncate(time.Second)
}

// pollNow makes key's regular poll due and runs it.
func pollNow(h *harness, key string) {
	h.t.Helper()
	e := h.leaf().lookup(key)
	if e == nil {
		h.t.Fatalf("%s not resident", key)
	}
	h.leaf().reschedule(e, h.clk.Now())
	h.quiesce()
}

// pushed injects an update event as the subscriber would deliver it.
func pushed(h *harness, ev push.Event) {
	ev.Kind = push.KindUpdate
	h.leaf().handlePushEvent(ev)
	h.quiesce()
}

// TestInstallOneObjectEverySource drives one grouped object through
// every source a version can arrive from and asserts the same things
// after each: what is served, the byte ledger, the disk record, exactly
// one observation with the right flags, and a §3.2 trigger of the
// sibling iff a resident copy was replaced by a new version.
func TestInstallOneObjectEverySource(t *testing.T) {
	const doc, sib = "/g/doc", "/g/sib"
	h := newHarness(t, installTopology(t))
	px := h.leaf()
	h.stepTo(h.clk.base.Add(admissionPhase))
	h.start()
	sibBody := []byte("sibling")
	setGrouped(h, sib, sibBody)

	var (
		body    []byte    // the version the cache must hold
		lastMod time.Time // and its Last-Modified
		// Counters read before each arrival; the restart zeroes them.
		sibTriggered uint64
		pushBefore   PushStats
	)
	publish := func(rev int) (prev []byte) {
		prev, body = body, docBody(rev, 60)
		lastMod = setGrouped(h, doc, body)
		return prev
	}

	rows := []struct {
		name string
		// arrive delivers the next version (or revalidation) to the cache.
		arrive func()
		// want is the single observation the arrival must produce (Key,
		// At and value fields aside); trigger, whether the sibling must
		// be polled on the object's behalf.
		want    PollObservation
		trigger bool
		xcache  string
	}{
		{
			name: "cold fetch, origin 200",
			arrive: func() {
				publish(1)
				px.get(sib)
				px.get(doc)
			},
			want:   PollObservation{Initial: true, Modified: true},
			xcache: "HIT",
		},
		{
			name:    "regular poll, origin 200",
			arrive:  func() { publish(2); pollNow(h, doc) },
			want:    PollObservation{Modified: true},
			trigger: true,
			xcache:  "HIT",
		},
		{
			name:   "regular poll, origin 304",
			arrive: func() { pollNow(h, doc) },
			want:   PollObservation{},
			xcache: "HIT",
		},
		{
			name: "pushed full body",
			arrive: func() {
				publish(3)
				pushed(h, push.Event{Key: doc, ModTime: lastMod,
					HasBody: true, Body: body, Digest: push.DigestOf(body), ContentType: "text/plain"})
			},
			want:    PollObservation{Modified: true, Pushed: true, Applied: true},
			trigger: true,
			xcache:  "HIT",
		},
		{
			name: "pushed delta",
			arrive: func() {
				prev := publish(4)
				d, ok := push.MakeDelta(prev, body)
				if !ok {
					t.Fatal("MakeDelta refused")
				}
				pushed(h, push.Event{Key: doc, ModTime: lastMod,
					HasBody: true, Body: d, Digest: push.DigestOf(body),
					BaseDigest: push.DigestOf(prev), DeltaCodec: push.DeltaCodecBlock})
			},
			want:    PollObservation{Modified: true, Pushed: true, Applied: true},
			trigger: true,
			xcache:  "HIT",
		},
		{
			// The push lands on the disk record while nothing is resident:
			// no entry, so no observation and no trigger of its own. The
			// promotion then validates the record the push kept fresh — a
			// 304 — and is the one observation, an admission like any other.
			name: "pushed onto the disk record, then promoted",
			arrive: func() {
				e := px.lookup(doc)
				px.FlushDisk()
				if !px.store.removeEntry(e) {
					t.Fatal("doc was not resident")
				}
				px.demote([]*entry{e})
				publish(5)
				pushed(h, push.Event{Key: doc, ModTime: lastMod,
					HasBody: true, Body: body, Digest: push.DigestOf(body)})
				if obs := px.observed(doc); len(obs) != 0 {
					t.Errorf("a push onto a disk record was observed: %+v", obs)
				}
				if _, _, hdr := px.get(doc); hdr.Get("X-Cache") != "MISS" {
					t.Errorf("promotion served X-Cache %q, want MISS", hdr.Get("X-Cache"))
				}
			},
			want:   PollObservation{Initial: true},
			xcache: "HIT",
		},
		{
			name: "rehydrated, then validated",
			arrive: func() {
				if st := px.PushStats(); st.DeltaApplied != 1 || st.DiskApplied != 1 || st.DeltaBaseMisses != 0 {
					t.Errorf("push stats before the restart: %+v", st)
				}
				px.reopen()
				sibTriggered = 0
				if _, got, hdr := px.get(doc); hdr.Get("X-Cache") != "GRACE" || got != string(body) {
					t.Errorf("before validation: X-Cache %q, %d body bytes", hdr.Get("X-Cache"), len(got))
				}
				if obs := px.observed(doc); len(obs) != 0 {
					t.Errorf("a rehydration was observed as a poll: %+v", obs)
				}
				px.Start()
				h.quiesce()
			},
			want:   PollObservation{},
			xcache: "HIT",
		},
	}

	var originPolls uint64
	for _, row := range rows {
		// Far enough past the last validation that the group
		// controller's δ window never suppresses a trigger.
		h.advance(10 * time.Second)
		sibTriggered = px.ObjectStats(sib).Triggered
		pushBefore = px.PushStats()
		originPolls = h.origin.Stats().Polls
		row.arrive()
		h.quiesce()

		// Exactly one observation, flagged for its source.
		obs := px.observed(doc)
		if len(obs) != 1 {
			t.Fatalf("%s: %d observations, want 1: %+v", row.name, len(obs), obs)
		}
		got := obs[0]
		got.Key, got.At = "", time.Time{}
		if !reflect.DeepEqual(got, row.want) {
			t.Errorf("%s: observation %+v, want %+v", row.name, got, row.want)
		}
		// A §3.2 trigger iff a resident copy was replaced.
		wantTriggered := sibTriggered
		if row.trigger {
			wantTriggered++
		}
		if n := px.ObjectStats(sib).Triggered; n != wantTriggered {
			t.Errorf("%s: sibling triggered polls %d, want %d", row.name, n, wantTriggered)
		}
		// A pushed payload costs the origin nothing for the object itself
		// (the sibling's triggered poll is the only request).
		if row.want.Applied {
			if d := h.origin.Stats().Polls - originPolls; d != 1 {
				t.Errorf("%s: %d origin requests, want only the sibling's triggered poll", row.name, d)
			}
			if st := px.PushStats(); st.ValueApplied != pushBefore.ValueApplied+1 || st.ValueFallbacks != pushBefore.ValueFallbacks {
				t.Errorf("%s: push stats %+v", row.name, st)
			}
		}

		// What is served.
		code, served, hdr := px.get(doc)
		if code != http.StatusOK || served != string(body) {
			t.Errorf("%s: served %d, %d bytes; want the %d bytes of the current version", row.name, code, len(served), len(body))
		}
		if lm := hdr.Get("Last-Modified"); lm != lastMod.UTC().Format(http.TimeFormat) {
			t.Errorf("%s: Last-Modified %q, want %q", row.name, lm, lastMod.UTC().Format(http.TimeFormat))
		}
		if xc := hdr.Get("X-Cache"); xc != row.xcache {
			t.Errorf("%s: X-Cache %q, want %q", row.name, xc, row.xcache)
		}

		// The byte ledger is the sum of what is resident.
		if b := px.ObjectStats(doc).Bytes; b != entrySize(doc, body) {
			t.Errorf("%s: ledger charge %d, want entrySize %d", row.name, b, entrySize(doc, body))
		}
		if rb, want := px.CacheStats().ResidentBytes, entrySize(doc, body)+entrySize(sib, sibBody); rb != want {
			t.Errorf("%s: resident bytes %d, want %d", row.name, rb, want)
		}

		// The disk record is the entry.
		e := px.lookup(doc)
		if e == nil {
			t.Fatalf("%s: not resident", row.name)
		}
		e.mu.RLock()
		validatedAt, contentType, digest := e.validatedAt, e.contentType.String(), e.bodyDigest
		e.mu.RUnlock()
		if digest != push.DigestOf(body) {
			t.Errorf("%s: entry digest is not the digest of its body", row.name)
		}
		px.FlushDisk()
		rec, onDisk, ok := px.disk.Get(doc)
		switch {
		case !ok:
			t.Errorf("%s: no disk record", row.name)
		case !bytes.Equal(onDisk, body):
			t.Errorf("%s: disk body is not the cached body", row.name)
		case !rec.HasLastMod || !rec.LastMod.Equal(lastMod) || !rec.ValidatedAt.Equal(validatedAt) ||
			rec.ContentType != contentType || rec.Group != "g":
			t.Errorf("%s: disk record %+v does not match the entry (validated %v, %q)", row.name, rec, validatedAt, contentType)
		}
	}
}

// TestClearedToleranceReachesLeafWithUpdate: a version that carries a
// body replaces the stored Cache-Control wholesale, so tolerances the
// origin clears leave every hop with the next update. Until then a 304
// cannot clear them: three lease terms of audits keep the old ones.
func TestClearedToleranceReachesLeafWithUpdate(t *testing.T) {
	tp := valuePushTopology(rearmConfig())
	tp.hops = 2
	h := newHarness(t, tp)
	px := h.leaf()
	const key = "/tol/k"
	h.origin.Set(key, []byte("v1"), "")
	h.origin.SetTolerances(key, httpx.Tolerances{Delta: 7 * time.Second})
	h.quiesce()
	if _, _, hdr := px.get(key); hdr.Get("Cache-Control") != "x-cc-delta=7" {
		t.Fatalf("admitted with Cache-Control %q, want x-cc-delta=7", hdr.Get("Cache-Control"))
	}

	h.origin.SetTolerances(key, httpx.Tolerances{})
	h.advance(3 * px.lease.term)
	if _, _, hdr := px.get(key); hdr.Get("Cache-Control") != "x-cc-delta=7" {
		t.Fatalf("a quiet key served Cache-Control %q, want x-cc-delta=7 until its next update", hdr.Get("Cache-Control"))
	}
	h.origin.Set(key, []byte("v2"), "")
	h.quiesce()
	for i, n := range []*node{h.root(), px} {
		code, body, hdr := n.get(key)
		if code != 200 || body != "v2" {
			t.Fatalf("hop %d served %d %q, want the pushed v2", i, code, body)
		}
		if cc := hdr.Get("Cache-Control"); cc != "" {
			t.Errorf("hop %d served v2 with Cache-Control %q, want none", i, cc)
		}
	}
}

// TestNotModifiedUpdatesStatedHeadersOnly: a 304 replaces the stored
// Cache-Control when it states one, and keeps it when it states none.
func TestNotModifiedUpdatesStatedHeadersOnly(t *testing.T) {
	for _, c := range []struct {
		name string
		tol  httpx.Tolerances
		want string
	}{
		{"changed", httpx.Tolerances{Delta: 9 * time.Second}, "x-cc-delta=9"},
		{"cleared", httpx.Tolerances{}, "x-cc-delta=7"},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := newHarness(t, topology{cfg: Config{DefaultDelta: time.Hour, Bounds: noRefreshBounds}})
			px := h.leaf()
			const key = "/doc"
			h.origin.Set(key, []byte("v1"), "text/plain")
			h.origin.SetTolerances(key, httpx.Tolerances{Delta: 7 * time.Second})
			px.get(key)

			h.origin.SetTolerances(key, c.tol)
			pollNow(h, key)
			if st := px.ObjectStats(key); st.Polls != 2 {
				t.Fatalf("%d validations, want the admission and one poll", st.Polls)
			}
			_, body, hdr := px.get(key)
			if body != "v1" || hdr.Get("Content-Type") != "text/plain" {
				t.Errorf("served %q as %q after the 304, want v1 as text/plain", body, hdr.Get("Content-Type"))
			}
			if cc := hdr.Get("Cache-Control"); cc != c.want {
				t.Errorf("Cache-Control %q after the 304, want %q", cc, c.want)
			}
		})
	}
}

// TestCappedPromotionIsNotCounted: a disk record whose body alone
// overflows MaxBytes is served uncached, like any such object — it was
// not re-admitted, so it is neither a promotion nor a poll "of a cached
// object". (Promotion used to count and report it regardless.)
func TestCappedPromotionIsNotCounted(t *testing.T) {
	const key = "/blob"
	small := []byte("fits")
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Last-Modified", time.Unix(1_700_000_000, 0).UTC().Format(http.TimeFormat))
		if r.Header.Get("If-Modified-Since") != "" {
			w.WriteHeader(http.StatusNotModified) // the disk body is current
			return
		}
		w.Write(small)
	})
	px := newHarness(t, topology{handler: handler, cfg: Config{
		MaxBytes:     2048,
		Bounds:       noRefreshBounds,
		DefaultDelta: time.Hour,
		DiskDir:      t.TempDir(),
	}}).leaf()
	if code, body, _ := px.get(key); code != 200 || body != string(small) {
		t.Fatalf("admission: %d %q", code, body)
	}
	px.FlushDisk()

	// Demote, then let the record outgrow the whole memory budget.
	e := px.lookup(key)
	px.store.removeEntry(e)
	px.demote([]*entry{e})
	rec, _, ok := px.disk.Get(key)
	if !ok {
		t.Fatal("no disk record after demotion")
	}
	big := bytes.Repeat([]byte("x"), 4096)
	px.disk.Put(rec, big)
	px.FlushDisk()

	code, body, hdr := px.get(key)
	if code != 200 || body != string(big) || hdr.Get("X-Cache") != "BYPASS" {
		t.Fatalf("over-budget record: %d, %d bytes, X-Cache %q; want the disk body served BYPASS", code, len(body), hdr.Get("X-Cache"))
	}
	if px.Len() != 0 {
		t.Errorf("%d objects resident, want 0", px.Len())
	}
	if got := px.DiskStats().Promotions; got != 0 {
		t.Errorf("DiskStats.Promotions = %d for a record that was not re-admitted", got)
	}
	if got := px.CacheStats().Capped; got != 1 {
		t.Errorf("CacheStats.Capped = %d, want 1", got)
	}
	initial := 0
	for _, o := range px.observations() {
		if o.Initial {
			initial++
		}
	}
	if initial != 1 {
		t.Errorf("%d admission observations, want only the first (the capped promotion cached nothing)", initial)
	}
}

// TestInvalidationOnlyPushCoalescesAndPolls: a burst of events that
// carry no payload folds into one queued job, and that job confirms the
// update by polling.
func TestInvalidationOnlyPushCoalescesAndPolls(t *testing.T) {
	const key = "/doc"
	h := newHarness(t, installTopology(t))
	px := h.leaf()
	h.origin.Set(key, []byte("v1"), "text/plain")
	px.get(key)
	px.observed(key)

	h.clk.AdvanceTo(h.clk.Now().Add(10 * time.Second))
	h.origin.Set(key, []byte("v2"), "text/plain")
	mod := h.clk.Now().Truncate(time.Second)
	// The workers are not running yet, so the burst meets a queued job.
	for i := 0; i < 3; i++ {
		px.handlePushEvent(push.Event{Kind: push.KindUpdate, Key: key, ModTime: mod})
	}
	if st := px.PushStats(); st.Events != 3 || st.Polls != 1 {
		t.Fatalf("3 events queued %d jobs (events %d), want 1", st.Polls, st.Events)
	}
	h.start()

	obs := px.observed(key)
	if len(obs) != 1 || !obs[0].Pushed || obs[0].Applied || !obs[0].Modified {
		t.Fatalf("observations %+v, want one pushed poll that found the change", obs)
	}
	if b, _ := px.CachedBody(key); string(b) != "v2" {
		t.Errorf("cached %q, want the origin's v2", b)
	}
	if px.lookup(key).pendingPush.Load() != nil {
		t.Error("the job left its coalescing slot full")
	}
	if st := px.PushStats(); st.ValueFallbacks != 1 || st.ValueApplied != 0 {
		t.Errorf("push stats %+v: want the one job to fall back to its poll, nothing applied", st)
	}
}

// TestPullOnlyProxyKeepsNoDigest: a proxy that neither subscribes nor
// relays carries no bodies on a push channel, so it hashes none: its
// entry holds no digest after an admission, nor after a poll that found
// a new version.
func TestPullOnlyProxyKeepsNoDigest(t *testing.T) {
	const key = "/doc"
	h := newHarness(t, topology{cfg: Config{DefaultDelta: time.Hour, Bounds: noRefreshBounds}})
	px := h.leaf()
	digest := func() string {
		_, d := px.lookup(key).held()
		return d
	}
	h.origin.Set(key, []byte("v1"), "text/plain")
	px.get(key)
	if d := digest(); d != "" {
		t.Errorf("admission stored digest %q", d)
	}

	h.clk.AdvanceTo(h.clk.Now().Add(10 * time.Second))
	h.origin.Set(key, []byte("v2"), "text/plain")
	pollNow(h, key)
	if b, _ := px.CachedBody(key); string(b) != "v2" {
		t.Fatalf("the poll installed %q, want v2", b)
	}
	if d := digest(); d != "" {
		t.Errorf("modified poll stored digest %q", d)
	}
}
