package webproxy

// Tests for the one way in: whatever source delivers a validated version
// — cold fetch, origin 200, origin 304, pushed full body, pushed delta,
// a push landed on a disk record followed by a promotion, a startup
// rehydration followed by its validation poll — the cache ends in the
// same consistent state and accounts for the event exactly once.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sync"
	"testing"
	"time"

	"broadway/internal/httpx"
	"broadway/internal/push"
	"broadway/internal/webserver"
)

// installHarness is one origin and one proxy (restartable over the same
// disk directory) on a stepped clock: nothing polls unless a test makes
// it due, so every observation is attributable to the step that caused
// it.
type installHarness struct {
	t      *testing.T
	clk    *simClock
	origin *webserver.Origin
	cfg    Config
	px     *Proxy

	mu  sync.Mutex
	obs []PollObservation
}

func newInstallHarness(t *testing.T, pushValues bool) *installHarness {
	t.Helper()
	h := &installHarness{t: t, clk: newSimClock()}
	h.origin = webserver.NewOrigin(webserver.WithClock(h.clk.Now))
	srv := httptest.NewServer(h.origin)
	t.Cleanup(srv.Close)
	u, err := url.Parse(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	h.cfg = Config{
		Origin:            u,
		Clock:             h.clk.Now,
		PollWorkers:       1,
		DefaultDelta:      time.Hour,
		DefaultGroupDelta: 2 * time.Second,
		Bounds:            noRefreshBounds,
		DiskDir:           t.TempDir(),
		PushValues:        pushValues, // events are injected by hand; no stream needed
		PollObserver: func(o PollObservation) {
			h.mu.Lock()
			h.obs = append(h.obs, o)
			h.mu.Unlock()
		},
	}
	h.clk.AdvanceTo(h.clk.base.Add(admissionPhase))
	h.open()
	t.Cleanup(func() { h.px.Close() })
	return h
}

// open builds the proxy over the harness's disk directory — rehydrating
// whatever an earlier one left there — without starting it.
func (h *installHarness) open() {
	h.t.Helper()
	px, err := New(h.cfg)
	if err != nil {
		h.t.Fatal(err)
	}
	h.px = px
}

// step moves the clock far enough past the last validation that the
// group controller's δ window never suppresses a trigger.
func (h *installHarness) step() {
	h.clk.AdvanceTo(h.clk.Now().Add(10 * time.Second))
}

// set publishes a new version at the origin and returns its
// Last-Modified (second-granular, as the origin stores it).
func (h *installHarness) set(key string, body []byte) time.Time {
	h.origin.Set(key, body, "text/plain")
	h.origin.SetTolerances(key, httpx.Tolerances{Group: "g", GroupDelta: 2 * time.Second})
	return h.clk.Now().Truncate(time.Second)
}

// pollNow makes key's regular poll due and runs it.
func (h *installHarness) pollNow(key string) {
	h.t.Helper()
	e := h.px.lookup(key)
	if e == nil {
		h.t.Fatalf("%s not resident", key)
	}
	h.px.reschedule(e, h.clk.Now())
	quiesceSim(h.t, h.px, h.clk)
}

// pushed injects an update event as the subscriber would deliver it.
func (h *installHarness) pushed(ev push.Event) {
	h.t.Helper()
	ev.Kind = push.KindUpdate
	h.px.handlePushEvent(ev)
	quiesceSim(h.t, h.px, h.clk)
}

// observed drains the observations recorded for key since the last call.
func (h *installHarness) observed(key string) []PollObservation {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []PollObservation
	for _, o := range h.obs {
		if o.Key == key {
			out = append(out, o)
		}
	}
	h.obs = nil
	return out
}

// TestInstallOneObjectEverySource drives one grouped object through
// every source a version can arrive from and asserts the same things
// after each: what is served, the byte ledger, the disk record, exactly
// one observation with the right flags, and a §3.2 trigger of the
// sibling iff a resident copy was replaced by a new version.
func TestInstallOneObjectEverySource(t *testing.T) {
	const doc, sib = "/g/doc", "/g/sib"
	h := newInstallHarness(t, true)
	h.px.Start()
	sibBody := []byte("sibling")
	h.set(sib, sibBody)

	var (
		body    []byte    // the version the cache must hold
		lastMod time.Time // and its Last-Modified
		// Counters read before each arrival; the restart zeroes them.
		sibTriggered uint64
		pushBefore   PushStats
	)
	publish := func(rev int) (prev []byte) {
		prev, body = body, docBody(rev, 60)
		lastMod = h.set(doc, body)
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
				proxyGet(t, h.px, sib)
				proxyGet(t, h.px, doc)
			},
			want:   PollObservation{Initial: true, Modified: true},
			xcache: "HIT",
		},
		{
			name:    "regular poll, origin 200",
			arrive:  func() { publish(2); h.pollNow(doc) },
			want:    PollObservation{Modified: true},
			trigger: true,
			xcache:  "HIT",
		},
		{
			name:   "regular poll, origin 304",
			arrive: func() { h.pollNow(doc) },
			want:   PollObservation{},
			xcache: "HIT",
		},
		{
			name: "pushed full body",
			arrive: func() {
				publish(3)
				h.pushed(push.Event{Key: doc, Group: "g", ModTime: lastMod,
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
				h.pushed(push.Event{Key: doc, Group: "g", ModTime: lastMod,
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
				e := h.px.lookup(doc)
				h.px.FlushDisk()
				if !h.px.store.removeEntry(e) {
					t.Fatal("doc was not resident")
				}
				h.px.demote([]*entry{e})
				publish(5)
				h.pushed(push.Event{Key: doc, Group: "g", ModTime: lastMod,
					HasBody: true, Body: body, Digest: push.DigestOf(body)})
				if obs := h.observed(doc); len(obs) != 0 {
					t.Errorf("a push onto a disk record was observed: %+v", obs)
				}
				if _, _, hdr := proxyGet(t, h.px, doc); hdr.Get("X-Cache") != "MISS" {
					t.Errorf("promotion served X-Cache %q, want MISS", hdr.Get("X-Cache"))
				}
			},
			want:   PollObservation{Initial: true},
			xcache: "HIT",
		},
		{
			name: "rehydrated, then validated",
			arrive: func() {
				if st := h.px.PushStats(); st.DeltaApplied != 1 || st.DiskApplied != 1 || st.DeltaBaseMisses != 0 {
					t.Errorf("push stats before the restart: %+v", st)
				}
				h.px.Close()
				h.open()
				sibTriggered = 0
				if _, got, hdr := proxyGet(t, h.px, doc); hdr.Get("X-Cache") != "GRACE" || got != string(body) {
					t.Errorf("before validation: X-Cache %q, %d body bytes", hdr.Get("X-Cache"), len(got))
				}
				if obs := h.observed(doc); len(obs) != 0 {
					t.Errorf("a rehydration was observed as a poll: %+v", obs)
				}
				h.px.Start()
				quiesceSim(t, h.px, h.clk)
			},
			want:   PollObservation{},
			xcache: "HIT",
		},
	}

	var originPolls uint64
	for _, row := range rows {
		h.step()
		sibTriggered = h.px.ObjectStats(sib).Triggered
		pushBefore = h.px.PushStats()
		originPolls = h.origin.Polls()
		row.arrive()
		quiesceSim(t, h.px, h.clk)

		// Exactly one observation, flagged for its source.
		obs := h.observed(doc)
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
		if n := h.px.ObjectStats(sib).Triggered; n != wantTriggered {
			t.Errorf("%s: sibling triggered polls %d, want %d", row.name, n, wantTriggered)
		}
		// A pushed payload costs the origin nothing for the object itself
		// (the sibling's triggered poll is the only request).
		if row.want.Applied {
			if d := h.origin.Polls() - originPolls; d != 1 {
				t.Errorf("%s: %d origin requests, want only the sibling's triggered poll", row.name, d)
			}
			if st := h.px.PushStats(); st.ValueApplied != pushBefore.ValueApplied+1 || st.ValueFallbacks != pushBefore.ValueFallbacks {
				t.Errorf("%s: push stats %+v", row.name, st)
			}
		}

		// What is served.
		code, served, hdr := proxyGet(t, h.px, doc)
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
		if b := h.px.ObjectStats(doc).Bytes; b != entrySize(doc, body) {
			t.Errorf("%s: ledger charge %d, want entrySize %d", row.name, b, entrySize(doc, body))
		}
		if rb, want := h.px.ResidentBytes(), entrySize(doc, body)+entrySize(sib, sibBody); rb != want {
			t.Errorf("%s: resident bytes %d, want %d", row.name, rb, want)
		}

		// The disk record is the entry.
		e := h.px.lookup(doc)
		if e == nil {
			t.Fatalf("%s: not resident", row.name)
		}
		e.mu.RLock()
		validatedAt, contentType, digest := e.validatedAt, e.contentType, e.bodyDigest
		e.mu.RUnlock()
		if digest != push.DigestOf(body) {
			t.Errorf("%s: entry digest is not the digest of its body", row.name)
		}
		h.px.FlushDisk()
		rec, onDisk, ok := h.px.disk.Get(doc)
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
	var mu sync.Mutex
	var initial int
	px, _ := newHandlerProxy(t, handler, Config{
		MaxBytes:     2048,
		Bounds:       noRefreshBounds,
		DefaultDelta: time.Hour,
		DiskDir:      t.TempDir(),
		PollObserver: func(o PollObservation) {
			mu.Lock()
			if o.Initial {
				initial++
			}
			mu.Unlock()
		},
	})
	if code, body, _ := proxyGet(t, px, key); code != 200 || body != string(small) {
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

	code, body, hdr := proxyGet(t, px, key)
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
	mu.Lock()
	defer mu.Unlock()
	if initial != 1 {
		t.Errorf("%d admission observations, want only the first (the capped promotion cached nothing)", initial)
	}
}

// TestInvalidationOnlyPushCoalescesAndPolls: without PushValues the
// coalescing slot still folds a burst into one queued job, and that job
// always confirms by polling, whatever the event carried.
func TestInvalidationOnlyPushCoalescesAndPolls(t *testing.T) {
	const key = "/doc"
	h := newInstallHarness(t, false)
	h.origin.Set(key, []byte("v1"), "text/plain")
	proxyGet(t, h.px, key)
	h.observed(key)

	h.step()
	h.origin.Set(key, []byte("v2"), "text/plain")
	mod := h.clk.Now().Truncate(time.Second)
	// The workers are not running yet, so the burst meets a queued job.
	forged := []byte("forged")
	for i := 0; i < 3; i++ {
		h.px.handlePushEvent(push.Event{Kind: push.KindUpdate, Key: key, ModTime: mod,
			HasBody: true, Body: forged, Digest: push.DigestOf(forged)})
	}
	if st := h.px.PushStats(); st.Events != 3 || st.Polls != 1 {
		t.Fatalf("3 events queued %d jobs (events %d), want 1", st.Polls, st.Events)
	}
	h.px.Start()
	quiesceSim(t, h.px, h.clk)

	obs := h.observed(key)
	if len(obs) != 1 || !obs[0].Pushed || obs[0].Applied || !obs[0].Modified {
		t.Fatalf("observations %+v, want one pushed poll that found the change", obs)
	}
	if b, _ := h.px.CachedBody(key); string(b) != "v2" {
		t.Errorf("cached %q, want the origin's v2 (the payload must be ignored)", b)
	}
	if h.px.lookup(key).pendingPush.Load() != nil {
		t.Error("the job left its coalescing slot full")
	}
	if st := h.px.PushStats(); st.ValueFallbacks != 0 || st.ValueApplied != 0 {
		t.Errorf("push stats %+v: value counters moved without PushValues", st)
	}
}
