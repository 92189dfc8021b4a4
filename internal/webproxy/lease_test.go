package webproxy

// Tests for the lease contract (see the reconciliation rules in push.go):
// what ends a lease mid-term and how fast paper-mode polling takes over,
// how admissions spread over the first term, what a short residency costs
// the origin, and that a key outside the declared interest is not leased.

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"broadway/internal/core"
	"broadway/internal/push"
	"broadway/internal/webserver"
)

// leaseFleet is one proxy behind an origin whose event hub the test owns,
// so it can announce a hole mid-stream (Hub.Reset) as well as kill the
// endpoint. It counts origin requests per path and records every regular
// poll the proxy completes.
type leaseFleet struct {
	origin *webserver.Origin
	hub    *push.Hub
	proxy  *Proxy

	mu       sync.Mutex
	requests map[string]int         // origin requests by path
	regular  map[string][]time.Time // regular poll instants by key
	// beforeReply, when set, runs after the origin has built a response
	// and before any of it is written: the window in which an update can
	// overtake the response it missed.
	beforeReply func(path string)
	fillers     int // filler objects demote has admitted so far
}

func newLeaseFleet(t *testing.T, cfg Config) *leaseFleet {
	t.Helper()
	f := &leaseFleet{
		origin:   webserver.NewOrigin(webserver.WithHistoryExtension(true)),
		hub:      push.NewHub(push.HubConfig{Heartbeat: 25 * time.Millisecond, PayloadCap: push.DefaultPayloadCap}),
		requests: make(map[string]int),
		regular:  make(map[string][]time.Time),
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/events" {
			f.hub.ServeHTTP(w, r)
			return
		}
		f.mu.Lock()
		f.requests[r.URL.Path]++
		hook := f.beforeReply
		f.mu.Unlock()
		if hook == nil {
			f.origin.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		f.origin.ServeHTTP(rec, r)
		hook(r.URL.Path)
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { f.hub.SetAvailable(false) }) // end streams so srv.Close returns

	cfg.Origin, _ = url.Parse(srv.URL)
	cfg.PushURL, _ = url.Parse(srv.URL + "/events")
	if cfg.PushBackoffMin == 0 {
		cfg.PushBackoffMin = 5 * time.Millisecond
	}
	cfg.PushBackoffMax = cfg.PushBackoffMin * 10
	cfg.PushHeartbeatTimeout = 200 * time.Millisecond
	cfg.PollObserver = func(o PollObservation) {
		if o.Initial || o.Triggered || o.Pushed {
			return
		}
		f.mu.Lock()
		f.regular[o.Key] = append(f.regular[o.Key], o.At)
		f.mu.Unlock()
	}
	px, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	px.Start()
	t.Cleanup(px.Close)
	f.proxy = px
	waitPushConnected(t, px)
	return f
}

// update rewrites key at the origin and announces it on the hub,
// returning the announcement's stream position.
func (f *leaseFleet) update(key, body string) uint64 {
	f.origin.Set(key, []byte(body), "")
	return f.hub.Publish(push.Event{Kind: push.KindUpdate, Key: key})
}

// updateValue is update with the new version riding on the event, as an
// origin serving value-negotiated subscribers announces it.
func (f *leaseFleet) updateValue(key, body string) uint64 {
	f.origin.Set(key, []byte(body), "")
	rec := httptest.NewRecorder()
	f.origin.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, key, nil))
	mod, _ := http.ParseTime(rec.Header().Get("Last-Modified"))
	return f.hub.Publish(push.Event{
		Kind: push.KindUpdate, Key: key, ModTime: mod,
		Body: []byte(body), HasBody: true, Digest: push.DigestOf([]byte(body)),
	})
}

// demote admits fresh filler objects until CLOCK has displaced victim
// from a cache configured far smaller than the fillers.
func (f *leaseFleet) demote(t *testing.T, victim string) {
	t.Helper()
	for n := 0; f.proxy.lookup(victim) != nil; n++ {
		if n == 16 {
			t.Fatalf("%s still resident after %d admissions into a small cache", victim, n)
		}
		k := fmt.Sprintf("/f/%d", f.fillers)
		f.fillers++
		f.origin.Set(k, []byte("filler"), "")
		if code, _, _ := proxyGet(t, f.proxy, k); code != http.StatusOK {
			t.Fatalf("GET %s: status %d", k, code)
		}
	}
}

// admit hosts and requests n keys named like the benchmark's.
func (f *leaseFleet) admit(t *testing.T, n int) []string {
	t.Helper()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("/s%d/k%d", i%8, i)
		f.origin.Set(keys[i], []byte("v1"), "")
	}
	for _, k := range keys {
		if code, _, _ := proxyGet(t, f.proxy, k); code != http.StatusOK {
			t.Fatalf("admit %s: status %d", k, code)
		}
	}
	return keys
}

func (f *leaseFleet) requestsFor(key string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.requests[key]
}

// regularSince returns key's first and last regular poll at or after t0.
func (f *leaseFleet) regularSince(key string, t0 time.Time) (first, last time.Time, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, at := range f.regular[key] {
		if at.Before(t0) {
			continue
		}
		if !ok {
			first, ok = at, true
		}
		last = at
	}
	return first, last, ok
}

// wantPaperMode asserts the schedule is exactly what pure polling would
// have produced: no entry on the heap sits past its paper-mode instant.
func wantPaperMode(t *testing.T, px *Proxy) {
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
		// slack covers draining n simultaneous polls through the workers
		// on a loaded (or race-instrumented) machine.
		slack = 2 * time.Second
	)
	cases := []struct {
		name string
		end  func(f *leaseFleet)
		// down marks an event the channel does not recover from by itself.
		down                      bool
		fallbacks, resets, bounce uint64
	}{
		{name: "link death", end: func(f *leaseFleet) { f.hub.SetAvailable(false) }, down: true, fallbacks: 1},
		{name: "mid-stream Reset", end: func(f *leaseFleet) { f.hub.Reset() }, resets: 1},
		{name: "Bounce", end: func(f *leaseFleet) { f.proxy.sub.Bounce() }, fallbacks: 1, bounce: 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := newLeaseFleet(t, Config{
				PushStretch:  60,
				DefaultDelta: 100 * time.Millisecond,
				Bounds:       core.TTRBounds{Min: 100 * time.Millisecond, Max: ttrMax},
			})
			px := f.proxy
			keys := f.admit(t, n)
			ttr := make(map[string]time.Duration, n)
			for _, k := range keys {
				snap := scheduleOf(t, px, k, 1)
				wantLeased(t, px, k, snap)
				ttr[k] = snap.ttr()
			}

			ended := time.Now()
			c.end(f)
			if !waitFor(t, 3*time.Second, func() bool {
				st := px.PushStats()
				return st.Fallbacks == c.fallbacks && st.Resets == c.resets && st.Bounces == c.bounce
			}) {
				t.Fatalf("event never reconciled: %+v", px.PushStats())
			}
			if c.down {
				wantPaperMode(t, px)
			}
			updated := time.Now()
			for i := 0; i < n; i += 4 {
				f.update(keys[i], "v2")
			}

			// Every key is polled on its unstretched schedule.
			if !waitFor(t, ttrMax+slack, func() bool {
				for _, k := range keys {
					if _, _, ok := f.regularSince(k, ended); !ok {
						return false
					}
				}
				return true
			}) {
				t.Fatal("some keys were never polled after the lease ended")
			}
			for _, k := range keys {
				first, _, _ := f.regularSince(k, ended)
				if late := first.Sub(ended) - ttr[k]; late > slack {
					t.Errorf("%s polled %v after its unstretched TTR %v had passed", k, late, ttr[k])
				}
			}
			// Every update is visible inside the same window.
			if !waitFor(t, ttrMax+slack, func() bool {
				for i := 0; i < n; i += 4 {
					if b, _ := px.CachedBody(keys[i]); string(b) != "v2" {
						return false
					}
				}
				return true
			}) {
				t.Fatal("an update made after the lease ended never became visible")
			}
			if took := time.Since(updated); took > ttrMax+slack {
				t.Errorf("updates took %v to become visible, bound %v", took, ttrMax+slack)
			}
			if st := px.PushStats(); st.Fallbacks != c.fallbacks || st.Resets != c.resets || st.Bounces != c.bounce {
				t.Errorf("reconciled more than once: %+v", st)
			}

			// A clean reconnect leases nothing by itself: each key
			// re-enters at its own next regular poll.
			back := ended
			if c.down {
				wantPaperMode(t, px)
				back = time.Now()
				f.hub.SetAvailable(true)
				waitPushConnected(t, px)
			}
			var why string
			if !waitFor(t, 2*ttrMax+slack, func() bool {
				for _, k := range keys {
					_, last, ok := f.regularSince(k, back)
					if !ok {
						why = k + ": no regular poll since the channel came back"
						return false
					}
					e := px.lookup(k)
					px.schedMu.Lock()
					scheduled, next := e.item != nil, e.nextAt
					px.schedMu.Unlock()
					if !scheduled || !next.Equal(last.Add(px.leaseTerm)) {
						why = fmt.Sprintf("%s: next poll %v after its last regular poll, want the term %v",
							k, next.Sub(last), px.leaseTerm)
						return false
					}
				}
				return true
			}) {
				t.Fatalf("leases not re-entered poll by poll: %s", why)
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
	instant := time.Now()
	f := newLeaseFleet(t, Config{
		Clock:        func() time.Time { return instant },
		DefaultDelta: ttrMin,
		Bounds:       core.TTRBounds{Min: ttrMin, Max: 8 * time.Second},
	})
	px := f.proxy
	term := px.PushStats().LeaseTerm
	if term != 32*time.Second {
		t.Fatalf("lease term %v, want the default 4 × Bounds.Max", term)
	}
	var counts [buckets]int
	for _, k := range f.admit(t, n) {
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

// TestLeasePromoteDemoteCostsOneOriginRequest pins the churn saving: a
// disk-tier object promoted under a live lease and demoted again within
// the term costs the origin its validating fetch and nothing else, even
// when the residency outlasts the unstretched TTR.
func TestLeasePromoteDemoteCostsOneOriginRequest(t *testing.T) {
	const ttrMin = 50 * time.Millisecond
	f := newLeaseFleet(t, Config{
		MaxObjects:   4,
		Shards:       1,
		DiskDir:      t.TempDir(),
		DefaultDelta: ttrMin,
		Bounds:       core.TTRBounds{Min: ttrMin, Max: 10 * time.Second},
	})
	px := f.proxy
	// The victim's phase must lie well past the residency below.
	victim := "/c/0"
	for i := 1; px.leasePhase(victim, ttrMin) < 5*time.Second; i++ {
		victim = fmt.Sprintf("/c/%d", i)
	}
	f.origin.Set(victim, []byte("victim"), "")
	get := func(k string) {
		t.Helper()
		if code, _, _ := proxyGet(t, px, k); code != http.StatusOK {
			t.Fatalf("GET %s: status %d", k, code)
		}
	}

	get(victim)
	px.FlushDisk() // the demotion below needs the record written behind
	f.demote(t, victim)
	if got := f.requestsFor(victim); got != 1 {
		t.Fatalf("%d origin requests before the promotion, want the admission fetch alone", got)
	}

	get(victim) // promote: one validating fetch
	if px.DiskStats().Promotions != 1 {
		t.Fatalf("not promoted from disk: %+v", px.DiskStats())
	}
	wantLeased(t, px, victim, scheduleOf(t, px, victim, 1))
	time.Sleep(4 * ttrMin) // resident past the instant an unleased first poll would fire
	f.demote(t, victim)
	time.Sleep(2 * ttrMin)
	if got := f.requestsFor(victim) - 1; got != 1 {
		t.Errorf("promote-then-demote residency cost the origin %d requests, want exactly 1", got)
	}
}

// TestLeaseWaitsForDeclaredInterest: an admission outside the live
// interest declaration is not covered by the channel yet, so it keeps the
// unstretched first poll; once the bounce has widened the declaration its
// next regular poll leases it.
func TestLeaseWaitsForDeclaredInterest(t *testing.T) {
	f := newLeaseFleet(t, Config{
		PushInterest: true,
		PushPrefixes: []string{"/in/"},
		// A reconnect slower than the admission below: the entry must be
		// scheduled against the declaration that filtered it out.
		PushBackoffMin: 300 * time.Millisecond,
		DefaultDelta:   50 * time.Millisecond,
		Bounds:         core.TTRBounds{Min: 50 * time.Millisecond, Max: 10 * time.Second},
	})
	px := f.proxy
	f.origin.Set("/in/a", []byte("v1"), "")
	f.origin.Set("/out/b", []byte("v1"), "")

	proxyGet(t, px, "/in/a")
	wantLeased(t, px, "/in/a", scheduleOf(t, px, "/in/a", 1))

	proxyGet(t, px, "/out/b")
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

	if !waitFor(t, 3*time.Second, func() bool {
		return px.PushStats().Connected && px.sub.DeclaredInterest().Matches("/out/b", "")
	}) {
		t.Fatal("the bounce never widened the declaration")
	}
	if !waitFor(t, 3*time.Second, func() bool {
		_, last, ok := f.regularSince("/out/b", time.Time{})
		if !ok {
			return false
		}
		px.schedMu.Lock()
		defer px.schedMu.Unlock()
		return e.item != nil && e.nextAt.Equal(last.Add(px.leaseTerm))
	}) {
		t.Error("/out/b never leased after the declaration covered it")
	}
}

// TestLeaseRefusedWhenAdmissionRacedAnUpdate stages the one ordering the
// channel cannot cover by itself: the fetch and the stream are separate
// connections, so an update made after the upstream built an admission's
// (or a promotion's) response can be announced — and find nothing resident
// to refresh — before that response is installed. Such an admission must
// take no lease: the stale body is caught by the paper-mode first poll,
// not held for a term.
func TestLeaseRefusedWhenAdmissionRacedAnUpdate(t *testing.T) {
	const (
		ttrMin = 100 * time.Millisecond
		slack  = 2 * time.Second
	)
	cases := []struct {
		name            string
		promote, values bool
	}{
		{name: "admission"},
		{name: "promotion", promote: true},
		// The event's payload lands on the disk record the promotion has
		// already read past, so it is handled, not dropped — and must
		// still reach the promotion.
		{name: "promotion, update absorbed by the disk record", promote: true, values: true},
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
			f := newLeaseFleet(t, cfg)
			px := f.proxy
			// A phase far past the bound asserted below, so a lease taken
			// by mistake cannot pass for the paper-mode poll.
			key := "/r/0"
			for i := 1; px.leasePhase(key, ttrMin) < 3*slack; i++ {
				key = fmt.Sprintf("/r/%d", i)
			}
			f.origin.Set(key, []byte("v1"), "")
			if c.promote {
				proxyGet(t, px, key)
				wantLeased(t, px, key, scheduleOf(t, px, key, 1))
				px.FlushDisk()
				f.demote(t, key)
			}

			// The update overtakes the response that missed it: made once
			// the response is built, announced, and handled by the proxy
			// before the first byte of that response is written.
			var once sync.Once
			f.mu.Lock()
			f.beforeReply = func(path string) {
				if path != key {
					return
				}
				once.Do(func() {
					update := f.update
					if c.values {
						update = f.updateValue
					}
					seq := update(key, "v2")
					if !waitFor(t, 3*time.Second, func() bool { return px.PushStats().LastSeq >= seq }) {
						t.Error("the proxy never handled the update's event")
					}
				})
			}
			f.mu.Unlock()

			if _, body, _ := proxyGet(t, px, key); body != "v1" {
				t.Fatalf("admitted %q, want the response built before the update", body)
			}
			st := px.PushStats()
			if c.values && st.DiskApplied != 1 || !c.values && st.Dropped != 1 {
				t.Fatalf("the event did not find the key non-resident: %+v", st)
			}
			if c.promote && px.DiskStats().Promotions != 1 {
				t.Fatalf("not promoted from disk: %+v", px.DiskStats())
			}
			if !waitFor(t, ttrMin+slack, func() bool {
				b, _ := px.CachedBody(key)
				return string(b) == "v2"
			}) {
				snap := scheduleOf(t, px, key, 1)
				t.Fatalf("update still invisible %v after admission: first poll %v after validation, paper-mode %v",
					ttrMin+slack, snap.next.Sub(snap.validatedAt), snap.ttr())
			}
			if got := f.requestsFor(key); c.promote && got != 3 || !c.promote && got != 2 {
				t.Errorf("%d origin requests, want each fetch plus the one paper-mode poll", got)
			}
			// The poll that caught the update leases the key as usual.
			wantLeased(t, px, key, scheduleOf(t, px, key, 2))
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
