package webproxy

import (
	"fmt"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"broadway/internal/core"
	"broadway/internal/httpx"
	"broadway/internal/webserver"
)

// newPushSetup wires a push-enabled origin behind a hybrid proxy. The
// origin heartbeats fast and the subscriber's watchdog is tight so chaos
// tests detect dead channels quickly.
func newPushSetup(t *testing.T, cfg Config) *liveSetup {
	t.Helper()
	origin := webserver.NewOrigin(
		webserver.WithHistoryExtension(true),
		webserver.WithPushHeartbeat(25*time.Millisecond),
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
		cfg.Bounds = core.TTRBounds{Min: 50 * time.Millisecond, Max: 400 * time.Millisecond}
	}
	if cfg.DefaultDelta == 0 {
		cfg.DefaultDelta = 50 * time.Millisecond
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

func waitPushConnected(t *testing.T, px *Proxy) {
	t.Helper()
	if !waitFor(t, 3*time.Second, func() bool { return px.PushStats().Connected }) {
		t.Fatal("push channel never connected")
	}
}

// schedSnapshot is one consistent reading of an entry's heap placement
// together with the validation it was computed from.
type schedSnapshot struct {
	validatedAt, base, next time.Time
	polls                   uint64
}

// ttr is the unstretched interval the placement was computed with.
func (s schedSnapshot) ttr() time.Duration { return s.base.Sub(s.validatedAt) }

// leased reports whether the placement runs past its paper-mode instant.
func (s schedSnapshot) leased() bool { return s.base.Before(s.next) }

// scheduleOf waits until key sits on the refresh heap after at least
// minPolls polls and returns its placement. A poll bumps the counter and
// the validation instant before it reschedules, so the snapshot is only
// accepted when both read the same on either side of the schedMu
// section — a poll in flight keeps the entry off the heap.
func scheduleOf(t *testing.T, px *Proxy, key string, minPolls uint64) schedSnapshot {
	t.Helper()
	e := px.lookup(key)
	if e == nil {
		t.Fatalf("%s not resident", key)
	}
	validated := func() time.Time {
		e.mu.RLock()
		defer e.mu.RUnlock()
		return e.validatedAt
	}
	var snap schedSnapshot
	ok := waitFor(t, 3*time.Second, func() bool {
		snap = schedSnapshot{validatedAt: validated(), polls: e.polls.Load()}
		if snap.polls < minPolls {
			return false
		}
		px.schedMu.Lock()
		scheduled := e.item != nil
		snap.base, snap.next = e.baseNextAt, e.nextAt
		px.schedMu.Unlock()
		return scheduled && e.polls.Load() == snap.polls && validated().Equal(snap.validatedAt)
	})
	if !ok {
		t.Fatalf("%s never settled on the heap after %d polls", key, minPolls)
	}
	return snap
}

// wantLeased asserts the lease contract on one placement: the paper-mode
// instant is remembered, and the poll sits at the key's hash phase inside
// the first term when only the admission fetch has run, or exactly one
// lease term after the last poll otherwise.
func wantLeased(t *testing.T, px *Proxy, key string, s schedSnapshot) {
	t.Helper()
	want := px.leaseTerm
	if s.polls == 1 {
		want = px.leasePhase(key, s.ttr())
	}
	if !s.leased() || s.next.Sub(s.validatedAt) != want {
		t.Errorf("%s after %d polls: next poll %v after validation (paper-mode %v), want %v",
			key, s.polls, s.next.Sub(s.validatedAt), s.ttr(), want)
	}
}

func TestPushEventTriggersImmediateRefresh(t *testing.T) {
	// TTR bounds so wide that pull alone could not possibly observe the
	// update inside the assertion window: freshness must come from push.
	s := newPushSetup(t, Config{
		DefaultDelta: time.Minute,
		Bounds:       core.TTRBounds{Min: time.Minute, Max: time.Hour},
	})
	s.origin.Set("/page", []byte("v1"), "")
	waitPushConnected(t, s.proxy)
	s.get(t, "/page")

	s.origin.Set("/page", []byte("v2"), "")
	ok := waitFor(t, 3*time.Second, func() bool {
		b, _ := s.proxy.CachedBody("/page")
		return string(b) == "v2"
	})
	if !ok {
		t.Fatal("pushed invalidation did not refresh the cached copy")
	}
	if st := s.proxy.ObjectStats("/page"); st.Pushed == 0 {
		t.Errorf("no pushed poll recorded: %+v", st)
	}
	if cs := s.proxy.CacheStats(); cs.PushPolls == 0 || cs.PushEvents == 0 || !cs.PushConnected {
		t.Errorf("CacheStats push counters: %+v", cs)
	}
}

func TestPushEventForNonResidentObjectIsDropped(t *testing.T) {
	s := newPushSetup(t, Config{})
	waitPushConnected(t, s.proxy)
	s.origin.Set("/never-requested", []byte("v1"), "")
	s.origin.Set("/never-requested", []byte("v2"), "")
	if !waitFor(t, 3*time.Second, func() bool { return s.proxy.PushStats().Dropped >= 1 }) {
		t.Fatalf("events for non-resident objects not dropped: %+v", s.proxy.PushStats())
	}
	if s.origin.Polls() != 0 {
		t.Errorf("proxy polled the origin %d times for an object nobody requested", s.origin.Polls())
	}
}

func TestPushStretchesRegularPollsWhileHealthy(t *testing.T) {
	const stretch, ttrMax = 8, 10 * time.Second
	s := newPushSetup(t, Config{
		PushStretch: stretch,
		Bounds:      core.TTRBounds{Min: 50 * time.Millisecond, Max: ttrMax},
	})
	if got := s.proxy.PushStats().LeaseTerm; got != stretch*ttrMax {
		t.Fatalf("lease term %v, want PushStretch × Bounds.Max = %v", got, stretch*ttrMax)
	}
	s.origin.Set("/static", []byte("unchanging"), "")
	waitPushConnected(t, s.proxy)
	s.get(t, "/static")

	// The lease starts at install: on a healthy channel the admission
	// already places the first poll at the key's phase inside the first
	// term, with the paper-mode instant remembered for the sweep.
	snap := scheduleOf(t, s.proxy, "/static", 1)
	wantLeased(t, s.proxy, "/static", snap)
	if snap.ttr() != 50*time.Millisecond {
		t.Errorf("paper-mode instant %v after admission, want TTRmin", snap.ttr())
	}

	// Later polls run exactly one term apart. Pull the first one forward
	// instead of sleeping out the phase.
	s.proxy.reschedule(s.proxy.lookup("/static"), time.Now())
	wantLeased(t, s.proxy, "/static", scheduleOf(t, s.proxy, "/static", 2))
}

func TestUnpushableKeyIsNeverStretched(t *testing.T) {
	// An object whose key cannot fit an invalidation frame will never be
	// announced by the origin; leasing its poll to the channel would
	// silently widen its Δt bound to the lease term with nothing covering
	// the gap. Such objects must keep pure-polling schedules even while
	// the channel is healthy.
	s := newPushSetup(t, Config{
		PushStretch: 8,
		Bounds:      core.TTRBounds{Min: 50 * time.Millisecond, Max: 10 * time.Second},
	})
	huge := "/" + strings.Repeat("k", 4200)
	s.origin.Set(huge, []byte("v1"), "")
	s.origin.Set("/normal", []byte("v1"), "")
	// An origin path containing a literal '?' is cached under %3F — an
	// event for it ("/a?b") can never resolve to that cache key.
	s.origin.Set("/a?b", []byte("v1"), "")
	waitPushConnected(t, s.proxy)
	s.get(t, huge)
	s.get(t, "/normal")
	s.get(t, "/a%3Fb")
	// A query-bearing cache key can never match a path-granular event
	// either (the origin serves /normal for any query).
	s.get(t, "/normal?sym=A")

	wantLeased(t, s.proxy, "/normal", scheduleOf(t, s.proxy, "/normal", 1))
	for label, key := range map[string]string{
		"oversized key":     huge,
		"literal-? key":     "/a%3Fb",
		"query-bearing key": "/normal?sym=A",
	} {
		// At install and after regular polls alike.
		for _, minPolls := range []uint64{1, 3} {
			if snap := scheduleOf(t, s.proxy, key, minPolls); snap.leased() {
				t.Errorf("%s leased after %d polls: paper-mode %v, scheduled %v after validation",
					label, snap.polls, snap.ttr(), snap.next.Sub(snap.validatedAt))
			}
		}
	}
	if s.origin.PushOversized() == 0 {
		t.Error("origin never dropped the oversized event")
	}
}

func TestPushDisconnectFallsBackWithinOneTTR(t *testing.T) {
	s := newPushSetup(t, Config{
		PushStretch: 50, // a 500 s lease: fallback must not inherit it
		Bounds:      core.TTRBounds{Min: 50 * time.Millisecond, Max: 10 * time.Second},
	})
	s.origin.Set("/page", []byte("v1"), "")
	waitPushConnected(t, s.proxy)
	s.get(t, "/page")
	wantLeased(t, s.proxy, "/page", scheduleOf(t, s.proxy, "/page", 1))

	// Kill the channel. The origin updates while it is down; only the
	// pulled-back paper-mode schedule can observe the change.
	s.origin.SetPushAvailable(false)
	if !waitFor(t, 3*time.Second, func() bool { return s.proxy.PushStats().Fallbacks >= 1 }) {
		t.Fatal("fallback never triggered")
	}
	s.origin.Set("/page", []byte("v2"), "")
	// Pure paper-mode staleness is bounded by the current TTR; with the
	// update landing just after a poll the copy must refresh within one
	// full TTR (≤ Bounds.Max·linear growth, here well under 2s since
	// only a few quiet polls have grown it from 50ms).
	start := time.Now()
	ok := waitFor(t, 4*time.Second, func() bool {
		b, _ := s.proxy.CachedBody("/page")
		return string(b) == "v2"
	})
	if !ok {
		t.Fatal("fallback polling never observed the update")
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("fallback refresh took %v; sweep did not restore paper-mode scheduling", waited)
	}
	if s.proxy.PushStats().Connected {
		t.Error("channel still marked healthy after the origin disabled it")
	}
	if snap := scheduleOf(t, s.proxy, "/page", 2); snap.leased() {
		t.Errorf("still leased with the channel down: paper-mode %v, scheduled %v after validation",
			snap.ttr(), snap.next.Sub(snap.validatedAt))
	}
}

func TestPushReconnectRearmsChannel(t *testing.T) {
	s := newPushSetup(t, Config{
		DefaultDelta: time.Minute,
		Bounds:       core.TTRBounds{Min: time.Minute, Max: time.Hour},
	})
	s.origin.Set("/page", []byte("v1"), "")
	waitPushConnected(t, s.proxy)
	s.get(t, "/page")

	s.origin.SetPushAvailable(false)
	if !waitFor(t, 3*time.Second, func() bool { return !s.proxy.PushStats().Connected }) {
		t.Fatal("disconnect never detected")
	}
	connectsBefore := s.proxy.PushStats().Connects
	s.origin.SetPushAvailable(true)
	if !waitFor(t, 3*time.Second, func() bool {
		st := s.proxy.PushStats()
		return st.Connected && st.Connects > connectsBefore
	}) {
		t.Fatal("channel never re-armed")
	}
	// A post-reconnect update must arrive via push again, long before
	// the minute-long TTR could observe it. (The event may even be
	// replayed from the origin's buffer — either path must refresh.)
	s.origin.Set("/page", []byte("v3"), "")
	ok := waitFor(t, 3*time.Second, func() bool {
		b, _ := s.proxy.CachedBody("/page")
		return string(b) == "v3"
	})
	if !ok {
		t.Fatal("re-armed channel did not deliver the update")
	}
}

// settlePush waits, on a stepped clock, until the proxy has handled every
// event the origin published and run the work they queued.
func settlePush(t *testing.T, s *liveSetup, clk *simClock) {
	t.Helper()
	if !waitFor(t, 3*time.Second, func() bool { return s.proxy.PushStats().LastSeq >= s.origin.PushSeq() }) {
		t.Fatalf("the proxy never handled the origin's events: %+v", s.proxy.PushStats())
	}
	quiesceSim(t, s.proxy, clk)
}

func TestPushedPollTriggersGroupMembers(t *testing.T) {
	// The story's updates arrive via push; the photo shares its group but
	// no lease carries it — its cache key has a query, which no event can
	// ever announce. A pushed poll that confirms an update must impose the
	// same mutual obligation a regular poll would, so the photo gets
	// triggered even though its own TTR is a minute out. (A leased sibling
	// is vouched for by the channel instead: see
	// TestGroupTriggerSkipsCarriedSibling.)
	const photo = "/photo?size=full"
	clk := newSimClock()
	s := newPushSetup(t, Config{
		Clock:             clk.Now,
		Mode:              core.TriggerAll,
		DefaultDelta:      time.Minute,
		DefaultGroupDelta: time.Second,
		Bounds:            core.TTRBounds{Min: time.Minute, Max: time.Hour},
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
	if st := s.proxy.ObjectStats("/story"); st.Pushed != 1 {
		t.Fatalf("the story's update did not arrive as a pushed poll: %+v", st)
	}
	if st := s.proxy.ObjectStats(photo); st.Triggered != 1 {
		t.Errorf("pushed story update triggered the photo %d times, want once: %+v", st.Triggered, st)
	}
}

// TestPushChaosSoak is the chaos battery of ISSUE 3: a churning origin
// whose event stream is repeatedly killed mid-burst. Throughout, the
// staleness of everything the proxy serves must stay within the pure-
// polling bound (TTR growth capped at Bounds.Max, plus scheduling and
// HTTP slack) — the channel may only ever make freshness better, never
// worse — and after each cut the subscriber must re-arm.
func TestPushChaosSoak(t *testing.T) {
	const (
		delta   = 50 * time.Millisecond
		ttrMax  = 300 * time.Millisecond
		objects = 4
	)
	s := newPushSetup(t, Config{
		DefaultDelta: delta,
		PushStretch:  10,
		Bounds:       core.TTRBounds{Min: delta, Max: ttrMax},
	})

	// revisions[i] records when each revision of object i was published;
	// reads through the proxy are checked against it.
	type revLog struct {
		mu    sync.Mutex
		times []time.Time
	}
	logs := make([]*revLog, objects)
	for i := range logs {
		logs[i] = &revLog{times: []time.Time{time.Now()}}
		s.origin.Set(fmt.Sprintf("/obj/%d", i), []byte("0"), "")
	}
	waitPushConnected(t, s.proxy)
	for i := 0; i < objects; i++ {
		s.get(t, fmt.Sprintf("/obj/%d", i))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Churn: update every object in bursts.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rev := 0
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
			rev++
			for i := 0; i < objects; i++ {
				logs[i].mu.Lock()
				logs[i].times = append(logs[i].times, time.Now())
				logs[i].mu.Unlock()
				s.origin.Set(fmt.Sprintf("/obj/%d", i), []byte(strconv.Itoa(rev)), "")
			}
		}
	}()

	// Chaos: cut the stream mid-burst, revive it, repeat.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(150 * time.Millisecond):
				s.origin.KillPushStreams()
			}
			select {
			case <-stop:
				return
			case <-time.After(120 * time.Millisecond):
				s.origin.SetPushAvailable(false)
			}
			select {
			case <-stop:
				return
			case <-time.After(150 * time.Millisecond):
				s.origin.SetPushAvailable(true)
			}
		}
	}()

	// Readers: hammer the proxy and score staleness of every response.
	var staleViolations atomic.Int64
	// The serve-staleness bound: one full grown TTR, plus the admission
	// fetch/backoff slack. Generous against CI scheduling noise; the
	// point is the ceiling exists and survives chaos.
	bound := 2*ttrMax + time.Second
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := int(time.Now().UnixNano()) % objects
				body, _ := s.get(t, fmt.Sprintf("/obj/%d", i))
				served, err := strconv.Atoi(body)
				if err != nil {
					continue
				}
				now := time.Now()
				logs[i].mu.Lock()
				times := logs[i].times
				// The served revision became stale when revision
				// served+1 was published.
				if served+1 < len(times) {
					if age := now.Sub(times[served+1]); age > bound {
						staleViolations.Add(1)
					}
				}
				logs[i].mu.Unlock()
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}

	time.Sleep(3 * time.Second)
	close(stop)
	wg.Wait()

	if v := staleViolations.Load(); v > 0 {
		t.Errorf("%d responses exceeded the pure-polling staleness bound %v", v, bound)
	}
	st := s.proxy.PushStats()
	if st.Fallbacks == 0 {
		t.Error("chaos never produced a fallback; the test exercised nothing")
	}
	if st.Connects < 2 {
		t.Errorf("subscriber connected only %d times across repeated cuts", st.Connects)
	}
	// The channel must end the run re-armed (give it a beat to settle).
	// The chaos loop may have been stopped inside its unavailable window.
	s.origin.SetPushAvailable(true)
	if !waitFor(t, 3*time.Second, func() bool { return s.proxy.PushStats().Connected }) {
		t.Error("channel did not re-arm after the final revival")
	}
}
