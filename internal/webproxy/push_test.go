package webproxy

import (
	"fmt"
	"net/http"
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

// pushTopology is one hybrid proxy behind a push-enabled origin (history
// extension on), configured by cfg. Tests quiesce after seeding the
// origin, so its events are handled before anything they name is
// resident.
func pushTopology(cfg Config) topology {
	return topology{push: true, cfg: cfg, origin: []webserver.Option{webserver.WithHistoryExtension(true)}}
}

// withStrippedEvents serves tp's origin events stripped of their
// payloads (see topology.strip), so every pushed job is a confirmation
// poll.
func withStrippedEvents(tp topology) topology {
	tp.strip = true
	return tp
}

// schedSnapshot is one reading of an entry's heap placement together
// with the validation it was computed from.
type schedSnapshot struct {
	validatedAt, base, next time.Time
	polls                   uint64
}

// ttr is the unstretched interval the placement was computed with.
func (s schedSnapshot) ttr() time.Duration { return s.base.Sub(s.validatedAt) }

// leased reports whether the placement runs past its paper-mode instant.
func (s schedSnapshot) leased() bool { return s.base.Before(s.next) }

// scheduleOf reads key's placement on the refresh heap, after at least
// minPolls polls, of a quiesced proxy.
func scheduleOf(t *testing.T, px *node, key string, minPolls uint64) schedSnapshot {
	t.Helper()
	e := px.lookup(key)
	if e == nil {
		t.Fatalf("%s not resident", key)
	}
	e.mu.RLock()
	snap := schedSnapshot{validatedAt: e.validatedAt, polls: e.polls.Load()}
	e.mu.RUnlock()
	px.schedMu.Lock()
	scheduled := e.item.Pending()
	snap.base, snap.next = e.baseNextAt(), e.item.At
	px.schedMu.Unlock()
	if !scheduled || snap.polls < minPolls {
		t.Fatalf("%s not on the heap after %d polls (scheduled %v, %d polls)", key, minPolls, scheduled, snap.polls)
	}
	return snap
}

// wantLeased asserts the lease contract on one placement: the paper-mode
// instant is remembered, and the poll sits in the audit bucket nearest the
// key's hash phase inside the first term when only the admission fetch
// has run, or in the bucket of one lease term after the last poll
// otherwise.
func wantLeased(t *testing.T, px *node, key string, s schedSnapshot) {
	t.Helper()
	want := bucketed(px, s.validatedAt.Add(px.lease.term), s.base)
	if s.polls == 1 {
		want = bucketedPhase(px, s.validatedAt.Add(px.lease.phase(key, s.ttr())), s.validatedAt, s.base)
	}
	if !s.leased() || !s.next.Equal(want) {
		t.Errorf("%s after %d polls: next poll %v after validation (paper-mode %v), want %v",
			key, s.polls, s.next.Sub(s.validatedAt), s.ttr(), want.Sub(s.validatedAt))
	}
}

// bucketed is where a leased audit due at audit, a term after its
// validation, is placed: rounded down to a multiple of L/32, so the keys
// due in one bucket go upstream in one batch — unless that would land at
// or before base, the paper-mode instant, when it stays at audit.
func bucketed(px *node, audit, base time.Time) time.Time {
	if at := audit.Truncate(px.lease.term / 32); at.After(base) {
		return at
	}
	return audit
}

// bucketedPhase is where a first audit at the key's phase is placed:
// rounded to the nearest multiple of L/32, but never past the bucket a
// full term after the validation, nor at or before base.
func bucketedPhase(px *node, first, validatedAt, base time.Time) time.Time {
	grid := px.lease.term / 32
	at := first.Add(grid / 2).Truncate(grid)
	if last := validatedAt.Add(px.lease.term).Truncate(grid); at.After(last) {
		at = last
	}
	if at.After(base) {
		return at
	}
	return first
}

func TestPushEventTriggersImmediateRefresh(t *testing.T) {
	// TTR bounds so wide that pull alone could not possibly observe the
	// update: freshness must come from push.
	h := newHarness(t, withStrippedEvents(pushTopology(Config{
		DefaultDelta: time.Minute,
		Bounds:       core.TTRBounds{Min: time.Minute, Max: time.Hour},
	})))
	px := h.leaf()
	h.origin.Set("/page", []byte("v1"), "")
	h.quiesce()
	px.get("/page")

	h.origin.Set("/page", []byte("v2"), "")
	h.quiesce()
	if b, _ := px.CachedBody("/page"); string(b) != "v2" {
		t.Fatalf("pushed invalidation did not refresh the cached copy: %q", b)
	}
	if st := px.ObjectStats("/page"); st.Pushed == 0 {
		t.Errorf("no pushed poll recorded: %+v", st)
	}
	if ps := px.PushStats(); ps.Polls == 0 || ps.Events == 0 || !ps.Connected {
		t.Errorf("PushStats counters: %+v", ps)
	}
}

func TestPushEventForNonResidentObjectIsDropped(t *testing.T) {
	h := newHarness(t, pushTopology(Config{}))
	h.origin.Set("/never-requested", []byte("v1"), "")
	h.origin.Set("/never-requested", []byte("v2"), "")
	h.quiesce()
	if st := h.leaf().PushStats(); st.Dropped != 2 {
		t.Fatalf("events for non-resident objects not dropped: %+v", st)
	}
	if n := h.origin.Stats().Polls; n != 0 {
		t.Errorf("proxy polled the origin %d times for an object nobody requested", n)
	}
}

func TestPushStretchesRegularPollsWhileHealthy(t *testing.T) {
	const stretch, ttrMax = 8, 10 * time.Second
	h := newHarness(t, pushTopology(Config{
		PushStretch: stretch,
		Bounds:      core.TTRBounds{Min: 50 * time.Millisecond, Max: ttrMax},
	}))
	px := h.leaf()
	if got := px.PushStats().LeaseTerm; got != stretch*ttrMax {
		t.Fatalf("lease term %v, want PushStretch × Bounds.Max = %v", got, stretch*ttrMax)
	}
	h.origin.Set("/static", []byte("unchanging"), "")
	h.quiesce()
	px.get("/static")

	// The lease starts at install: on a healthy channel the admission
	// already places the first poll at the key's phase inside the first
	// term, with the paper-mode instant remembered for the sweep.
	snap := scheduleOf(t, px, "/static", 1)
	wantLeased(t, px, "/static", snap)
	if snap.ttr() != 50*time.Millisecond {
		t.Errorf("paper-mode instant %v after admission, want TTRmin", snap.ttr())
	}

	// Later polls run exactly one term apart. Pull the first one forward
	// instead of stepping out the phase.
	px.reschedule(px.lookup("/static"), h.clk.Now())
	h.quiesce()
	wantLeased(t, px, "/static", scheduleOf(t, px, "/static", 2))
}

func TestUnpushableKeyIsNeverStretched(t *testing.T) {
	// An object whose key cannot fit an invalidation frame will never be
	// announced by the origin; leasing its poll to the channel would
	// silently widen its Δt bound to the lease term with nothing covering
	// the gap. Such objects must keep pure-polling schedules even while
	// the channel is healthy.
	h := newHarness(t, pushTopology(Config{
		PushStretch: 8,
		Bounds:      core.TTRBounds{Min: 50 * time.Millisecond, Max: 10 * time.Second},
	}))
	px := h.leaf()
	huge := "/" + strings.Repeat("k", 4200)
	h.origin.Set(huge, []byte("v1"), "")
	h.origin.Set("/normal", []byte("v1"), "")
	// An origin path containing a literal '?' is cached under %3F — an
	// event for it ("/a?b") can never resolve to that cache key.
	h.origin.Set("/a?b", []byte("v1"), "")
	h.quiesce()
	px.get(huge)
	px.get("/normal")
	px.get("/a%3Fb")
	// A query-bearing cache key can never match a path-granular event
	// either (the origin serves /normal for any query).
	px.get("/normal?sym=A")

	wantLeased(t, px, "/normal", scheduleOf(t, px, "/normal", 1))
	unpushable := map[string]string{
		"oversized key":     huge,
		"literal-? key":     "/a%3Fb",
		"query-bearing key": "/normal?sym=A",
	}
	// At install and after regular polls alike.
	for _, minPolls := range []uint64{1, 3} {
		if minPolls > 1 {
			h.advance(time.Second)
		}
		for label, key := range unpushable {
			if snap := scheduleOf(t, px, key, minPolls); snap.leased() {
				t.Errorf("%s leased after %d polls: paper-mode %v, scheduled %v after validation",
					label, snap.polls, snap.ttr(), snap.next.Sub(snap.validatedAt))
			}
		}
	}
	if h.origin.Stats().Hub.Oversized == 0 {
		t.Error("origin never dropped the oversized event")
	}
}

func TestPushDisconnectFallsBackWithinOneTTR(t *testing.T) {
	h := newHarness(t, pushTopology(Config{
		PushStretch: 50, // a 500 s lease: fallback must not inherit it
		Bounds:      core.TTRBounds{Min: 50 * time.Millisecond, Max: 10 * time.Second},
	}))
	px := h.leaf()
	h.origin.Set("/page", []byte("v1"), "")
	h.quiesce()
	px.get("/page")
	wantLeased(t, px, "/page", scheduleOf(t, px, "/page", 1))

	// Kill the channel. The origin updates while it is down; only the
	// pulled-back paper-mode schedule can observe the change.
	h.origin.SetPushAvailable(false)
	h.quiesce()
	if st := px.PushStats(); st.Fallbacks != 1 || st.Connected {
		t.Fatalf("fallback never triggered: %+v", st)
	}
	h.origin.Set("/page", []byte("v2"), "")
	// Pure paper-mode staleness is bounded by the current TTR: 50 ms, the
	// first one, as no quiet poll has grown it yet.
	h.advance(50 * time.Millisecond)
	if b, _ := px.CachedBody("/page"); string(b) != "v2" {
		t.Fatalf("fallback polling never observed the update within one TTR: %q", b)
	}
	if snap := scheduleOf(t, px, "/page", 2); snap.leased() {
		t.Errorf("still leased with the channel down: paper-mode %v, scheduled %v after validation",
			snap.ttr(), snap.next.Sub(snap.validatedAt))
	}
}

// TestRetiredFrameSpellingDegradesToPolling: a hop whose upstream still
// speaks a retired spelling never connects — the versioned hello, or
// the six-core-field grammar whose sixth field was the object's group,
// with or without a group token. The hello is refused as the stream's
// first frame, not skipped as a mid-stream line, no key takes a lease,
// and a resident key is polled on its paper-mode TTR.
func TestRetiredFrameSpellingDegradesToPolling(t *testing.T) {
	for _, tc := range []struct{ name, stream string }{
		{"versioned hello", "id: 0\ndata: v1 1 0 0 - - -\n\n"},
		{"six core fields", "id: 0\ndata: 1 0 0 - - -\n\nid: 1\ndata: 2 1 0 - %2Fpage -\n\n"},
		{"six core fields with a group token", "id: 0\ndata: 1 0 0 - - -\n\nid: 1\ndata: 2 1 0 - %2Fpage news\n\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var h *harness
			origin := webserver.NewOrigin(webserver.WithClock(func() time.Time { return h.clk.Now() }))
			var streams atomic.Int64
			retried := make(chan struct{})
			h = newHarness(t, topology{push: true, cfg: Config{
				PushStretch: 50,
				Bounds:      core.TTRBounds{Min: 50 * time.Millisecond, Max: 10 * time.Second},
			}, handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/events" {
					origin.ServeHTTP(w, r)
					return
				}
				w.Header().Set("Content-Type", "text/event-stream")
				fmt.Fprint(w, tc.stream)
				if streams.Add(1) == 2 {
					close(retried) // the first hello was refused
				}
			})})
			select {
			case <-retried:
			case <-time.After(10 * time.Second):
				t.Fatal("the subscriber never retried after the retired hello")
			}
			px := h.leaf()
			origin.Set("/page", []byte("v1"), "")
			px.get("/page")
			st := px.PushStats()
			if st.Connected || st.Connects != 0 || st.SkippedFrames != 0 {
				t.Fatalf("a retired hello opened the channel or counted as a skipped frame: %+v", st)
			}
			snap := scheduleOf(t, px, "/page", 1)
			if snap.leased() || snap.ttr() != 50*time.Millisecond {
				t.Fatalf("admission placed %v after validation (paper-mode %v), want the unleased TTRmin",
					snap.next.Sub(snap.validatedAt), snap.ttr())
			}
			origin.Set("/page", []byte("v2"), "")
			h.advance(50 * time.Millisecond)
			if b, _ := px.CachedBody("/page"); string(b) != "v2" {
				t.Fatalf("paper-mode polling never observed the update within one TTR: %q", b)
			}
			if snap := scheduleOf(t, px, "/page", 2); snap.leased() {
				t.Errorf("leased with no channel: paper-mode %v, scheduled %v after validation",
					snap.ttr(), snap.next.Sub(snap.validatedAt))
			}
		})
	}
}

func TestPushReconnectRearmsChannel(t *testing.T) {
	h := newHarness(t, pushTopology(Config{
		DefaultDelta: time.Minute,
		Bounds:       core.TTRBounds{Min: time.Minute, Max: time.Hour},
	}))
	px := h.leaf()
	h.origin.Set("/page", []byte("v1"), "")
	h.quiesce()
	px.get("/page")

	h.origin.SetPushAvailable(false)
	h.quiesce()
	if px.PushStats().Connected {
		t.Fatal("disconnect never detected")
	}
	connectsBefore := px.PushStats().Connects
	h.origin.SetPushAvailable(true)
	h.quiesce()
	if st := px.PushStats(); !st.Connected || st.Connects <= connectsBefore {
		t.Fatalf("channel never re-armed: %+v", st)
	}
	// A post-reconnect update must arrive via push again, long before
	// the minute-long TTR could observe it.
	h.origin.Set("/page", []byte("v3"), "")
	h.quiesce()
	if b, _ := px.CachedBody("/page"); string(b) != "v3" {
		t.Fatalf("re-armed channel did not deliver the update: %q", b)
	}
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
	h := newHarness(t, withStrippedEvents(pushTopology(Config{
		Mode:              core.TriggerAll,
		DefaultDelta:      time.Minute,
		DefaultGroupDelta: time.Second,
		Bounds:            core.TTRBounds{Min: time.Minute, Max: time.Hour},
	})))
	px := h.leaf()
	h.origin.Set("/story", []byte("story v1"), "text/html")
	h.origin.Set("/photo", []byte("photo v1"), "image/png")
	for _, path := range []string{"/story", "/photo"} {
		h.origin.SetTolerances(path, httpx.Tolerances{Group: "news"})
	}
	h.quiesce()
	px.get("/story")
	px.get(photo)

	h.advance(10 * time.Second) // both validations now lie beyond δ
	h.origin.Set("/story", []byte("story v2"), "text/html")
	h.quiesce()
	if st := px.ObjectStats("/story"); st.Pushed != 1 {
		t.Fatalf("the story's update did not arrive as a pushed poll: %+v", st)
	}
	if st := px.ObjectStats(photo); st.Triggered != 1 {
		t.Errorf("pushed story update triggered the photo %d times, want once: %+v", st.Triggered, st)
	}
}

// TestPushChaosSoak is the chaos battery: a churning origin whose event
// stream is repeatedly cut mid-burst, on the stepped clock. Throughout,
// the staleness of everything the proxy serves must stay within the
// pure-polling bound (TTR growth capped at Bounds.Max) — the channel may
// only ever make freshness better, never worse — and after each cut the
// subscriber must re-arm. Readers run concurrently with the churn.
func TestPushChaosSoak(t *testing.T) {
	const (
		delta   = 50 * time.Millisecond
		ttrMax  = 300 * time.Millisecond
		objects = 4
		tick    = 20 * time.Millisecond // between update bursts
		cycle   = 420 * time.Millisecond
		rounds  = 150 // 3 s of churn
	)
	h := newHarness(t, pushTopology(Config{
		DefaultDelta: delta,
		PushStretch:  10,
		Bounds:       core.TTRBounds{Min: delta, Max: ttrMax},
	}))
	px := h.leaf()

	// revisions[i] records when each revision of object i was published;
	// reads through the proxy are checked against it.
	type revLog struct {
		mu    sync.Mutex
		times []time.Time
	}
	logs := make([]*revLog, objects)
	for i := range logs {
		logs[i] = &revLog{times: []time.Time{h.clk.Now()}}
		h.origin.Set(fmt.Sprintf("/obj/%d", i), []byte("0"), "")
	}
	h.quiesce()
	for i := 0; i < objects; i++ {
		px.get(fmt.Sprintf("/obj/%d", i))
	}

	// Readers: each tick, read every object through the proxy while the
	// churn runs on, and score the staleness of every response on the
	// virtual clock. The bound is one full grown TTR plus the tick the
	// origin may have published in.
	bound := ttrMax + tick
	var staleViolations, reads atomic.Int64
	ticks := []chan struct{}{make(chan struct{}, rounds), make(chan struct{}, rounds)}
	var wg sync.WaitGroup
	for _, c := range ticks {
		wg.Add(1)
		go func(c chan struct{}) {
			defer wg.Done()
			for range c {
				for i := 0; i < objects; i++ {
					_, body, _ := px.get(fmt.Sprintf("/obj/%d", i))
					served, err := strconv.Atoi(body)
					if err != nil {
						continue
					}
					reads.Add(1)
					now := h.clk.Now()
					logs[i].mu.Lock()
					// The served revision became stale when revision
					// served+1 was published.
					if times := logs[i].times; served+1 < len(times) && now.Sub(times[served+1]) > bound {
						staleViolations.Add(1)
					}
					logs[i].mu.Unlock()
				}
			}
		}(c)
	}

	// Churn every object each tick; per cycle, cut the stream mid-burst,
	// take the endpoint down, and bring it back.
	start := h.clk.Now()
	for rev := 1; rev <= rounds; rev++ {
		at := start.Add(time.Duration(rev) * tick)
		h.stepTo(at)
		for i := 0; i < objects; i++ {
			logs[i].mu.Lock()
			logs[i].times = append(logs[i].times, at)
			logs[i].mu.Unlock()
			h.origin.Set(fmt.Sprintf("/obj/%d", i), []byte(strconv.Itoa(rev)), "")
		}
		switch phase := at.Sub(start) % cycle; {
		case phase == 140*time.Millisecond:
			h.origin.KillPushStreams()
		case phase == 260*time.Millisecond:
			h.origin.SetPushAvailable(false)
		case phase == 400*time.Millisecond:
			h.origin.SetPushAvailable(true)
		}
		for _, c := range ticks {
			c <- struct{}{}
		}
		h.quiesce()
	}
	for _, c := range ticks {
		close(c)
	}
	wg.Wait()

	if v := staleViolations.Load(); v > 0 {
		t.Errorf("%d of %d responses exceeded the pure-polling staleness bound %v", v, reads.Load(), bound)
	}
	st := px.PushStats()
	if st.Fallbacks == 0 {
		t.Error("chaos never produced a fallback; the test exercised nothing")
	}
	if st.Connects < 2 {
		t.Errorf("subscriber connected only %d times across repeated cuts", st.Connects)
	}
	// The channel must end the run re-armed; the loop may have stopped
	// inside an unavailable window.
	h.origin.SetPushAvailable(true)
	h.quiesce()
	if !px.PushStats().Connected {
		t.Error("channel did not re-arm after the final revival")
	}
}
