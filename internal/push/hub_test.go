package push

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// hubSink records subscriber callbacks.
type hubSink struct {
	mu      sync.Mutex
	events  []Event
	hellos  []Event
	resumed []bool
}

func (s *hubSink) onEvent(ev Event) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

func (s *hubSink) onConnect(hello Event, resumed bool) {
	s.mu.Lock()
	s.hellos = append(s.hellos, hello)
	s.resumed = append(s.resumed, resumed)
	s.mu.Unlock()
}

func (s *hubSink) snapshot() (events, hellos []Event, resumed []bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...),
		append([]Event(nil), s.hellos...),
		append([]bool(nil), s.resumed...)
}

// startHubSubscriber runs a Subscriber against url until test cleanup.
func startHubSubscriber(t *testing.T, url string, sink *hubSink) *Subscriber {
	t.Helper()
	sub, err := NewSubscriber(SubscriberConfig{
		URL:        url,
		OnEvent:    sink.onEvent,
		OnConnect:  sink.onConnect,
		BackoffMin: 5 * time.Millisecond,
		BackoffMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go sub.Run(ctx)
	return sub
}

// TestHubMidStreamResetReachesSubscriber is the regression test for the
// swallowed mid-stream hello: a hub that injects a Reset into a live
// stream (what a relaying proxy does when its own upstream dies) must
// drive the subscriber's OnConnect reconciliation and fast-forward its
// resume point — without the connection dropping.
func TestHubMidStreamResetReachesSubscriber(t *testing.T) {
	h := NewHub(HubConfig{})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close) // registered before the subscriber's cancel: LIFO stops the client first

	sink := &hubSink{}
	sub := startHubSubscriber(t, ts.URL, sink)
	if !waitCond(t, 2*time.Second, func() bool { return h.Stats().Subscribers == 1 }) {
		t.Fatal("never connected")
	}
	h.Publish(Event{Kind: KindUpdate, Key: "/a"})
	if !waitCond(t, 2*time.Second, func() bool {
		evs, _, _ := sink.snapshot()
		return len(evs) == 1
	}) {
		t.Fatal("first event never arrived")
	}

	h.Reset()
	if !waitCond(t, 2*time.Second, func() bool { return sub.Stats().Resets == 1 }) {
		t.Fatal("mid-stream Reset was swallowed")
	}
	_, hellos, resumed := sink.snapshot()
	if len(hellos) != 2 {
		t.Fatalf("OnConnect ran %d times, want 2 (connect + mid-stream Reset)", len(hellos))
	}
	if !hellos[1].Reset || !resumed[1] {
		t.Errorf("mid-stream reconciliation: hello=%+v resumed=%v", hellos[1], resumed[1])
	}
	if got := sub.LastSeq(); got != 1 {
		t.Errorf("LastSeq = %d after Reset at seq 1", got)
	}
	// The stream itself must survive: a Reset is an announcement, not a
	// disconnect.
	if st := sub.Stats(); st.Connects != 1 || st.Disconnects != 0 {
		t.Errorf("connects=%d disconnects=%d; the Reset dropped the stream", st.Connects, st.Disconnects)
	}

	// The stream stays usable after the Reset.
	h.Publish(Event{Kind: KindUpdate, Key: "/b"})
	if !waitCond(t, 2*time.Second, func() bool {
		evs, _, _ := sink.snapshot()
		return len(evs) == 2 && evs[1].Key == "/b"
	}) {
		t.Fatal("stream dead after mid-stream Reset")
	}
}

// TestHubResetBarrierOnResume: a subscriber that was disconnected
// across a Reset cannot be healed by a contiguous replay of the hub's
// own ring — its resume must be answered with a Reset hello.
func TestHubResetBarrierOnResume(t *testing.T) {
	h := NewHub(HubConfig{})
	for i := 0; i < 3; i++ {
		h.Publish(Event{Kind: KindUpdate, Key: "/a"})
	}
	h.Reset() // barrier at seq 3

	cases := []struct {
		since     uint64
		wantReset bool
	}{
		{0, false}, // fresh subscriber: nothing to reconcile
		{2, true},  // behind the barrier
		{3, true},  // exactly at the barrier: the hole follows it
	}
	for _, c := range cases {
		hello, sub, ok := h.subscribe(c.since, InterestAll(), nil)
		if !ok {
			t.Fatalf("since=%d: unavailable", c.since)
		}
		if hello.Reset != c.wantReset {
			t.Errorf("since=%d: hello.Reset=%v want %v", c.since, hello.Reset, c.wantReset)
		}
		if backlog := fetchAll(h, sub); hello.Reset && len(backlog) != 0 {
			t.Errorf("since=%d: Reset hello with %d backlog events", c.since, len(backlog))
		}
		h.unsubscribe(sub)
	}

	// Past the barrier normal replay resumes.
	h.Publish(Event{Kind: KindUpdate, Key: "/b"}) // seq 4
	h.Publish(Event{Kind: KindUpdate, Key: "/c"}) // seq 5
	hello, sub, _ := h.subscribe(4, InterestAll(), nil)
	defer h.unsubscribe(sub)
	backlog := fetchAll(h, sub)
	if hello.Reset || len(backlog) != 1 || backlog[0].Seq != 5 {
		t.Errorf("post-barrier resume: hello=%+v backlog=%+v", hello, backlog)
	}
	if st := h.Stats(); st.Resets != 1 {
		t.Errorf("Stats().Resets = %d, want 1", st.Resets)
	}
}

// TestHubWriteDeadlineUnpinsStalledClient is the regression test for
// the unbounded frame write: a client that connects and never reads
// must not pin its handler goroutine inside the write after the hub
// terminates the subscription — the per-frame deadline bounds it.
func TestHubWriteDeadlineUnpinsStalledClient(t *testing.T) {
	h := NewHub(HubConfig{writeTimeout: 150 * time.Millisecond})
	ts := httptest.NewServer(h)
	defer ts.Close()

	// A raw TCP client that sends the request and never reads a byte,
	// so the response backs up through the kernel socket buffers.
	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET / HTTP/1.1\r\nHost: hub\r\nAccept: text/event-stream\r\n\r\n")
	if !waitCond(t, 2*time.Second, func() bool { return h.Stats().Subscribers == 1 }) {
		t.Fatal("never connected")
	}

	// Big frames fill the socket buffers fast; far more than the
	// subscriber channel capacity guarantees the hub terminates the
	// stalled stream while its handler is still trying to write.
	key := "/" + strings.Repeat("k", 2048)
	for i := 0; i < 4096; i++ {
		h.Publish(Event{Kind: KindUpdate, Key: key})
	}
	if h.Stats().Subscribers != 0 {
		t.Fatal("stalled subscriber still registered; Publish should have terminated it")
	}
	// The handler itself must unwind on the write-deadline timescale,
	// not the kernel-buffer one (the client never drains, so without
	// the deadline this would hang until the connection dies).
	if !waitCond(t, 3*time.Second, func() bool { return h.Stats().ActiveStreams == 0 }) {
		t.Fatalf("handler still pinned in the frame write %v after termination",
			3*time.Second)
	}
	if st := h.Stats(); st.SlowKills == 0 {
		t.Errorf("SlowKills = %d, want > 0", st.SlowKills)
	}
}

// TestHubKillAllStopsAWritingStream: a stream that is writing when
// KillAll returns writes nothing published after it. A serve loop that
// looked for its end only when idle went on, once its write returned, to
// fetch and write what was published since.
func TestHubKillAllStopsAWritingStream(t *testing.T) {
	h := NewHub(HubConfig{})
	gw := &gatedWriter{header: http.Header{}, permits: make(chan struct{}, 3)}
	gw.permits <- struct{}{} // the hello
	served := make(chan struct{})
	go func() {
		defer close(served)
		h.ServeHTTP(gw, httptest.NewRequest(http.MethodGet, "/events", nil))
	}()
	if !waitCond(t, 5*time.Second, func() bool { return gw.writes.Load() == 1 }) {
		t.Fatal("the hello was never written")
	}
	h.Publish(Event{Kind: KindUpdate, Key: "/e1"})
	if !waitCond(t, 5*time.Second, func() bool { return gw.waiting.Load() == 1 }) {
		t.Fatal("the /e1 batch never reached its write")
	}
	h.KillAll()
	h.Publish(Event{Kind: KindUpdate, Key: "/e2"})
	for range cap(gw.permits) {
		gw.permits <- struct{}{} // every write from here on lands
	}
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("stream still served after KillAll")
	}
	out := gw.written()
	if !strings.Contains(out, "%2Fe1") {
		t.Errorf("the write in flight at KillAll never landed: %q", out)
	}
	if strings.Contains(out, "%2Fe2") {
		t.Errorf("a frame published after KillAll was written: %q", out)
	}
}

// TestHubStatsLagAndOccupancy: the backpressure surface an operator
// watches — replay occupancy and per-subscriber lag — must track what
// the hub actually holds.
func TestHubStatsLagAndOccupancy(t *testing.T) {
	h := NewHub(HubConfig{replayLen: 8})
	_, sub, ok := h.subscribe(0, InterestAll(), nil)
	if !ok {
		t.Fatal("subscribe failed")
	}
	defer h.unsubscribe(sub)

	for i := 0; i < 10; i++ {
		h.Publish(Event{Kind: KindUpdate, Key: "/a"})
	}
	st := h.Stats()
	if st.Seq != 10 {
		t.Errorf("Seq = %d", st.Seq)
	}
	if st.ReplayLen != 8 || st.ReplayCap != 8 {
		t.Errorf("replay occupancy %d/%d, want 8/8", st.ReplayLen, st.ReplayCap)
	}
	// No serve loop is draining the subscription, so the subscriber's
	// wire position is still its subscribe-time baseline (seq 0).
	if st.Subscribers != 1 || len(st.Lags) != 1 || st.MaxLag != 10 {
		t.Errorf("lag accounting: %+v", st)
	}

	// An oversized event is dropped, not buffered, not sequenced.
	h.Publish(Event{Kind: KindUpdate, Key: "/" + strings.Repeat("x", MaxFrameLen)})
	if st := h.Stats(); st.Oversized != 1 || st.Seq != 10 {
		t.Errorf("oversized accounting: %+v", st)
	}
}

func TestHubRejectsNonGET(t *testing.T) {
	h := NewHub(HubConfig{})
	ts := httptest.NewServer(h)
	defer ts.Close()
	for _, method := range []string{http.MethodPost, http.MethodHead, http.MethodDelete} {
		req, _ := http.NewRequest(method, ts.URL, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s = %d, want 405", method, resp.StatusCode)
		}
	}
	if n := h.Stats().Subscribers; n != 0 {
		t.Errorf("%d subscriptions leaked by non-GET requests", n)
	}
}

// TestHubPublishDegradesOverCapPayload: a payload over the cap that no
// chunk set can carry (it has no digest to verify a reassembly against)
// must not drop the event (that would un-announce a real update) — it
// degrades to an invalidation-only frame at publish time and still
// consumes a sequence number.
func TestHubPublishDegradesOverCapPayload(t *testing.T) {
	h := NewHub(HubConfig{payloadCap: 256})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	sink := &hubSink{}
	startHubSubscriber(t, ts.URL, sink)
	if !waitCond(t, 2*time.Second, func() bool { return h.Stats().Subscribers == 1 }) {
		t.Fatal("never connected")
	}

	h.Publish(Event{Kind: KindUpdate, Key: "/fat", Body: make([]byte, 1024), HasBody: true})
	if !waitCond(t, 2*time.Second, func() bool {
		evs, _, _ := sink.snapshot()
		return len(evs) == 1
	}) {
		t.Fatal("degraded event never arrived")
	}
	evs, _, _ := sink.snapshot()
	if evs[0].Key != "/fat" || evs[0].HasBody || evs[0].Seq != 1 {
		t.Errorf("event = %+v, want invalidation-only seq 1", evs[0])
	}
	st := h.Stats()
	if st.Degraded != 1 || st.Oversized != 0 {
		t.Errorf("Degraded=%d Oversized=%d, want 1/0", st.Degraded, st.Oversized)
	}
	// A payload within the cap rides whole: every hub carries values.
	h2 := NewHub(HubConfig{})
	h2.Publish(Event{Kind: KindUpdate, Key: "/x", Body: []byte("b"), HasBody: true})
	if st := h2.Stats(); st.Degraded != 0 || st.Seq != 1 {
		t.Errorf("default hub: %+v", st)
	}
}

// TestHubCarriesReservedBytePayloadAtCap: a payload at DefaultPayloadCap
// made only of the bytes the line reserves is the longest payload field
// a hub writes, every byte escaped; it crosses a real stream as a value,
// neither skipped as an oversized line nor stripped. So does a payload
// that ends its frame in bytes a white-space trim would take.
func TestHubCarriesReservedBytePayloadAtCap(t *testing.T) {
	h := NewHub(HubConfig{})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	sink := &hubSink{}
	sub := startHubSubscriber(t, ts.URL, sink)
	if !waitCond(t, 2*time.Second, func() bool { return h.Stats().Subscribers == 1 }) {
		t.Fatal("never connected")
	}
	body := bytes.Repeat([]byte(" \n\r%"), DefaultPayloadCap/4)
	h.Publish(Event{Kind: KindUpdate, Key: "/reserved", Body: body, HasBody: true,
		Digest: DigestOf(body), ContentType: "application/octet-stream"})
	tail := []byte("ends in white space\t\v\f\u00a0")
	h.Publish(Event{Kind: KindUpdate, Key: "/tail", Body: tail, HasBody: true})
	if !waitCond(t, 2*time.Second, func() bool {
		evs, _, _ := sink.snapshot()
		return len(evs) == 2
	}) {
		t.Fatalf("the updates never arrived: %+v", sub.Stats())
	}
	evs, _, _ := sink.snapshot()
	if !evs[0].HasBody || !bytes.Equal(evs[0].Body, body) || evs[0].Digest != DigestOf(body) {
		t.Errorf("arrived as %d bytes (HasBody %v), want the %d-byte value", len(evs[0].Body), evs[0].HasBody, len(body))
	}
	if !evs[1].HasBody || !bytes.Equal(evs[1].Body, tail) {
		t.Errorf("arrived as %q (HasBody %v), want %q", evs[1].Body, evs[1].HasBody, tail)
	}
	if st := sub.Stats(); st.SkippedFrames != 0 || st.OverCapPayloads != 0 {
		t.Errorf("skipped %d lines, stripped %d payloads; want none", st.SkippedFrames, st.OverCapPayloads)
	}
	if st := h.Stats(); st.Degraded != 0 || st.ChunkFrames != 0 {
		t.Errorf("hub degraded %d, chunked %d; want a whole value", st.Degraded, st.ChunkFrames)
	}
}

// TestHubDegradesOverlongV2Envelope: a near-limit key whose bare
// invalidation fits but whose full envelope (digest and ctype fields)
// does not must be degraded to the stripped form at publish — never
// dropped (the update is real) and never emitted as a frame subscribers
// must reject (the reconnect livelock the envelope bound exists to
// prevent).
func TestHubDegradesOverlongV2Envelope(t *testing.T) {
	h := NewHub(HubConfig{})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	sink := &hubSink{}
	sub := startHubSubscriber(t, ts.URL, sink)
	if !waitCond(t, 2*time.Second, func() bool { return h.Stats().Subscribers == 1 }) {
		t.Fatal("never connected")
	}

	key := "/" + strings.Repeat("k", MaxFrameLen-20)
	body := []byte("165.38\n")
	h.Publish(Event{Kind: KindUpdate, Key: key, Body: body, HasBody: true,
		ContentType: "text/plain; charset=utf-8", Digest: DigestOf(body)})
	if !waitCond(t, 2*time.Second, func() bool {
		evs, _, _ := sink.snapshot()
		return len(evs) == 1
	}) {
		t.Fatalf("event never arrived (stats %+v, sub disconnects %d)", h.Stats(), sub.Stats().Disconnects)
	}
	evs, _, _ := sink.snapshot()
	if evs[0].Key != key || evs[0].HasBody || evs[0].Seq != 1 {
		t.Errorf("event = {Key len %d, HasBody %v, Seq %d}; want the degraded invalidation",
			len(evs[0].Key), evs[0].HasBody, evs[0].Seq)
	}
	st := h.Stats()
	if st.Degraded != 1 || st.Oversized != 0 {
		t.Errorf("Degraded=%d Oversized=%d, want 1/0", st.Degraded, st.Oversized)
	}
	if st := sub.Stats(); st.Disconnects != 0 || st.SkippedFrames != 0 {
		t.Errorf("stream suffered (disconnects=%d skipped=%d); the hub emitted a rejectable frame",
			st.Disconnects, st.SkippedFrames)
	}
}

// TestHubSanitizesUnframeableDigest: a publisher-supplied digest that
// Encode cannot frame (spaces shift the field count, non-hex fails the
// decoder) must be stripped at publish — it would otherwise sit in the
// replay ring as a frame every subscriber rejects, the poison-frame
// reconnect livelock.
func TestHubSanitizesUnframeableDigest(t *testing.T) {
	h := NewHub(HubConfig{})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	sink := &hubSink{}
	sub := startHubSubscriber(t, ts.URL, sink)
	if !waitCond(t, 2*time.Second, func() bool { return h.Stats().Subscribers == 1 }) {
		t.Fatal("never connected")
	}

	for _, digest := range []string{"bad digest", "zz", strings.Repeat("a", 65)} {
		h.Publish(Event{Kind: KindUpdate, Key: "/obj", Body: []byte("b"), HasBody: true, Digest: digest})
	}
	if !waitCond(t, 2*time.Second, func() bool {
		evs, _, _ := sink.snapshot()
		return len(evs) == 3
	}) {
		t.Fatalf("sanitized events never arrived (stats %+v, disconnects %d)", h.Stats(), sub.Stats().Disconnects)
	}
	evs, _, _ := sink.snapshot()
	for i, ev := range evs {
		if ev.Digest != "" || ev.HasBody || ev.Key != "/obj" {
			t.Errorf("event %d = %+v, want a digest-less invalidation", i, ev)
		}
	}
	if st := h.Stats(); st.Degraded != 3 || st.Oversized != 0 {
		t.Errorf("Degraded=%d Oversized=%d, want 3/0", st.Degraded, st.Oversized)
	}
	if d := sub.Stats().Disconnects; d != 0 {
		t.Errorf("stream died %d times on sanitized frames", d)
	}
}

// TestHubDropCountsOversizedNotDegraded: an event that is both over the
// payload cap and, stripped, over the envelope limit is one DROPPED
// event — it must count in Oversized only, not also in Degraded
// ("degraded" promises the event survived as an invalidation).
func TestHubDropCountsOversizedNotDegraded(t *testing.T) {
	h := NewHub(HubConfig{payloadCap: 16})
	h.Publish(Event{
		Kind:    KindUpdate,
		Key:     "/" + strings.Repeat("k", MaxFrameLen+16),
		Body:    make([]byte, 64),
		HasBody: true,
	})
	st := h.Stats()
	if st.Oversized != 1 || st.Degraded != 0 || st.Seq != 0 {
		t.Errorf("Oversized=%d Degraded=%d Seq=%d, want 1/0/0", st.Oversized, st.Degraded, st.Seq)
	}
}

// TestHubReplayRingByteBudget: the replay ring must be bounded by bytes
// as well as count — a burst of fat payloads trims history instead of
// growing the hub — and what stays in the ring replays payloads
// faithfully.
func TestHubReplayRingByteBudget(t *testing.T) {
	// ~1KB per event (body + envelope overhead); budget fits ~4.
	h := NewHub(HubConfig{replayLen: 1024, replayBytes: 4096})
	bodyFor := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, 900) }
	for i := 0; i < 12; i++ {
		b := bodyFor(i)
		h.Publish(Event{Kind: KindUpdate, Key: "/obj", Body: b, HasBody: true, Digest: DigestOf(b)})
	}
	st := h.Stats()
	if st.ReplayBytes > st.ReplayByteCap {
		t.Errorf("ring over budget: %d > %d", st.ReplayBytes, st.ReplayByteCap)
	}
	if st.ReplayLen >= 12 || st.ReplayLen < 1 {
		t.Errorf("ReplayLen = %d; the byte budget did not trim the ring", st.ReplayLen)
	}

	// A resume within the surviving window replays payloads verbatim
	// (the ring holds pre-rendered wire forms; decode the full form to
	// check what a payload-negotiated stream would receive).
	hello, sub, ok := h.subscribe(uint64(12-st.ReplayLen), InterestAll(), nil)
	if !ok {
		t.Fatal("subscribe failed")
	}
	defer h.unsubscribe(sub)
	if hello.Reset {
		t.Fatal("in-window resume got a Reset")
	}
	backlog := fetchAll(h, sub)
	if len(backlog) != st.ReplayLen {
		t.Fatalf("backlog %d events, want %d", len(backlog), st.ReplayLen)
	}
	for i, re := range backlog {
		want := bodyFor(12 - st.ReplayLen + i)
		ev, err := Decode(re.WireFor())
		if err != nil {
			t.Fatalf("backlog[%d] does not decode: %v", i, err)
		}
		if !ev.HasBody || !bytes.Equal(ev.Body, want) || ev.Digest != DigestOf(want) {
			t.Fatalf("backlog[%d] payload not replayed faithfully: %+v", i, ev)
		}
	}

	// A resume from before the trimmed-off history must Reset: the ring
	// cannot prove contiguity it no longer holds.
	hello2, sub2, _ := h.subscribe(1, InterestAll(), nil)
	defer h.unsubscribe(sub2)
	if !hello2.Reset {
		t.Error("out-of-window resume not Reset")
	}
	if h.Stats().ResumeHoles == 0 {
		t.Error("ResumeHoles not counted")
	}
}

// fetchAll pulls every frame the hub currently holds for sub, advancing
// its cursor — the test-side analogue of one serve-loop catch-up sweep.
func fetchAll(h *Hub, sub *hubSub) []RenderedEvent {
	var out []RenderedEvent
	for {
		batch, boundary, gen, killed := h.fetch(sub, nil)
		if killed {
			return out
		}
		out = append(out, batch...)
		progressed := len(batch) > 0 || boundary > sub.cursor.Load()
		sub.cursor.Store(boundary)
		sub.resetGen = gen
		if !progressed {
			return out
		}
	}
}

// drainSub runs the pull loop a serve goroutine would: wait for the
// publish notification, fetch a batch, advance the cursor, repeat until
// the subscriber is terminated.
func drainSub(h *Hub, sub *hubSub, wg *sync.WaitGroup) {
	defer wg.Done()
	scratch := make([]RenderedEvent, 0, fetchBatchLimit+1)
	for {
		ch := h.getNotify()
		batch, boundary, gen, killed := h.fetch(sub, scratch[:0])
		if killed {
			return
		}
		if len(batch) > 0 || boundary > sub.cursor.Load() {
			sub.cursor.Store(boundary)
			sub.resetGen = gen
			continue
		}
		select {
		case <-ch:
		case <-sub.done:
			return
		}
	}
}

// drainHubFleet registers fleet subscribers with the given interest and
// pull-drains them until the test or benchmark ends.
func drainHubFleet(tb testing.TB, h *Hub, fleet int, interest InterestSet) {
	tb.Helper()
	var wg sync.WaitGroup
	for i := 0; i < fleet; i++ {
		_, sub, ok := h.subscribe(0, interest, nil)
		if !ok {
			tb.Fatal("subscribe failed")
		}
		wg.Add(1)
		go drainSub(h, sub, &wg)
		tb.Cleanup(func() { h.unsubscribe(sub) })
	}
	tb.Cleanup(func() {
		h.KillAll()
		wg.Wait()
	})
}

// benchPublish times the Publish of ev on h.
func benchPublish(b *testing.B, h *Hub, ev Event) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Publish(ev)
	}
	b.StopTimer()
}

// The setups of the BenchmarkHubPublish* family, which
// TestHubPublishAllocBudget shares: each returns a hub with a draining
// fleet attached and the event every iteration publishes.

// fanoutHub's fleet subscribes to every key.
func fanoutHub(tb testing.TB, fleet int) (*Hub, Event) {
	h := NewHub(HubConfig{})
	drainHubFleet(tb, h, fleet, InterestAll())
	return h, Event{Kind: KindUpdate, Key: "/obj/path"}
}

// filteredHub's fleet declared a prefix the event is not under.
func filteredHub(tb testing.TB, fleet int) (*Hub, Event) {
	h := NewHub(HubConfig{})
	drainHubFleet(tb, h, fleet, NewInterest([]string{"/other"}))
	return h, Event{Kind: KindUpdate, Key: "/obj/path"}
}

// payloadHub carries values, and its event a 512-byte body.
func payloadHub(tb testing.TB, fleet int) (*Hub, Event) {
	h := NewHub(HubConfig{})
	drainHubFleet(tb, h, fleet, InterestAll())
	body := bytes.Repeat([]byte("v"), 512)
	return h, Event{Kind: KindUpdate, Key: "/obj/path",
		Body: body, HasBody: true, Digest: DigestOf(body)}
}

// BenchmarkHubPublishFanout measures the push fan-out hot path: one
// publisher broadcasting to fleets of draining subscribers. The
// allocation count must be INDEPENDENT of the fleet size — the event is
// rendered once at publish into the partitioned ring, and subscribers
// pull batches on their own goroutines
// (TestPublishAllocsIndependentOfFanout pins this).
func BenchmarkHubPublishFanout(b *testing.B) {
	for _, fleet := range []int{1, 16, 128} {
		b.Run(fmt.Sprintf("subs=%d", fleet), func(b *testing.B) {
			h, ev := fanoutHub(b, fleet)
			benchPublish(b, h, ev)
		})
	}
}

// BenchmarkHubPublishFanoutFiltered measures fan-out through interest
// filtering: a fleet of subscribers that declared a disjoint prefix, so
// every published frame lands in a partition none of them walk — the
// publish cost is one render plus the ring append, with zero wire
// writes. (The serve-side skip itself is exercised by the HTTP-path
// tests; here the subscribers never drain through ServeHTTP, so this
// bounds the publish half of the filtered path.)
func BenchmarkHubPublishFanoutFiltered(b *testing.B) {
	h, ev := filteredHub(b, 16)
	benchPublish(b, h, ev)
}

// BenchmarkHubPublishFanoutPayload is the value-carrying variant: the
// same fan-out with a 512-byte body riding every event, through the
// byte-budgeted replay ring.
func BenchmarkHubPublishFanoutPayload(b *testing.B) {
	h, ev := payloadHub(b, 16)
	benchPublish(b, h, ev)
	if st := h.Stats(); st.Degraded != 0 {
		b.Fatalf("payloads degraded: %+v", st)
	}
}
