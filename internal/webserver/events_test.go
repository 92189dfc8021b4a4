package webserver

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"broadway/internal/push"
)

// eventSink collects stream callbacks from a subscriber.
type eventSink struct {
	mu      sync.Mutex
	events  []push.Event
	hellos  []push.Event
	resumed []bool
}

func (s *eventSink) onEvent(ev push.Event) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

func (s *eventSink) onConnect(hello push.Event, resumed bool) {
	s.mu.Lock()
	s.hellos = append(s.hellos, hello)
	s.resumed = append(s.resumed, resumed)
	s.mu.Unlock()
}

func (s *eventSink) snapshot() ([]push.Event, []push.Event, []bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]push.Event(nil), s.events...),
		append([]push.Event(nil), s.hellos...),
		append([]bool(nil), s.resumed...)
}

func waitUntil(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

func startSubscriber(t *testing.T, url string, sink *eventSink) *push.Subscriber {
	t.Helper()
	sub, err := push.NewSubscriber(push.SubscriberConfig{
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

func TestEventsEndpointStreamsUpdates(t *testing.T) {
	o := NewOrigin(WithPushEvents(""))
	o.Set("/a", []byte("v1"), "")
	ts := httptest.NewServer(o)
	t.Cleanup(ts.Close) // registered before the subscriber's cancel: LIFO stops the client first

	sink := &eventSink{}
	startSubscriber(t, ts.URL+"/events", sink)

	if !waitUntil(t, 2*time.Second, func() bool { return o.Stats().Hub.Subscribers == 1 }) {
		t.Fatal("subscriber never registered")
	}
	o.Set("/a", []byte("v2"), "")
	o.Set("/b", []byte("b1"), "")

	if !waitUntil(t, 2*time.Second, func() bool {
		evs, _, _ := sink.snapshot()
		return len(evs) == 2
	}) {
		evs, _, _ := sink.snapshot()
		t.Fatalf("events = %+v", evs)
	}
	evs, hellos, resumed := sink.snapshot()
	// The pre-subscription Set("/a") assigned seq 1; the live events are
	// 2 and 3, in publish order.
	if evs[0].Key != "/a" || evs[0].Seq != 2 {
		t.Errorf("first event = %+v", evs[0])
	}
	if evs[1].Key != "/b" || evs[1].Seq != 3 {
		t.Errorf("second event = %+v", evs[1])
	}
	if evs[0].ModTime.IsZero() {
		t.Error("update event carries no modification time")
	}
	if len(hellos) != 1 || hellos[0].Reset || resumed[0] {
		t.Errorf("hellos = %+v resumed = %v", hellos, resumed)
	}
	if seq := o.Stats().Hub.Seq; seq != 3 {
		t.Errorf("Hub.Seq = %d", seq)
	}
}

func TestEventsEndpointReplaysMissedEvents(t *testing.T) {
	o := NewOrigin(WithPushEvents(""))
	ts := httptest.NewServer(o)
	t.Cleanup(ts.Close) // registered before the subscriber's cancel: LIFO stops the client first

	sink := &eventSink{}
	startSubscriber(t, ts.URL+"/events", sink)
	if !waitUntil(t, 2*time.Second, func() bool { return o.Stats().Hub.Subscribers == 1 }) {
		t.Fatal("never connected")
	}
	o.Set("/a", []byte("v1"), "")
	if !waitUntil(t, 2*time.Second, func() bool {
		evs, _, _ := sink.snapshot()
		return len(evs) == 1
	}) {
		t.Fatal("first event never arrived")
	}

	// Cut the stream, publish while disconnected, let it reconnect: the
	// replay buffer must deliver the missed events in order.
	o.KillPushStreams()
	o.Set("/a", []byte("v2"), "")
	o.Set("/a", []byte("v3"), "")
	if !waitUntil(t, 2*time.Second, func() bool {
		evs, _, _ := sink.snapshot()
		return len(evs) == 3
	}) {
		evs, _, _ := sink.snapshot()
		t.Fatalf("replay failed: events = %+v", evs)
	}
	evs, hellos, resumed := sink.snapshot()
	if evs[1].Seq != 2 || evs[2].Seq != 3 {
		t.Errorf("replayed seqs = %d, %d", evs[1].Seq, evs[2].Seq)
	}
	if len(hellos) != 2 || !resumed[1] || hellos[1].Reset {
		t.Errorf("reconnect hello = %+v resumed = %v", hellos, resumed)
	}
}

func TestEventsEndpointResetWhenGapOutrunsBuffer(t *testing.T) {
	o := NewOrigin(WithPushEvents(""))
	ts := httptest.NewServer(o)
	defer ts.Close()

	// Seed far beyond the replay buffer before the subscriber asks to
	// resume from seq 1.
	for i := 0; i < push.DefaultReplayLen+8; i++ {
		o.Set("/a", []byte{byte(i)}, "")
	}
	resp, err := http.Get(ts.URL + "/events?since=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	frame := string(buf[:n])
	// First frame is the hello; it must carry the reset flag.
	ev := decodeFirstFrame(t, frame)
	if ev.Kind != push.KindHello || !ev.Reset {
		t.Errorf("hello = %+v (raw %q)", ev, frame)
	}
}

func TestEventsEndpointUnavailable(t *testing.T) {
	o := NewOrigin(WithPushEvents(""))
	ts := httptest.NewServer(o)
	t.Cleanup(ts.Close) // registered before the subscriber's cancel: LIFO stops the client first

	o.SetPushAvailable(false)
	resp, err := http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", resp.StatusCode)
	}

	o.SetPushAvailable(true)
	sink := &eventSink{}
	startSubscriber(t, ts.URL+"/events", sink)
	if !waitUntil(t, 2*time.Second, func() bool { return o.Stats().Hub.Subscribers == 1 }) {
		t.Fatal("endpoint did not recover")
	}
}

func TestEventsEndpointBadSince(t *testing.T) {
	o := NewOrigin(WithPushEvents(""))
	ts := httptest.NewServer(o)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/events?since=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

func TestOversizedKeyNeverEntersStream(t *testing.T) {
	o := NewOrigin(WithPushEvents(""))
	ts := httptest.NewServer(o)
	t.Cleanup(ts.Close) // registered before the subscriber's cancel: LIFO stops the client first

	sink := &eventSink{}
	startSubscriber(t, ts.URL+"/events", sink)
	if !waitUntil(t, 2*time.Second, func() bool { return o.Stats().Hub.Subscribers == 1 }) {
		t.Fatal("never connected")
	}

	// A key whose escaped frame exceeds the wire limit: the update must
	// be dropped at the hub — one poisonous buffered frame would kill
	// every reconnecting stream at the same replay position forever.
	huge := "/" + strings.Repeat("k", push.MaxFrameLen+16)
	o.Set(huge, []byte("v1"), "")
	o.Set("/ok", []byte("v1"), "")
	if !waitUntil(t, 2*time.Second, func() bool {
		evs, _, _ := sink.snapshot()
		return len(evs) == 1
	}) {
		t.Fatal("the well-formed event never arrived")
	}
	evs, _, _ := sink.snapshot()
	if evs[0].Key != "/ok" || evs[0].Seq != 1 {
		t.Errorf("event = %+v; the oversized update leaked into the stream or consumed a seq", evs[0])
	}
	if n := o.Stats().Hub.Oversized; n != 1 {
		t.Errorf("Hub.Oversized = %d, want 1", n)
	}
	// The stream survives: the subscriber was never poisoned.
	if o.Stats().Hub.Subscribers != 1 {
		t.Error("subscriber lost after the oversized Set")
	}
}

func TestEventsEndpointRejectsNonGET(t *testing.T) {
	o := NewOrigin(WithPushEvents(""))
	ts := httptest.NewServer(o)
	defer ts.Close()
	for _, method := range []string{http.MethodPost, http.MethodHead, http.MethodDelete} {
		req, _ := http.NewRequest(method, ts.URL+"/events", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s /events = %d, want 405", method, resp.StatusCode)
		}
	}
	if n := o.Stats().Hub.Subscribers; n != 0 {
		t.Errorf("%d subscriptions leaked by non-GET requests", n)
	}
}

func TestSlowSubscriberIsTerminatedNotBlocking(t *testing.T) {
	o := NewOrigin(WithPushEvents(""))
	ts := httptest.NewServer(o)
	defer ts.Close()

	// A raw client that connects and never reads.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/events", nil)
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if !waitUntil(t, 2*time.Second, func() bool { return o.Stats().Hub.Subscribers == 1 }) {
		t.Fatal("never connected")
	}

	// Publishing far beyond the per-subscriber allowance must not block
	// Set, and must eventually drop the stalled stream. How far is not a
	// fixed count: the hub sees a lag only once the loopback socket
	// buffers are full and the stream's writer blocks, and a writer that
	// keeps pace with a short burst never lags at all. So publish until
	// the drop, bounded.
	const maxSets = 1 << 17
	done := make(chan int, 1)
	go func() {
		n := 0
		for ; n < maxSets && o.Stats().Hub.Subscribers > 0; n++ {
			o.Set("/a", []byte{byte(n)}, "")
		}
		done <- n
	}()
	select {
	case n := <-done:
		if o.Stats().Hub.Subscribers != 0 {
			t.Errorf("stalled subscriber never dropped in %d Sets", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Set blocked on a stalled subscriber")
	}
}

// TestPushValuesCarryBodyAndDigest: with WithPushValues every Set
// publishes the new body, content type, and digest; subscribers that
// negotiated payload delivery receive them while plain subscribers get
// the same event degraded to an invalidation frame.
func TestPushValuesCarryBodyAndDigest(t *testing.T) {
	o := NewOrigin(WithPushValues(0))
	ts := httptest.NewServer(o)
	t.Cleanup(ts.Close) // registered before the subscriber's cancel: LIFO stops the client first

	valueSink, plainSink := &eventSink{}, &eventSink{}
	valueSub, err := push.NewSubscriber(push.SubscriberConfig{
		URL:        ts.URL + "/events",
		OnEvent:    valueSink.onEvent,
		OnConnect:  valueSink.onConnect,
		BackoffMin: 5 * time.Millisecond,
		PayloadCap: push.DefaultPayloadCap,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go valueSub.Run(ctx)
	startSubscriber(t, ts.URL+"/events", plainSink)
	if !waitUntil(t, 2*time.Second, func() bool { return o.Stats().Hub.Subscribers == 2 }) {
		t.Fatal("subscribers never registered")
	}

	o.Set("/quote", []byte("165.38\n"), "text/plain; charset=utf-8")
	for name, sink := range map[string]*eventSink{"value": valueSink, "plain": plainSink} {
		if !waitUntil(t, 2*time.Second, func() bool {
			evs, _, _ := sink.snapshot()
			return len(evs) == 1
		}) {
			t.Fatalf("%s subscriber never saw the event", name)
		}
	}
	evs, hellos, _ := valueSink.snapshot()
	ev := evs[0]
	if !ev.HasBody || string(ev.Body) != "165.38\n" {
		t.Fatalf("value event carries no body: %+v", ev)
	}
	if ev.Digest != push.DigestOf([]byte("165.38\n")) {
		t.Errorf("digest = %q", ev.Digest)
	}
	if ev.ContentType != "text/plain; charset=utf-8" {
		t.Errorf("content type = %q", ev.ContentType)
	}
	if ev.ModTime.IsZero() {
		t.Error("payload event lost its modification instant")
	}
	if hellos[0].PayloadCap != push.DefaultPayloadCap {
		t.Errorf("negotiated cap = %d", hellos[0].PayloadCap)
	}
	plainEvs, _, _ := plainSink.snapshot()
	if plainEvs[0].HasBody || plainEvs[0].Key != "/quote" {
		t.Errorf("plain subscriber got %+v, want an invalidation-only frame", plainEvs[0])
	}

	// InjectPushEvent is the corruption chaos hook: whatever it carries
	// goes out verbatim (the consumer's digest check is the defense).
	o.InjectPushEvent(push.Event{Kind: push.KindUpdate, Key: "/quote",
		Body: []byte("garbage"), HasBody: true, Digest: "0000000000000000"})
	if !waitUntil(t, 2*time.Second, func() bool {
		evs, _, _ := valueSink.snapshot()
		return len(evs) == 2
	}) {
		t.Fatal("injected event never arrived")
	}
	evs, _, _ = valueSink.snapshot()
	if string(evs[1].Body) != "garbage" || evs[1].Digest != "0000000000000000" {
		t.Errorf("injected event = %+v", evs[1])
	}
}

// decodeFirstFrame extracts and decodes the first data: line of an SSE
// payload.
func decodeFirstFrame(t *testing.T, raw string) push.Event {
	t.Helper()
	for _, line := range strings.Split(raw, "\n") {
		if payload, ok := strings.CutPrefix(line, "data:"); ok {
			ev, err := push.Decode(strings.TrimSpace(payload))
			if err != nil {
				t.Fatalf("decode %q: %v", payload, err)
			}
			return ev
		}
	}
	t.Fatalf("no data frame in %q", raw)
	return push.Event{}
}
