package push

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// These are the protocol-hole regression tests of ISSUE 4, driven
// through the scriptable sseServer from push_test.go: the subscriber
// must handle a mid-stream hello/Reset (a relaying upstream announcing
// a hole) and survive oversized stream lines without a reconnect
// livelock.

func TestSubscriberMidStreamResetFastForwardsAndReconciles(t *testing.T) {
	srv := &sseServer{}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var events atomic.Int64
	var connects atomic.Int64
	var lastResumed atomic.Bool
	var lastReset atomic.Bool
	sub, err := NewSubscriber(SubscriberConfig{
		URL:     ts.URL,
		OnEvent: func(Event) { events.Add(1) },
		OnConnect: func(hello Event, resumed bool) {
			connects.Add(1)
			lastResumed.Store(resumed)
			lastReset.Store(hello.Reset)
		},
		BackoffMin: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go sub.Run(ctx)

	if !waitCond(t, 2*time.Second, func() bool { return srv.conns.Load() >= 1 }) {
		t.Fatal("never connected")
	}
	// Re-send until processed: the stream registers slightly after the
	// connection counter, and a redundant hello is just a heartbeat.
	if !waitCond(t, 2*time.Second, func() bool {
		srv.send(Event{Kind: KindHello, Seq: 0}.Encode())
		return connects.Load() == 1
	}) {
		t.Fatal("initial hello not processed")
	}
	srv.send(Event{Kind: KindUpdate, Seq: 1, Key: "/a"}.Encode())
	if !waitCond(t, 2*time.Second, func() bool { return events.Load() == 1 }) {
		t.Fatal("update not processed")
	}

	// The upstream resyncs mid-stream: a hello with Reset at its new
	// head. The pre-fix subscriber swallowed this as a "redundant
	// hello"; it must fast-forward and re-run the connect
	// reconciliation, on the SAME connection.
	srv.send(Event{Kind: KindHello, Seq: 41, Reset: true}.Encode())
	if !waitCond(t, 2*time.Second, func() bool { return connects.Load() == 2 }) {
		t.Fatalf("mid-stream Reset swallowed (connects=%d resets=%d)", connects.Load(), sub.Stats().Resets)
	}
	if !lastResumed.Load() || !lastReset.Load() {
		t.Errorf("reconciliation args: resumed=%v reset=%v, want true/true",
			lastResumed.Load(), lastReset.Load())
	}
	if got := sub.LastSeq(); got != 41 {
		t.Errorf("LastSeq = %d after mid-stream Reset, want 41", got)
	}
	if r := sub.Stats().Resets; r != 1 {
		t.Errorf("Resets = %d, want 1", r)
	}
	if srv.conns.Load() != 1 {
		t.Errorf("subscriber reconnected (%d conns); the Reset must ride the live stream", srv.conns.Load())
	}

	// A mid-stream hello WITHOUT Reset stays a heartbeat: no extra
	// reconciliation, no resume-point move.
	srv.send(Event{Kind: KindHello, Seq: 99}.Encode())
	srv.send(Event{Kind: KindUpdate, Seq: 42, Key: "/b"}.Encode())
	if !waitCond(t, 2*time.Second, func() bool { return events.Load() == 2 }) {
		t.Fatal("stream dead after non-Reset hello")
	}
	if connects.Load() != 2 {
		t.Errorf("non-Reset mid-stream hello ran OnConnect (connects=%d)", connects.Load())
	}
	if got := sub.LastSeq(); got != 42 {
		t.Errorf("LastSeq = %d, want 42", got)
	}
}

// TestSubscriberSkipsOversizedLinesWithoutReconnecting: before the fix
// an SSE line longer than the scanner buffer killed the stream with
// bufio.ErrTooLong, and since the reconnect resumed from the same
// position against an upstream replaying the same line, the subscriber
// livelocked one frame forever. The fixed reader skips just the line.
func TestSubscriberSkipsOversizedLinesWithoutReconnecting(t *testing.T) {
	srv := &sseServer{}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var events atomic.Int64
	sub, err := NewSubscriber(SubscriberConfig{
		URL:        ts.URL,
		OnEvent:    func(Event) { events.Add(1) },
		BackoffMin: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go sub.Run(ctx)

	// Re-send until the stream is demonstrably live (a redundant hello
	// is just a heartbeat).
	if !waitCond(t, 2*time.Second, func() bool {
		srv.send(Event{Kind: KindHello, Seq: 0}.Encode())
		return sub.Stats().Connects >= 1
	}) {
		t.Fatal("hello never processed")
	}

	// A line far beyond MaxFrameLen+64, as a hostile or non-broadway
	// upstream could emit, followed by a well-formed update on the same
	// stream.
	srv.send(strings.Repeat("x", MaxFrameLen*2))
	srv.send(Event{Kind: KindUpdate, Seq: 1, Key: "/a"}.Encode())

	if !waitCond(t, 2*time.Second, func() bool { return events.Load() == 1 }) {
		t.Fatalf("update after oversized line never arrived (skipped=%d disconnects=%d)",
			sub.Stats().SkippedFrames, sub.Stats().Disconnects)
	}
	if sub.Stats().SkippedFrames == 0 {
		t.Error("oversized line was not counted as skipped")
	}
	if srv.conns.Load() != 1 || sub.Stats().Disconnects != 0 {
		t.Errorf("stream died on the oversized line (conns=%d disconnects=%d) — the reconnect livelock",
			srv.conns.Load(), sub.Stats().Disconnects)
	}
}

// TestSubscriberSkipsMalformedLinesWithoutReconnecting: a data line
// that fails to decode mid-stream (hostile bytes, an envelope over the
// limit smuggled under a payload-widened read limit, fields that
// escaping would expand past the bound) must be skipped in place, not
// kill the connection — a reconnect would resume from the same
// position, replay the same line, and livelock, exactly like the
// PR 4 oversized-line case.
func TestSubscriberSkipsMalformedLinesWithoutReconnecting(t *testing.T) {
	srv := &sseServer{}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var events, losses atomic.Int64
	sub, err := NewSubscriber(SubscriberConfig{
		URL:         ts.URL,
		OnEvent:     func(Event) { events.Add(1) },
		OnFrameLoss: func() { losses.Add(1) },
		BackoffMin:  5 * time.Millisecond,
		PayloadCap:  DefaultPayloadCap, // widened read limit: the hole's precondition
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go sub.Run(ctx)

	if !waitCond(t, 2*time.Second, func() bool {
		srv.send(Event{Kind: KindHello, Seq: 0}.Encode())
		return sub.Stats().Connects >= 1
	}) {
		t.Fatal("hello never processed")
	}

	// Three malformed shapes under the payload-widened line limit but
	// undecodable, followed by a well-formed update on the SAME stream.
	srv.send("not a frame at all")
	srv.send("2 1 0 - /" + strings.Repeat("k", MaxFrameLen)) // envelope over the bound
	srv.send("2 1 0 p /k !!!hostile-base64!!!")
	srv.send(Event{Kind: KindUpdate, Seq: 1, Key: "/a"}.Encode())

	if !waitCond(t, 2*time.Second, func() bool { return events.Load() == 1 }) {
		t.Fatalf("update after malformed lines never arrived (skipped=%d disconnects=%d)",
			sub.Stats().SkippedFrames, sub.Stats().Disconnects)
	}
	if n := sub.Stats().SkippedFrames; n != 3 {
		t.Errorf("SkippedFrames = %d, want 3", n)
	}
	// Every dropped line ran the loss reconciliation: the consumer's
	// sweep is what keeps an unknown loss from hiding behind stretched
	// TTRs ("the Δt guarantee never silently widens").
	if losses.Load() != 3 {
		t.Errorf("OnFrameLoss ran %d times, want 3", losses.Load())
	}
	if srv.conns.Load() != 1 || sub.Stats().Disconnects != 0 {
		t.Errorf("stream died on a malformed line (conns=%d disconnects=%d) — the reconnect livelock",
			srv.conns.Load(), sub.Stats().Disconnects)
	}

	// A hello-less or undecodable FIRST frame still forces a reconnect:
	// that server is not speaking the protocol at all.
	srv.kill()
	if !waitCond(t, 2*time.Second, func() bool { return srv.conns.Load() >= 2 }) {
		t.Fatal("never reconnected")
	}
	srv.send("garbage before hello")
	if !waitCond(t, 2*time.Second, func() bool { return srv.conns.Load() >= 3 }) {
		t.Fatal("undecodable first frame did not force a reconnect")
	}
}

// TestFreshSubscriberAdoptsHelloPosition: a fresh stream is handed the
// hub's head by its hello, so that head is the subscriber's resume point
// from the moment it connects. A stream cut before its first frame then
// resumes from there — the hub can replay the gap or announce it as a
// hole — instead of reconnecting fresh and losing both.
func TestFreshSubscriberAdoptsHelloPosition(t *testing.T) {
	h := NewHub(HubConfig{})
	for _, k := range []string{"/a", "/b", "/c"} {
		h.Publish(Event{Kind: KindUpdate, Key: k})
	}
	ts := httptest.NewServer(h)
	defer ts.Close()

	var sub *Subscriber
	atConnect := make(chan uint64, 1)
	sub, err := NewSubscriber(SubscriberConfig{
		URL:     ts.URL,
		OnEvent: func(Event) {},
		OnConnect: func(Event, bool) {
			select {
			case atConnect <- sub.LastSeq():
			default:
			}
		},
		BackoffMin: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go sub.Run(ctx)

	select {
	case got := <-atConnect:
		if got != 3 {
			t.Errorf("LastSeq = %d when OnConnect fired, want the hub head 3", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("never connected")
	}
}

func TestReadFrameLine(t *testing.T) {
	input := "short\r\n" +
		strings.Repeat("y", 300) + "\n" +
		"data: after\n"
	br := bufio.NewReaderSize(strings.NewReader(input), 16) // tiny buffer: exercise ErrBufferFull stitching

	line, skipped, err := readFrameLine(br, 100)
	if err != nil || skipped || line != "short" {
		t.Fatalf("first line = %q skipped=%v err=%v", line, skipped, err)
	}
	line, skipped, err = readFrameLine(br, 100)
	if err != nil || !skipped || line != "" {
		t.Fatalf("oversized line: %q skipped=%v err=%v", line, skipped, err)
	}
	line, skipped, err = readFrameLine(br, 100)
	if err != nil || skipped || line != "data: after" {
		t.Fatalf("line after skip = %q skipped=%v err=%v", line, skipped, err)
	}
	if _, _, err = readFrameLine(br, 100); err == nil {
		t.Fatal("EOF not reported")
	}
}

// blockingTransport answers every request with a stream that delivers a
// hello frame and then blocks in Read until the body is closed. It never
// looks at the request's context, as a RoundTripper that cannot cancel a
// read in progress does: only closing the body ends such a stream.
type blockingTransport struct{ attempts atomic.Int64 }

func (tr *blockingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr.attempts.Add(1)
	body := &blockingBody{
		pending: []byte("data: " + Event{Kind: KindHello}.Encode() + "\n\n"),
		closed:  make(chan struct{}),
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Status:     "200 OK",
		Header:     http.Header{"Content-Type": {"text/event-stream"}},
		Body:       body,
		Request:    req,
	}, nil
}

type blockingBody struct {
	mu      sync.Mutex
	pending []byte
	once    sync.Once
	closed  chan struct{}
}

func (b *blockingBody) Read(p []byte) (int, error) {
	b.mu.Lock()
	n := copy(p, b.pending)
	b.pending = b.pending[n:]
	b.mu.Unlock()
	if n > 0 {
		return n, nil
	}
	<-b.closed
	return 0, errors.New("read on closed body")
}

func (b *blockingBody) Close() error {
	b.once.Do(func() { close(b.closed) })
	return nil
}

// TestSubscriberEndsReadsItsTransportCannotCancel: the subscriber reads
// on the goroutine that runs it, so a Read blocked on a stream must be
// ended by closing the body — by Bounce (the attempt's context) and by
// the heartbeat watchdog — whatever the RoundTripper does with the
// request's context.
func TestSubscriberEndsReadsItsTransportCannotCancel(t *testing.T) {
	run := func(t *testing.T, heartbeat time.Duration) (*Subscriber, *blockingTransport, chan error) {
		tr := &blockingTransport{}
		ended := make(chan error, 1)
		sub, err := NewSubscriber(SubscriberConfig{
			URL:     "http://upstream.invalid/events",
			Client:  &http.Client{Transport: tr},
			OnEvent: func(Event) {},
			OnDisconnect: func(err error) {
				select {
				case ended <- err:
				default: // the test reads the first end; Run must never block here
				}
			},
			BackoffMin:       time.Millisecond,
			BackoffMax:       5 * time.Millisecond,
			HeartbeatTimeout: heartbeat,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { sub.Run(ctx); close(done) }()
		t.Cleanup(func() {
			cancel()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Error("Run did not return after its context was cancelled")
			}
		})
		return sub, tr, ended
	}
	nextEnd := func(t *testing.T, ended chan error) error {
		t.Helper()
		select {
		case err := <-ended:
			return err
		case <-time.After(5 * time.Second):
			t.Fatal("the stream never ended")
			return nil
		}
	}

	t.Run("bounce", func(t *testing.T) {
		sub, tr, ended := run(t, -1)
		if !waitCond(t, 5*time.Second, func() bool { return sub.Stats().Connects == 1 }) {
			t.Fatal("never connected")
		}
		sub.Bounce()
		if err := nextEnd(t, ended); !errors.Is(err, context.Canceled) {
			t.Errorf("bounced stream ended with %v, want context.Canceled", err)
		}
		if !waitCond(t, 5*time.Second, func() bool { return sub.Stats().Connects == 2 }) {
			t.Fatalf("no reconnect after Bounce (attempts=%d)", tr.attempts.Load())
		}
		if st := sub.Stats(); st.Bounces != 1 || st.Disconnects != 1 {
			t.Errorf("Bounces=%d Disconnects=%d, want 1 and 1", st.Bounces, st.Disconnects)
		}
	})

	t.Run("silent", func(t *testing.T) {
		_, _, ended := run(t, 20*time.Millisecond)
		want := fmt.Sprintf("push: no frame within %v", 20*time.Millisecond)
		if err := nextEnd(t, ended); err == nil || err.Error() != want {
			t.Errorf("silent stream ended with %v, want %q", err, want)
		}
	})
}
