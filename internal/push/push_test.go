package push

import (
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	events := []Event{
		{Kind: KindHello, Seq: 42, Reset: true},
		{Kind: KindHello, Seq: 0},
		{Kind: KindUpdate, Seq: 7, Key: "/news/story.html", Group: "frontpage",
			ModTime: time.Unix(1700000000, 0)},
		{Kind: KindUpdate, Seq: 8, Key: "/stock?sym=A B&x=ü", Group: "a b"},
		{Kind: KindUpdate, Seq: 1 << 60, Key: "/k"},
		// A literal "-" collides with the empty-field sentinel and must
		// survive the trip via forced escaping.
		{Kind: KindUpdate, Seq: 9, Key: "-", Group: "-"},
		{Kind: KindHeartbeat, Seq: 99},
	}
	for _, want := range events {
		wire := want.Encode()
		if strings.ContainsAny(wire, "\r\n") {
			t.Errorf("Encode(%+v) contains a newline: %q", want, wire)
		}
		got, err := Decode(wire)
		if err != nil {
			t.Errorf("Decode(%q): %v", wire, err)
			continue
		}
		if got.Kind != want.Kind || got.Seq != want.Seq || got.Key != want.Key ||
			got.Group != want.Group || got.Reset != want.Reset ||
			!got.ModTime.Equal(want.ModTime) {
			t.Errorf("round trip: got %+v want %+v (wire %q)", got, want, wire)
		}
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"v1",
		"v1 2 3",
		"v2 2 1 0 - /k -",                    // v2 with the v1 field count
		"v3 2 1 0 - /k - - - 0 -",            // unsupported version
		"w1 2 1 0 - /k -",                    // bad version tag
		"v1 9 1 0 - /k -",                    // unknown kind
		"v1 2 x 0 - /k -",                    // bad seq
		"v1 2 1 y - /k -",                    // bad modtime
		"v1 2 1 0 z /k -",                    // bad flags
		"v1 2 1 0 p /k -",                    // payload flag on a v1 frame
		"v1 2 1 0 - %zz -",                   // bad key escape
		"v1 2 1 0 - /k %zz",                  // bad group escape
		"v1 2 1 0 - - -",                     // update without key
		"v1 2 1 0 - /k - trailing",           // too many fields
		"v1 -1 1 0 - /k -",                   // negative kind
		"v1 2 18446744073709551616 0 - /k -", // seq overflow
		strings.Repeat("x", MaxFrameLen+1),
		"v2 2 1 0 - /k - - - 0 !!!not-base64!!!", // hostile base64
		"v2 2 1 0 p /k - - - 0 " + "====",        // hostile base64 padding
		"v2 2 1 0 - /k - - zz 0 -",               // non-hex digest
		"v2 2 1 0 - /k - - " + strings.Repeat("a", 65) + " 0 -",                    // digest too long
		"v2 2 1 0 - /k - - - x -",                                                  // bad payload cap
		"v2 2 1 0 - /k - - - 0 " + b64(1),                                          // payload without the p flag
		"v2 2 1 0 p /k - - - 0 " + base64.StdEncoding.EncodeToString(nil) + "====", // empty payload spelled out
		"v1 2 1 0 - /" + strings.Repeat("k", MaxFrameLen) + " -",                   // v1 over the frame limit
		"v2 2 1 0 p /" + strings.Repeat("k", MaxFrameLen) + " - - - 0 " + b64(8),   // v2 envelope over the limit
		// Raw newlines ride one byte each on a hostile wire but re-encode
		// to three (%0A): the canonical envelope is over the limit even
		// though the frame as sent is not (fuzz-found; an accepted event
		// must always be re-encodable within bounds).
		"v1 2 1 0 - /k " + strings.Repeat("\n", MaxFrameLen/2),
	}
	for _, wire := range bad {
		if _, err := Decode(wire); err == nil {
			t.Errorf("Decode(%q) accepted malformed frame", truncateForLog(wire))
		}
	}
}

func b64(n int) string {
	return base64.StdEncoding.EncodeToString(make([]byte, n))
}

func truncateForLog(s string) string {
	if len(s) > 120 {
		return s[:120] + "..."
	}
	return s
}

// TestEncodeDecodeRoundTripV2 pins the payload extension: bodies,
// digests, content types, and payload caps survive the wire, the
// envelope stays v1 when none of them is present, and cap-boundary
// payload sizes round-trip exactly.
func TestEncodeDecodeRoundTripV2(t *testing.T) {
	big := make([]byte, MaxPayloadCap)
	for i := range big {
		big[i] = byte(i)
	}
	events := []Event{
		{Kind: KindUpdate, Seq: 1, Key: "/quote/acme", Body: []byte("165.38\n"), HasBody: true,
			ContentType: "text/plain; charset=utf-8", Digest: DigestOf([]byte("165.38\n")),
			ModTime: time.Unix(1700000000, 0)},
		{Kind: KindUpdate, Seq: 2, Key: "/img", Body: []byte{0, 1, 2, 0xff}, HasBody: true,
			Digest: DigestOf([]byte{0, 1, 2, 0xff})},
		// Empty body: present, zero length — distinct from no payload.
		{Kind: KindUpdate, Seq: 3, Key: "/empty", Body: []byte{}, HasBody: true, Digest: DigestOf(nil)},
		// Digest without payload: what a stream-side strip leaves behind
		// must still parse (a consumer treats it as invalidation-only).
		{Kind: KindUpdate, Seq: 4, Key: "/stripped", Digest: "deadbeef00112233"},
		// Hello with a negotiated cap.
		{Kind: KindHello, Seq: 9, PayloadCap: 4096},
		{Kind: KindHello, Seq: 9, Reset: true, PayloadCap: DefaultPayloadCap},
		// Reset flag plus payload (not emitted today, but representable).
		{Kind: KindUpdate, Seq: 5, Key: "/rp", Reset: true, Body: []byte("x"), HasBody: true},
		// Cap-boundary body.
		{Kind: KindUpdate, Seq: 6, Key: "/big", Body: big, HasBody: true, Digest: DigestOf(big)},
	}
	for _, want := range events {
		wire := want.Encode()
		if !strings.HasPrefix(wire, "v2 ") {
			t.Errorf("Encode(%+v) did not select v2: %q", want, truncateForLog(wire))
		}
		got, err := Decode(wire)
		if err != nil {
			t.Errorf("Decode(%q): %v", truncateForLog(wire), err)
			continue
		}
		if got.Kind != want.Kind || got.Seq != want.Seq || got.Key != want.Key ||
			got.Group != want.Group || got.Reset != want.Reset ||
			!got.ModTime.Equal(want.ModTime) || got.HasBody != want.HasBody ||
			!bytes.Equal(got.Body, want.Body) || got.ContentType != want.ContentType ||
			got.Digest != want.Digest || got.PayloadCap != want.PayloadCap {
			t.Errorf("v2 round trip diverged for %+v", want)
		}
	}

	// Invalidation-only events must keep the v1 envelope byte for byte:
	// a pre-v2 consumer interoperates with a value-capable hub.
	plain := Event{Kind: KindUpdate, Seq: 7, Key: "/k", Group: "g", ModTime: time.Unix(1700000000, 0)}
	if wire := plain.Encode(); !strings.HasPrefix(wire, "v1 ") {
		t.Errorf("invalidation-only event encoded as %q, want a v1 frame", wire)
	}
	stripped := events[0].StripPayload()
	if wire := stripped.Encode(); !strings.HasPrefix(wire, "v1 ") {
		t.Errorf("stripped event encoded as %q, want a v1 frame", wire)
	}
}

// TestOversizedIsEnvelopeOnly: a fat payload must not trip the envelope
// bound — payloads are governed by the negotiated cap, and conflating
// the two would drop every value-carrying event over 4KB.
func TestOversizedIsEnvelopeOnly(t *testing.T) {
	ev := Event{Kind: KindUpdate, Key: "/k", Body: make([]byte, 64<<10), HasBody: true}
	if ev.Oversized() {
		t.Error("payload size tripped the envelope bound")
	}
	ev.Key = "/" + strings.Repeat("k", MaxFrameLen)
	if !ev.Oversized() {
		t.Error("oversized key not detected")
	}
}

// TestOversizedCoversV2Envelope: the envelope bound must hold for every
// frame an event can emit — the stripped v1 form AND the v2 form with
// its ctype/digest/cap fields. A near-limit key whose v1 frame fits but
// whose v2 envelope does not would otherwise pass the hub's publish
// check and then be rejected by every payload-negotiated subscriber: a
// poisonous replay-ring frame and a reconnect livelock.
func TestOversizedCoversV2Envelope(t *testing.T) {
	key := "/" + strings.Repeat("k", MaxFrameLen-20)
	plain := Event{Kind: KindUpdate, Key: key}
	if plain.Oversized() {
		t.Fatal("test premise broken: the bare invalidation form should fit")
	}
	body := []byte("165.38\n")
	rich := Event{Kind: KindUpdate, Key: key, Body: body, HasBody: true,
		ContentType: "text/plain; charset=utf-8", Digest: DigestOf(body)}
	if !rich.Oversized() {
		t.Fatal("v2 envelope over the limit not detected")
	}
	// The contract that matters downstream: any event Oversized()
	// approves emits only decodable frames, full or stripped.
	small := Event{Kind: KindUpdate, Key: "/k", Body: body, HasBody: true,
		ContentType: "text/plain", Digest: DigestOf(body)}
	if small.Oversized() {
		t.Fatal("small event misreported oversized")
	}
	for _, wire := range []string{small.Encode(), small.StripPayload().Encode()} {
		if _, err := Decode(wire); err != nil {
			t.Errorf("frame of a non-oversized event failed to decode: %v", err)
		}
	}
}

func TestDigestOf(t *testing.T) {
	d := DigestOf([]byte("165.38\n"))
	if len(d) != 16 {
		t.Errorf("digest %q length %d, want 16 hex chars", d, len(d))
	}
	if d == DigestOf([]byte("165.39\n")) {
		t.Error("distinct bodies share a digest")
	}
	if d != DigestOf([]byte("165.38\n")) {
		t.Error("digest not deterministic")
	}
}

// sseServer is a minimal scriptable event-stream endpoint.
type sseServer struct {
	mu      sync.Mutex
	streams []chan string // lines pushed to connected clients
	conns   atomic.Int64
	lastURL atomic.Value // string: most recent request URL
}

func (s *sseServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.lastURL.Store(r.URL.String())
	s.conns.Add(1)
	fl := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.WriteHeader(http.StatusOK)
	ch := make(chan string, 64)
	s.mu.Lock()
	s.streams = append(s.streams, ch)
	s.mu.Unlock()
	for {
		select {
		case <-r.Context().Done():
			return
		case line, ok := <-ch:
			if !ok {
				return
			}
			fmt.Fprintf(w, "data: %s\n\n", line)
			fl.Flush()
		}
	}
}

// send pushes a raw frame to every connected stream.
func (s *sseServer) send(line string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ch := range s.streams {
		select {
		case ch <- line:
		default:
		}
	}
}

// kill closes every connected stream.
func (s *sseServer) kill() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ch := range s.streams {
		close(ch)
	}
	s.streams = nil
}

func waitCond(t *testing.T, d time.Duration, cond func() bool) bool {
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

func TestSubscriberReceivesEventsAndResumes(t *testing.T) {
	srv := &sseServer{}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var mu sync.Mutex
	var got []Event
	var connects, disconnects atomic.Int64
	sub, err := NewSubscriber(SubscriberConfig{
		URL: ts.URL + "/events",
		OnEvent: func(ev Event) {
			mu.Lock()
			got = append(got, ev)
			mu.Unlock()
		},
		OnConnect:    func(Event, bool) { connects.Add(1) },
		OnDisconnect: func(error) { disconnects.Add(1) },
		BackoffMin:   5 * time.Millisecond,
		BackoffMax:   20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go sub.Run(ctx)

	if !waitCond(t, 2*time.Second, func() bool { return srv.conns.Load() >= 1 }) {
		t.Fatal("subscriber never connected")
	}
	srv.send(Event{Kind: KindHello, Seq: 0}.Encode())
	if !waitCond(t, 2*time.Second, func() bool { return connects.Load() == 1 }) {
		t.Fatal("OnConnect never fired")
	}
	srv.send(Event{Kind: KindUpdate, Seq: 1, Key: "/a"}.Encode())
	srv.send(Event{Kind: KindUpdate, Seq: 2, Key: "/b"}.Encode())
	if !waitCond(t, 2*time.Second, func() bool { return sub.LastSeq() == 2 }) {
		t.Fatalf("LastSeq = %d, want 2", sub.LastSeq())
	}

	// Kill the stream: the subscriber must report the disconnect and
	// reconnect with ?since=2.
	srv.kill()
	if !waitCond(t, 2*time.Second, func() bool { return disconnects.Load() == 1 }) {
		t.Fatal("OnDisconnect never fired")
	}
	if !waitCond(t, 2*time.Second, func() bool { return srv.conns.Load() >= 2 }) {
		t.Fatal("subscriber never reconnected")
	}
	srv.send(Event{Kind: KindHello, Seq: 2}.Encode())
	if !waitCond(t, 2*time.Second, func() bool { return connects.Load() == 2 }) {
		t.Fatal("second OnConnect never fired")
	}
	if u, _ := srv.lastURL.Load().(string); !strings.Contains(u, "since=2") {
		t.Errorf("reconnect URL %q does not resume from seq 2", u)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0].Key != "/a" || got[1].Key != "/b" {
		t.Errorf("events = %+v", got)
	}
}

func TestSubscriberHeartbeatTimeout(t *testing.T) {
	srv := &sseServer{}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var disconnects atomic.Int64
	sub, err := NewSubscriber(SubscriberConfig{
		URL:              ts.URL,
		OnEvent:          func(Event) {},
		OnDisconnect:     func(error) { disconnects.Add(1) },
		BackoffMin:       5 * time.Millisecond,
		HeartbeatTimeout: 50 * time.Millisecond,
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
	srv.send(Event{Kind: KindHello, Seq: 0}.Encode())
	// Silence follows: the watchdog must declare the stream dead.
	if !waitCond(t, 2*time.Second, func() bool { return disconnects.Load() >= 1 }) {
		t.Fatal("heartbeat watchdog never fired")
	}
	// Heartbeats keep a stream alive through a second connection.
	if !waitCond(t, 2*time.Second, func() bool { return srv.conns.Load() >= 2 }) {
		t.Fatal("never reconnected")
	}
}

func TestSubscriberRejectsStreamWithoutHello(t *testing.T) {
	srv := &sseServer{}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var connects atomic.Int64
	sub, err := NewSubscriber(SubscriberConfig{
		URL:        ts.URL,
		OnEvent:    func(Event) {},
		OnConnect:  func(Event, bool) { connects.Add(1) },
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
	srv.send(Event{Kind: KindUpdate, Seq: 1, Key: "/a"}.Encode())
	// The protocol violation forces a reconnect without OnConnect firing.
	if !waitCond(t, 2*time.Second, func() bool { return srv.conns.Load() >= 2 }) {
		t.Fatal("never reconnected after protocol violation")
	}
	if connects.Load() != 0 {
		t.Errorf("OnConnect fired %d times for a hello-less stream", connects.Load())
	}
}

func TestSubscriberBackoffOnRefusedConnections(t *testing.T) {
	// A server that always 503s: the subscriber must keep retrying
	// without ever reporting a connect or disconnect.
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		http.Error(w, "unavailable", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	var transitions atomic.Int64
	sub, err := NewSubscriber(SubscriberConfig{
		URL:          ts.URL,
		OnEvent:      func(Event) {},
		OnConnect:    func(Event, bool) { transitions.Add(1) },
		OnDisconnect: func(error) { transitions.Add(1) },
		BackoffMin:   time.Millisecond,
		BackoffMax:   10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go sub.Run(ctx)

	if !waitCond(t, 2*time.Second, func() bool { return attempts.Load() >= 3 }) {
		t.Fatalf("only %d attempts; backoff retry seems broken", attempts.Load())
	}
	if transitions.Load() != 0 {
		t.Error("connect/disconnect callbacks fired for failed attempts")
	}
}

func TestSubscriberResetHelloFastForwardsResumePoint(t *testing.T) {
	srv := &sseServer{}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	sub, err := NewSubscriber(SubscriberConfig{
		URL:        ts.URL,
		OnEvent:    func(Event) {},
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
	// A Reset hello (server could not replay the gap) must fast-forward
	// the resume point: without it every later reconnect re-requests the
	// stale seq and re-triggers a Reset reconciliation.
	srv.send(Event{Kind: KindHello, Seq: 50, Reset: true}.Encode())
	if !waitCond(t, 2*time.Second, func() bool { return sub.LastSeq() == 50 }) {
		t.Fatalf("LastSeq = %d after Reset hello, want 50", sub.LastSeq())
	}
	srv.kill()
	if !waitCond(t, 2*time.Second, func() bool { return srv.conns.Load() >= 2 }) {
		t.Fatal("never reconnected")
	}
	if u, _ := srv.lastURL.Load().(string); !strings.Contains(u, "since=50") {
		t.Errorf("reconnect URL %q does not resume from the reset point", u)
	}
}

func TestSubscriberConfigValidation(t *testing.T) {
	if _, err := NewSubscriber(SubscriberConfig{OnEvent: func(Event) {}}); err == nil {
		t.Error("missing URL must fail")
	}
	if _, err := NewSubscriber(SubscriberConfig{URL: "http://x"}); err == nil {
		t.Error("missing OnEvent must fail")
	}
}

func TestSubscriberStopsOnContextCancel(t *testing.T) {
	srv := &sseServer{}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	sub, err := NewSubscriber(SubscriberConfig{
		URL:        ts.URL,
		OnEvent:    func(Event) {},
		BackoffMin: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { sub.Run(ctx); close(done) }()
	if !waitCond(t, 2*time.Second, func() bool { return srv.conns.Load() >= 1 }) {
		t.Fatal("never connected")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
}

// BenchmarkEventRender measures the render-once cost itself: producing
// both wire forms (full and payload-stripped) of a value-carrying
// event. On the publish path this price is paid exactly once per event
// regardless of fan-out; per-subscriber delivery only picks one of the
// two pre-rendered byte slices.
func BenchmarkEventRender(b *testing.B) {
	body := bytes.Repeat([]byte("v"), 512)
	ev := Event{Kind: KindUpdate, Seq: 42, Key: "/obj/path", Group: "g",
		ModTime: time.Unix(1_700_000_000, 0), Body: body, HasBody: true,
		Digest: DigestOf(body)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re := RenderLadder(ev, 0)
		if len(re.full) == 0 || len(re.stripped) == 0 {
			b.Fatal("render produced an empty form")
		}
	}
}
