package push

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFrameGolden pins the exact spelling and byte length of every
// frame shape: the five core fields, then only the optional fields up to
// the last one the event sets.
func TestFrameGolden(t *testing.T) {
	body := []byte("165.38\n")
	up := Event{Kind: KindUpdate, Seq: 8, Key: "/news/a.html", ModTime: time.Unix(1700000000, 0)}
	full := up
	full.Body, full.HasBody, full.Digest, full.ContentType = body, true, DigestOf(body), "text/plain"
	noType, empty, delta, first, last, withCC := full, up, full, full, full, full
	noType.ContentType = ""
	empty.Body, empty.HasBody, empty.Digest = []byte{}, true, DigestOf(nil)
	delta.Body, delta.BaseDigest, delta.DeltaCodec = []byte{1, 2, 'h', 'i'}, DigestOf([]byte("base")), DeltaCodecBlock
	first.Body, first.ChunkTotal = []byte("165"), 3
	last.Body, last.ChunkIndex, last.ChunkTotal = []byte("\n"), 2, 3
	withCC.CacheControl = "x-cc-delta=30, x-mc-group=news"
	core := "2 8 1700000000000000000 - %2Fnews%2Fa.html"
	pcore := "2 8 1700000000000000000 p %2Fnews%2Fa.html"
	cases := []struct {
		name string
		ev   Event
		wire string
		size int
	}{
		{"heartbeat", Event{Kind: KindHeartbeat, Seq: 99}, "3 99 0 - -", 10},
		{"hello", Event{Kind: KindHello, Seq: 7}, "1 7 0 - -", 9},
		{"hello with Reset", Event{Kind: KindHello, Seq: 7, Reset: true}, "1 7 0 r -", 9},
		{"stripped update", up, core, 42},
		{"full update", full, pcore + " 165.38%J 6c0fffb738e4d5c2 text%2Fplain", 81},
		{"full update without content type", noType, pcore + " 165.38%J 6c0fffb738e4d5c2", 68},
		{"empty body", empty, pcore + " - e3b0c44298fc1c14", 61},
		{"empty body without digest", Event{Kind: KindUpdate, Seq: 8, Key: "/k", HasBody: true}, "2 8 0 p %2Fk", 12},
		{"delta", delta, pcore + " \x01\x02hi 6c0fffb738e4d5c2 text%2Fplain cae662172fd450bb 2", 96},
		{"first chunk", first, pcore + " 165 6c0fffb738e4d5c2 text%2Fplain - 0 0 3", 84},
		{"last chunk", last, pcore + " %J 6c0fffb738e4d5c2 text%2Fplain - 0 2 3", 83},
		{"full update with cache-control", withCC,
			pcore + " 165.38%J 6c0fffb738e4d5c2 text%2Fplain - 0 0 0 x-cc-delta%3D30%2C+x-mc-group%3Dnews", 126},
	}
	for _, c := range cases {
		if got := c.ev.Encode(); got != c.wire || len(got) != c.size {
			t.Errorf("%s: Encode = %q (%d B), want %q (%d B)", c.name, got, len(got), c.wire, c.size)
		}
	}
}

// TestEncodeDecodeRoundTrip: every invalidation-only event survives the
// wire on a newline-free line.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	assertRoundTrip(t, []Event{
		{Kind: KindHello, Seq: 42, Reset: true},
		{Kind: KindHello, Seq: 0},
		{Kind: KindUpdate, Seq: 7, Key: "/news/story.html",
			ModTime: time.Unix(1700000000, 0)},
		{Kind: KindUpdate, Seq: 8, Key: "/stock?sym=A B&x=ü"},
		{Kind: KindUpdate, Seq: 1 << 60, Key: "/k"},
		// A literal "-" collides with the empty-field sentinel and must
		// survive the trip via forced escaping.
		{Kind: KindUpdate, Seq: 9, Key: "-", ContentType: "-"},
		{Kind: KindHeartbeat, Seq: 99},
	})
}

// TestEncodeDecodeRoundTripV2 pins the payload fields: bodies, digests
// and content types survive the wire, a payload at Decode's ceiling
// round-trips exactly, and an event without payload state keeps the
// five core fields only.
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
		{Kind: KindUpdate, Seq: 3, Key: "/empty", Body: []byte{}, HasBody: true},
		// Digest without payload: what a stream-side strip leaves behind
		// must still parse (a consumer treats it as invalidation-only).
		{Kind: KindUpdate, Seq: 4, Key: "/stripped", Digest: "deadbeef00112233"},
		{Kind: KindHello, Seq: 9, Reset: true},
		// Reset flag plus payload (not emitted today, but representable).
		{Kind: KindUpdate, Seq: 5, Key: "/rp", Reset: true, Body: []byte("x"), HasBody: true},
		{Kind: KindUpdate, Seq: 6, Key: "/big", Body: big, HasBody: true, Digest: DigestOf(big)},
	}
	assertRoundTrip(t, events)

	plain := Event{Kind: KindUpdate, Seq: 7, Key: "/k", ModTime: time.Unix(1700000000, 0)}
	for _, ev := range []Event{plain, events[0].StripPayload()} {
		if wire := ev.Encode(); len(strings.Fields(wire)) != 5 {
			t.Errorf("event without payload state encoded as %q, want the five core fields", wire)
		}
	}
}

// TestPayloadFieldRoundTrip: every payload rides the field as its own
// bytes, the reserved ones escaped, and a decoded frame re-encodes to the
// line it came from — with the payload mid-frame and as its last field.
func TestPayloadFieldRoundTrip(t *testing.T) {
	payloads := [][]byte{{}, []byte("-"), []byte(" "), []byte("%"), []byte("%%"), []byte("\r\n"),
		[]byte("--"), []byte("%m")}
	for c := 0; c < 256; c++ {
		payloads = append(payloads, []byte{byte(c)})
	}
	random := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(random)
	payloads = append(payloads, random)
	for _, p := range payloads {
		for _, ev := range []Event{
			{Kind: KindUpdate, Seq: 1, Key: "/k", HasBody: true, Body: p, Digest: DigestOf(p)},
			{Kind: KindUpdate, Seq: 1, Key: "/k", HasBody: true, Body: p},
		} {
			wire := ev.Encode()
			if strings.ContainsAny(wire, "\r\n") || strings.Count(wire, " ") != 4+ev.optionalFields() {
				t.Fatalf("payload %q: frame %q breaks the line grammar", truncateForLog(string(p)), truncateForLog(wire))
			}
			got, err := Decode(wire)
			if err != nil {
				t.Fatalf("payload %q: Decode(%q): %v", truncateForLog(string(p)), truncateForLog(wire), err)
			}
			if !sameOnWire(got, ev) || got.Encode() != wire {
				t.Fatalf("payload %q: frame %q does not round-trip", truncateForLog(string(p)), truncateForLog(wire))
			}
		}
	}
	// The field costs one byte per payload byte, two per reserved one.
	want := len("2 1 0 p %2Fk ") + len(random)
	for _, c := range random {
		if c == ' ' || c == '\n' || c == '\r' || c == '%' {
			want++
		}
	}
	if got := len(Event{Kind: KindUpdate, Seq: 1, Key: "/k", HasBody: true, Body: random}.Encode()); got != want {
		t.Errorf("64 KiB of random bytes framed in %d B, want %d", got, want)
	}
}

// TestDecodeRefusesBadPayload: a payload field that appendPayload would
// never write — a raw reserved byte, a trailing escape, an escape of a
// byte that needs none, a '-' escaped inside a longer payload — is
// refused, and so is one decoding past MaxPayloadCap or one longer than
// any payload of that cap can be spelled.
func TestDecodeRefusesBadPayload(t *testing.T) {
	d := DigestOf([]byte("x"))
	for _, field := range []string{
		"abc%",    // a trailing escape byte
		"%",       // an escape byte alone
		"a%Ab",    // an escape of 0x01
		"%m%m",    // '-' escaped inside a longer payload
		"a%m",     // the same
		"a\rb",    // a raw carriage return
		"ab\n",    // a raw line feed
		"%e%",     // a good escape, then a trailing one
		"%\x00ab", // an escape of '@'
	} {
		for _, wire := range []string{"2 1 0 p /k " + field, "2 1 0 p /k " + field + " " + d} {
			if ev, err := Decode(wire); err == nil {
				t.Errorf("Decode(%q) accepted as body %q", wire, ev.Body)
			}
		}
	}
	for name, field := range map[string]string{
		"decodes past MaxPayloadCap":          strings.Repeat("x", MaxPayloadCap+1),
		"escaped payload past MaxPayloadCap":  strings.Repeat("%`", MaxPayloadCap/2+1) + strings.Repeat("x", MaxPayloadCap/2),
		"longer than a MaxPayloadCap payload": strings.Repeat("%`", MaxPayloadCap+1),
	} {
		if _, err := Decode("2 1 0 p /k " + field + " " + d); !errors.Is(err, ErrFrameTooLong) {
			t.Errorf("%s: Decode = %v, want ErrFrameTooLong", name, err)
		}
	}
	at := strings.Repeat("%`", MaxPayloadCap)
	if ev, err := Decode("2 1 0 p /k " + at + " " + d); err != nil || len(ev.Body) != MaxPayloadCap {
		t.Errorf("a MaxPayloadCap payload of spaces: %d bytes, %v", len(ev.Body), err)
	}
}

// assertRoundTrip checks that every event encodes to a newline-free
// line that decodes back to the same event.
func assertRoundTrip(t *testing.T, events []Event) {
	t.Helper()
	for _, want := range events {
		wire := want.Encode()
		if strings.ContainsAny(wire, "\r\n") {
			t.Errorf("Encode(%+v) contains a newline: %q", want, truncateForLog(wire))
		}
		got, err := Decode(wire)
		if err != nil {
			t.Errorf("Decode(%q): %v", truncateForLog(wire), err)
		} else if !sameOnWire(got, want) {
			t.Errorf("round trip diverged for %q", truncateForLog(wire))
		}
	}
}

// sameOnWire reports whether two events agree on every field the wire
// carries.
func sameOnWire(a, b Event) bool {
	return a.Kind == b.Kind && a.Seq == b.Seq && a.Key == b.Key &&
		a.Reset == b.Reset && a.ModTime.Equal(b.ModTime) && a.HasBody == b.HasBody &&
		bytes.Equal(a.Body, b.Body) && a.ContentType == b.ContentType && a.Digest == b.Digest &&
		a.BaseDigest == b.BaseDigest && a.DeltaCodec == b.DeltaCodec &&
		a.ChunkIndex == b.ChunkIndex && a.ChunkTotal == b.ChunkTotal && a.CacheControl == b.CacheControl
}

// TestCacheControlField: a frame's Cache-Control survives the wire on
// every payload rung, spaces, commas and a literal "-" included; the
// stripped form drops it with the payload; and a field that does not
// unescape is refused.
func TestCacheControlField(t *testing.T) {
	body := []byte("165.38\n")
	cc := "x-cc-delta=30, x-mc-group=news, x-mc-delta=60"
	full := Event{Kind: KindUpdate, Seq: 1, Key: "/quote/acme", Body: body, HasBody: true,
		Digest: DigestOf(body), ContentType: "text/plain", CacheControl: cc,
		ModTime: time.Unix(1700000000, 0)}
	delta := full
	delta.Body, delta.BaseDigest, delta.DeltaCodec = []byte{1, 2, 'h', 'i'}, DigestOf([]byte("base")), DeltaCodecBlock
	chunk := full
	chunk.Body, chunk.ChunkIndex, chunk.ChunkTotal = []byte("165"), 1, 3
	dash := full
	dash.CacheControl = "-"
	assertRoundTrip(t, []Event{full, delta, chunk, dash})

	stripped := full.StripPayload()
	if stripped.CacheControl != "" {
		t.Errorf("StripPayload kept Cache-Control %q", stripped.CacheControl)
	}
	if wire := stripped.Encode(); len(strings.Fields(wire)) != 5 {
		t.Errorf("stripped frame %q carries more than the five core fields", wire)
	}

	d := DigestOf(body)
	for _, wire := range []string{
		"2 1 0 p /k hi " + d + " - - 0 0 0 x-cc%zz", // bad escape
		"2 1 0 p /k hi " + d + " - - 0 0 0 -",       // ends in an empty cc
	} {
		if ev, err := Decode(wire); err == nil {
			t.Errorf("Decode(%q) accepted as %+v", wire, ev)
		}
	}
}

// TestDecodeRejectsMalformed: Decode refuses, never half-parses, every
// frame that breaks the field syntax, the retired versioned spellings,
// the retired six-core-field spelling with or without a group token, the
// retired hello that echoed a payload cap, a frame ending in an empty
// field, and an envelope over the limit.
// TestDecodeV3Rejections covers the delta and chunk fields.
func TestDecodeRejectsMalformed(t *testing.T) {
	d := DigestOf([]byte("x"))
	bad := []string{
		"",
		"2 3",
		"9 1 0 - /k",                    // unknown kind
		"2 x 0 - /k",                    // bad seq
		"2 1 y - /k",                    // bad modtime
		"2 1 0 z /k",                    // bad flags
		"2 1 0 - %zz",                   // bad key escape
		"2 1 0 - -",                     // update without key
		"-1 1 0 - /k",                   // negative kind
		"2 18446744073709551616 0 - /k", // seq overflow
		strings.Repeat("x", MaxFrameLen+1),
		"v1 1 0 0 - - -",           // the retired v1 hello
		"v1 2 1 0 - /k -",          // retired v1 update
		"v2 2 1 0 p /k - - - 0 hi", // retired v2 payload
		"v3 2 1 0 p /k - - " + d + " 0 - 0 0 2 hi", // retired v3 chunk
		"1 7 0 - - -",                             // six-field hello
		"1 7 0 r - -",                             // six-field Reset hello
		"1 7 0 - - - - - - 65536",                 // six-field hello with a cap
		"3 7 0 - - -",                             // six-field heartbeat
		"2 1 0 - /k grp",                          // six-field update with a group token
		"2 1 0 p /k grp hi " + d,                  // six-field payload frame with a group token
		"2 1 0 - /k -",                            // ends in an empty payload field
		"2 1 0 p /k -",                            // empty body spelled out
		"2 1 0 - /k - -",                          // ends in an empty digest
		"1 7 0 - - - - - 65536",                   // hello echoing a cap
		"1 1 0 - - - - - 0",                       // hello echoing a zero cap
		"2 1 0 - /k hi",                           // payload without the p flag
		"2 1 0 - /k - zz",                         // non-hex digest
		"2 1 0 - /k - " + strings.Repeat("a", 65), // digest too long
		"1 1 0 - - - - - x",                       // bad base digest
		"2 1 0 - /" + strings.Repeat("k", MaxFrameLen),                   // over the frame limit
		"2 1 0 p /" + strings.Repeat("k", MaxFrameLen) + " payload " + d, // envelope over the limit
		// Raw newlines ride one byte each on a hostile wire but re-encode
		// to three (%0A): the canonical envelope is over the limit even
		// though the frame as sent is not (fuzz-found; an accepted event
		// must always be re-encodable within bounds).
		"2 1 0 - /k" + strings.Repeat("\n", MaxFrameLen/2),
	}
	for _, wire := range bad {
		if ev, err := Decode(wire); err == nil {
			t.Errorf("Decode(%q) accepted malformed frame as %+v", truncateForLog(wire), ev)
		}
	}
}

func truncateForLog(s string) string {
	if len(s) > 120 {
		return s[:120] + "..."
	}
	return s
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

// TestOversizedCoversEveryForm: the envelope bound must hold for every
// frame an event can emit — the stripped form AND the full form with
// its digest and content type. A near-limit key whose stripped frame
// fits but whose full envelope does not would otherwise pass the hub's
// publish check and then be rejected by every payload-negotiated
// subscriber: a poisonous replay-ring frame and a reconnect livelock.
func TestOversizedCoversEveryForm(t *testing.T) {
	key := "/" + strings.Repeat("k", MaxFrameLen-20)
	plain := Event{Kind: KindUpdate, Key: key}
	if plain.Oversized() {
		t.Fatal("test premise broken: the bare invalidation form should fit")
	}
	body := []byte("165.38\n")
	rich := Event{Kind: KindUpdate, Key: key, Body: body, HasBody: true,
		ContentType: "text/plain; charset=utf-8", Digest: DigestOf(body)}
	if !rich.Oversized() {
		t.Fatal("full envelope over the limit not detected")
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
	fl := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.WriteHeader(http.StatusOK)
	// The stream is registered before the connection is counted, so a
	// test that waits for conns and then sends cannot lose its line.
	ch := make(chan string, 64)
	s.mu.Lock()
	s.streams = append(s.streams, ch)
	s.mu.Unlock()
	s.conns.Add(1)
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
// two pre-rendered byte slices. The bodies are text in 64-byte lines, so
// the payload field escapes one byte in 64.
func BenchmarkEventRender(b *testing.B) {
	for _, size := range []int{512, DefaultPayloadCap} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			body := bytes.Repeat([]byte(strings.Repeat("v", 63)+"\n"), size/64)
			ev := Event{Kind: KindUpdate, Seq: 42, Key: "/obj/path",
				ModTime: time.Unix(1_700_000_000, 0), Body: body, HasBody: true,
				Digest: DigestOf(body)}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				re := RenderLadder(ev, 0)
				if len(re.full) == 0 || len(re.stripped) == 0 {
					b.Fatal("render produced an empty form")
				}
			}
		})
	}
}

// TestApplyDeltaSizesItsOutput: a delta-applied body is retained at its
// exact size.
func TestApplyDeltaSizesItsOutput(t *testing.T) {
	base := bytes.Repeat([]byte("0123456789abcdef"), 64) // 1 KiB
	target := append(append([]byte("head "), base[:700]...), "mid"+string(base[700:])+" tail"...)
	delta, ok := MakeDelta(base, target)
	if !ok {
		t.Fatal("no delta for a small edit")
	}
	out, err := ApplyDelta(DeltaCodecBlock, base, delta, 0)
	if err != nil || !bytes.Equal(out, target) {
		t.Fatalf("ApplyDelta = %q, %v; want the target", out, err)
	}
	if cap(out) != len(out) {
		t.Errorf("applied body: len %d cap %d, want no spare capacity", len(out), cap(out))
	}
}
