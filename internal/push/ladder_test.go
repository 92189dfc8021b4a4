package push

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// This file tests the v3 value-delivery ladder end to end inside the
// package: the delta codec, the v3 wire frames, the publish-time form
// set (RenderLadder), the hub's per-stream rung selection (delta when
// the stream holds the base, chunks when only per-chunk frames fit),
// and the subscriber's chunk reassembly. The cross-process halves —
// the proxy applying deltas against its cache and the relay re-basing
// them — live in internal/webproxy.

// --- delta codec ---

func TestMakeApplyDeltaRoundTrip(t *testing.T) {
	long := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 200)
	cases := []struct {
		name         string
		base, target []byte
	}{
		{"append", long, append(append([]byte(nil), long...), []byte("tail line\n")...)},
		{"prepend", long, append([]byte("head line\n"), long...)},
		{"edit middle", long, bytes.Replace(long, []byte("lazy"), []byte("busy"), 3)},
		{"moved block", append(long[4096:], long[:4096]...), long},
		{"identical", long, long},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			delta, ok := MakeDelta(c.base, c.target)
			if !ok {
				t.Fatalf("MakeDelta found no delta smaller than %d bytes", len(c.target))
			}
			if len(delta) >= len(c.target) {
				t.Fatalf("delta of %d bytes for a %d-byte target", len(delta), len(c.target))
			}
			got, err := ApplyDelta(DeltaCodecBlock, c.base, delta, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, c.target) {
				t.Fatalf("round trip diverged: %d bytes, want %d", len(got), len(c.target))
			}
		})
	}
}

func TestMakeDeltaRefusesWhenNotSmaller(t *testing.T) {
	cases := []struct {
		name         string
		base, target []byte
	}{
		{"empty base", nil, []byte("body")},
		{"empty target", []byte("body"), nil},
		{"disjoint content", []byte(strings.Repeat("a", 256)), []byte(strings.Repeat("z", 48))},
	}
	for _, c := range cases {
		if delta, ok := MakeDelta(c.base, c.target); ok {
			t.Errorf("%s: MakeDelta returned a %d-byte delta, want refusal", c.name, len(delta))
		}
	}
}

// TestApplyDeltaHostile drives the decoder with the streams a hostile
// upstream could craft. Every case must error — never panic, never
// return bytes — and the output bound must hold even when the stream
// itself is tiny (a small COPY loop amplifying the base).
func TestApplyDeltaHostile(t *testing.T) {
	base := []byte("0123456789abcdef")
	uv := func(vals ...byte) []byte { return vals } // readable literals below
	cases := []struct {
		name  string
		delta []byte
	}{
		{"unknown op", uv(0xff)},
		{"truncated add header", uv(opAdd)},
		{"add length past stream", uv(opAdd, 0x10, 'x')},
		{"truncated copy offset", uv(opCopy)},
		{"truncated copy length", uv(opCopy, 0x00)},
		{"copy offset out of base", uv(opCopy, 0x7f, 0x01)},
		{"copy length out of base", uv(opCopy, 0x08, 0x7f)},
		// 11 continuation bytes: an offset the uvarint decoder rejects
		// as overflow instead of silently truncating.
		{"monster varint", append([]byte{opCopy}, bytes.Repeat([]byte{0xff}, 11)...)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, err := ApplyDelta(DeltaCodecBlock, base, c.delta, 0)
			if err == nil {
				t.Fatalf("hostile stream accepted, %d bytes out", len(out))
			}
			if !errors.Is(err, ErrBadDelta) {
				t.Fatalf("error %v is not ErrBadDelta", err)
			}
		})
	}

	// Output amplification: a few bytes of COPY ops reference the whole
	// base repeatedly; maxSize must stop the build mid-way.
	var amplifier []byte
	for i := 0; i < 64; i++ {
		amplifier = append(amplifier, opCopy, 0x00, 0x10) // copy base[0:16]
	}
	if _, err := ApplyDelta(DeltaCodecBlock, base, amplifier, 100); err == nil {
		t.Fatal("amplified output exceeded maxSize without error")
	}
	if _, err := ApplyDelta(0, base, uv(opAdd, 0x01, 'x'), 0); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

// --- v3 wire frames ---

func TestV3EncodeDecodeRoundTrip(t *testing.T) {
	body := []byte("delta-or-chunk-bytes")
	cases := []Event{
		{Kind: KindUpdate, Seq: 9, Key: "/obj", Body: body, HasBody: true,
			Digest: DigestOf([]byte("full")), BaseDigest: DigestOf([]byte("base")),
			DeltaCodec: DeltaCodecBlock, ModTime: time.Unix(1700000000, 0)},
		{Kind: KindUpdate, Seq: 10, Key: "/obj", Body: body, HasBody: true,
			Digest: DigestOf([]byte("full")), ChunkIndex: 2, ChunkTotal: 5,
			ContentType: "text/html", Group: "frontpage"},
		{Kind: KindUpdate, Seq: 11, Key: "/obj", Body: body, HasBody: true,
			Digest: DigestOf([]byte("full")), ChunkIndex: 0, ChunkTotal: 1},
	}
	for i, ev := range cases {
		wire := ev.Encode()
		if !strings.HasPrefix(wire, "v3 ") {
			t.Fatalf("case %d encoded as %q, want a v3 frame", i, wire)
		}
		got, err := Decode(wire)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.BaseDigest != ev.BaseDigest || got.DeltaCodec != ev.DeltaCodec ||
			got.ChunkIndex != ev.ChunkIndex || got.ChunkTotal != ev.ChunkTotal ||
			!bytes.Equal(got.Body, ev.Body) || got.Digest != ev.Digest ||
			got.Key != ev.Key || got.Seq != ev.Seq {
			t.Fatalf("case %d diverged: %+v vs %+v", i, ev, got)
		}
	}
}

// TestDecodeV3Rejections pins the structural rules of the delta/chunk
// extension: Decode must refuse (not half-parse) every frame whose
// ladder fields cannot describe a deliverable update.
func TestDecodeV3Rejections(t *testing.T) {
	frame := func(flags, digest, base, codec, ci, ct, payload string) string {
		return fmt.Sprintf("v3 2 1 0 %s /k - - %s 0 %s %s %s %s %s",
			flags, digest, base, codec, ci, ct, payload)
	}
	d := DigestOf([]byte("x"))
	cases := []struct {
		name, wire string
	}{
		{"base without codec", frame("p", d, d, "0", "0", "0", "aGk=")},
		{"codec without base", frame("p", d, "-", "1", "0", "0", "aGk=")},
		{"delta without payload", frame("-", d, d, "1", "0", "0", "-")},
		{"delta plus chunk state", frame("p", d, d, "1", "0", "2", "aGk=")},
		{"chunk index at total", frame("p", d, "-", "0", "2", "2", "aGk=")},
		{"chunk index past total", frame("p", d, "-", "0", "7", "2", "aGk=")},
		{"chunk index without total", frame("p", d, "-", "0", "3", "0", "aGk=")},
		{"chunk total over bound", frame("p", d, "-", "0", "0", "1025", "aGk=")},
		{"chunk without payload", frame("-", d, "-", "0", "0", "2", "-")},
		{"hostile base digest", frame("p", d, "nothex!!", "1", "0", "0", "aGk=")},
		{"v3 with no v3 fields", frame("p", d, "-", "0", "0", "0", "aGk=")},
		{"delta on a hello", "v3 1 1 0 p - - - " + d + " 0 " + d + " 1 0 0 aGk="},
	}
	for _, c := range cases {
		if ev, err := Decode(c.wire); err == nil {
			t.Errorf("%s: accepted as %+v", c.name, ev)
		}
	}
}

// --- publish-time form set ---

func TestRenderLadderSidecarForms(t *testing.T) {
	base := bytes.Repeat([]byte("base content line\n"), 40)
	body := append(append([]byte(nil), base...), []byte("new tail\n")...)
	delta, ok := MakeDelta(base, body)
	if !ok {
		t.Fatal("no delta")
	}
	ev := Event{Kind: KindUpdate, Seq: 3, Key: "/obj", Body: body, HasBody: true,
		Digest: DigestOf(body), BaseDigest: DigestOf(base), DeltaCodec: DeltaCodecBlock,
		DeltaBody: delta}
	re := RenderLadder(ev, 256)

	full, err := Decode(re.Full())
	if err != nil {
		t.Fatal(err)
	}
	if full.BaseDigest != "" || full.DeltaCodec != 0 || !bytes.Equal(full.Body, body) {
		t.Fatalf("full form carries delta state or the wrong body: %+v", full)
	}
	dFrame, dBase := re.Delta()
	if dBase != DigestOf(base) {
		t.Fatalf("delta base = %q", dBase)
	}
	dec, err := Decode(dFrame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Body, delta) || dec.BaseDigest != DigestOf(base) || dec.Digest != DigestOf(body) {
		t.Fatalf("delta form diverged: %+v", dec)
	}
	chunks, chunkLen := re.Chunks()
	if chunkLen != 256 || len(chunks) != (len(body)+255)/256 {
		t.Fatalf("chunk set: %d frames at %d bytes for a %d-byte body", len(chunks), chunkLen, len(body))
	}
	// Reassemble the chunk frames; they must rebuild the exact body.
	var joined []byte
	for i, c := range chunks {
		cev, err := Decode(c)
		if err != nil {
			t.Fatal(err)
		}
		if cev.ChunkIndex != uint32(i) || int(cev.ChunkTotal) != len(chunks) || cev.Digest != DigestOf(body) {
			t.Fatalf("chunk %d framing: %+v", i, cev)
		}
		joined = append(joined, cev.Body...)
	}
	if !bytes.Equal(joined, body) {
		t.Fatal("chunk frames do not reassemble the body")
	}
	if st, err := Decode(re.Stripped()); err != nil || st.HasBody {
		t.Fatalf("stripped form: %+v err=%v", st, err)
	}
}

// TestRenderLadderPureDelta pins the relay republication shape: a
// decoded v3 delta frame (Body IS the delta, no sidecar) renders as
// delta + stripped only — there is no full body to spell out, so a
// stream without the base degrades to the invalidation.
func TestRenderLadderPureDelta(t *testing.T) {
	ev := Event{Kind: KindUpdate, Seq: 4, Key: "/obj", Body: []byte{opAdd, 0x01, 'x'},
		HasBody: true, Digest: DigestOf([]byte("x")), BaseDigest: DigestOf([]byte("b")),
		DeltaCodec: DeltaCodecBlock}
	re := RenderLadder(ev, 128)
	if re.Full() != "" {
		t.Fatalf("pure delta rendered a full form: %q", re.Full())
	}
	if d, base := re.Delta(); d == "" || base != ev.BaseDigest {
		t.Fatalf("delta form missing: %q base %q", d, base)
	}
	if chunks, _ := re.Chunks(); len(chunks) != 0 {
		t.Fatalf("chunked a delta body: %d frames", len(chunks))
	}
	if got := re.WireFor(1 << 20); got != re.Stripped() {
		t.Fatalf("WireFor fell to %q, want the stripped form", got)
	}
}

// --- hub rung selection ---

// startHeldSubscriber runs a Subscriber that resumes from since and
// advertises held digests, until test cleanup.
func startHeldSubscriber(t *testing.T, url string, sink *hubSink, payloadCap int, since uint64, held func() []HeldDigest) *Subscriber {
	t.Helper()
	sub, err := NewSubscriber(SubscriberConfig{
		URL:        url,
		OnEvent:    sink.onEvent,
		OnConnect:  sink.onConnect,
		BackoffMin: 5 * time.Millisecond,
		BackoffMax: 50 * time.Millisecond,
		PayloadCap: payloadCap,
		Held:       held,
	})
	if err != nil {
		t.Fatal(err)
	}
	sub.lastSeq.Store(since)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go sub.Run(ctx)
	return sub
}

// TestHubDeltaRung drives the delta rung end to end over HTTP: the
// first update delivers the full body (nothing held yet), advancing the
// hub's per-stream held digest; the second update's frame must then be
// the delta, and the subscriber must see the raw v3 delta event.
func TestHubDeltaRung(t *testing.T) {
	h := NewHub(HubConfig{PayloadCap: DefaultPayloadCap})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)

	sink := &hubSink{}
	startHubSubscriberCap(t, ts.URL, sink, DefaultPayloadCap)
	if !waitCond(t, 2*time.Second, func() bool { return h.Subscribers() == 1 }) {
		t.Fatal("never connected")
	}

	v1 := bytes.Repeat([]byte("first revision of the body\n"), 30)
	v2 := append(append([]byte(nil), v1...), []byte("and one more line\n")...)
	delta, ok := MakeDelta(v1, v2)
	if !ok {
		t.Fatal("no delta")
	}
	h.Publish(Event{Kind: KindUpdate, Key: "/obj", Body: v1, HasBody: true, Digest: DigestOf(v1)})
	h.Publish(Event{Kind: KindUpdate, Key: "/obj", Body: v2, HasBody: true, Digest: DigestOf(v2),
		BaseDigest: DigestOf(v1), DeltaCodec: DeltaCodecBlock, DeltaBody: delta})
	if !waitCond(t, 2*time.Second, func() bool {
		evs, _, _ := sink.snapshot()
		return len(evs) == 2
	}) {
		t.Fatal("events never arrived")
	}
	evs, _, _ := sink.snapshot()
	if evs[0].BaseDigest != "" || !bytes.Equal(evs[0].Body, v1) {
		t.Fatalf("first delivery not the full body: %+v", evs[0])
	}
	if evs[1].BaseDigest != DigestOf(v1) || evs[1].DeltaCodec != DeltaCodecBlock {
		t.Fatalf("second delivery not a delta frame: %+v", evs[1])
	}
	got, err := ApplyDelta(evs[1].DeltaCodec, v1, evs[1].Body, 0)
	if err != nil || DigestOf(got) != evs[1].Digest {
		t.Fatalf("delivered delta does not rebuild v2: %v", err)
	}
	if st := h.Stats(); st.DeltaFrames != 1 {
		t.Fatalf("DeltaFrames = %d, want 1 (stats %+v)", st.DeltaFrames, st)
	}
}

// TestHubRungZeroSendsAPayloadOnce walks one over-cap body through the
// sequence a relay's hub sees — the payload, then the payload-free
// confirmation of the same version, then the next version as a delta —
// and the cases around it. The repeat must cross as the stripped
// announcement alone and leave the held digest standing (before rung
// zero it went out as a second chunk set, because the delta's base no
// longer matched, and the stripped delivery then voided the chain); a
// payload-bearing repeat gets the same treatment; a NEWER version with
// the same content is not a repeat; and an announcement of a digest the
// stream does not hold still voids what the hub thought it held.
func TestHubRungZeroSendsAPayloadOnce(t *testing.T) {
	h := NewHub(HubConfig{PayloadCap: 1024, ChunkPayload: 256})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	sink := &hubSink{}
	startHubSubscriberCap(t, ts.URL, sink, 1024)
	if !waitCond(t, 2*time.Second, func() bool { return h.Subscribers() == 1 }) {
		t.Fatal("never connected")
	}
	next := func(n int) Event {
		t.Helper()
		if !waitCond(t, 2*time.Second, func() bool {
			evs, _, _ := sink.snapshot()
			return len(evs) >= n
		}) {
			t.Fatalf("event %d never arrived", n)
		}
		evs, _, _ := sink.snapshot()
		return evs[n-1]
	}

	v1 := bytes.Repeat([]byte("0123456789abcdef"), 200) // 3200 bytes > hub cap
	v2 := append(append([]byte(nil), v1...), []byte("grown")...)
	v3 := append(append([]byte(nil), v2...), []byte("again")...)
	d12, _ := MakeDelta(v1, v2)
	d23, _ := MakeDelta(v2, v3)
	t1 := time.Unix(1_700_000_000, 0)
	t2, t3 := t1.Add(time.Second), t1.Add(2*time.Second)
	update := func(mod time.Time, body []byte) Event {
		return Event{Kind: KindUpdate, Key: "/big", ModTime: mod, Body: body, HasBody: true, Digest: DigestOf(body)}
	}
	withDelta := func(ev Event, base, delta []byte) Event {
		ev.BaseDigest, ev.DeltaCodec, ev.DeltaBody = DigestOf(base), DeltaCodecBlock, delta
		return ev
	}

	// First sight: a chunk set.
	h.Publish(update(t1, v1))
	if got := next(1); !bytes.Equal(got.Body, v1) {
		t.Fatalf("first delivery not the body: %+v", got)
	}
	// The payload-free confirmation, then the payload again: rung zero.
	h.Publish(Event{Kind: KindUpdate, Key: "/big", ModTime: t1, Digest: DigestOf(v1)})
	h.Publish(update(t1, v1))
	for n := 2; n <= 3; n++ {
		if got := next(n); got.HasBody || !got.ModTime.Equal(t1) {
			t.Fatalf("repeat %d of a held version carried a payload: %+v", n-1, got)
		}
	}
	// The held digest stood: the next version rides the delta rung.
	h.Publish(withDelta(update(t2, v2), v1, d12))
	if got := next(4); got.BaseDigest != DigestOf(v1) {
		t.Fatalf("delta chain broken by the repeats: %+v", got)
	}
	// Same content, newer instant: a version the stream must install.
	h.Publish(update(t3, v2))
	if got := next(5); !bytes.Equal(got.Body, v2) || !got.ModTime.Equal(t3) {
		t.Fatalf("a newer version with the same content was withheld: %+v", got)
	}
	// An announcement of a digest the stream does not hold voids the
	// chain: the next delta's base is no longer known to be there.
	h.Publish(Event{Kind: KindUpdate, Key: "/big", ModTime: t3.Add(time.Second), Digest: DigestOf(v3)})
	next(6)
	h.Publish(withDelta(update(t3.Add(2*time.Second), v3), v2, d23))
	if got := next(7); got.BaseDigest != "" || !bytes.Equal(got.Body, v3) {
		t.Fatalf("a delta was sent against a voided base: %+v", got)
	}
	st := h.Stats()
	if st.DuplicateFrames != 2 || st.ChunkFrames != 3 || st.DeltaFrames != 1 {
		t.Fatalf("rung zero %d chunk sets %d deltas %d, want 2, 3, 1", st.DuplicateFrames, st.ChunkFrames, st.DeltaFrames)
	}
}

// TestHubDeltaRungFromConnectHeld seeds the held digest through the
// ?held= connect parameter instead of a prior delivery: a subscriber
// that advertises the base it holds receives its very first update as
// a delta.
func TestHubDeltaRungFromConnectHeld(t *testing.T) {
	h := NewHub(HubConfig{PayloadCap: DefaultPayloadCap})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)

	v1 := bytes.Repeat([]byte("held base body\n"), 30)
	v2 := append(append([]byte(nil), v1...), []byte("tail\n")...)
	delta, ok := MakeDelta(v1, v2)
	if !ok {
		t.Fatal("no delta")
	}

	sink := &hubSink{}
	startHeldSubscriber(t, ts.URL, sink, DefaultPayloadCap, 0, func() []HeldDigest {
		return []HeldDigest{
			{Key: "/obj", Digest: DigestOf(v1)},
			{Key: "", Digest: DigestOf(v1)},    // malformed: dropped client-side
			{Key: "/bad", Digest: "not a hex"}, // malformed: dropped client-side
		}
	})
	if !waitCond(t, 2*time.Second, func() bool { return h.Subscribers() == 1 }) {
		t.Fatal("never connected")
	}

	h.Publish(Event{Kind: KindUpdate, Key: "/obj", Body: v2, HasBody: true, Digest: DigestOf(v2),
		BaseDigest: DigestOf(v1), DeltaCodec: DeltaCodecBlock, DeltaBody: delta})
	if !waitCond(t, 2*time.Second, func() bool {
		evs, _, _ := sink.snapshot()
		return len(evs) == 1
	}) {
		t.Fatal("event never arrived")
	}
	evs, _, _ := sink.snapshot()
	if evs[0].BaseDigest != DigestOf(v1) {
		t.Fatalf("first delivery not a delta despite the held advertisement: %+v", evs[0])
	}
	if st := h.Stats(); st.DeltaFrames != 1 {
		t.Fatalf("DeltaFrames = %d, want 1", st.DeltaFrames)
	}
}

// TestHubChunkedDelivery proves a body beyond both the hub cap and the
// stream cap still arrives whole: published as a chunk-only event
// (full form suppressed), delivered as a chunk set, reassembled by the
// subscriber with the terminal digest check.
func TestHubChunkedDelivery(t *testing.T) {
	h := NewHub(HubConfig{PayloadCap: 1024, ChunkPayload: 256})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)

	sink := &hubSink{}
	sub := startHubSubscriberCap(t, ts.URL, sink, 1024)
	if !waitCond(t, 2*time.Second, func() bool { return h.Subscribers() == 1 }) {
		t.Fatal("never connected")
	}

	body := bytes.Repeat([]byte("0123456789abcdef"), 200) // 3200 bytes > hub cap
	h.Publish(Event{Kind: KindUpdate, Key: "/big", Body: body, HasBody: true,
		Digest: DigestOf(body), ContentType: "text/plain"})
	if !waitCond(t, 2*time.Second, func() bool {
		evs, _, _ := sink.snapshot()
		return len(evs) == 1
	}) {
		t.Fatal("chunked update never assembled")
	}
	evs, _, _ := sink.snapshot()
	got := evs[0]
	if !bytes.Equal(got.Body, body) || got.ChunkTotal != 0 || got.Digest != DigestOf(body) {
		t.Fatalf("assembled event diverged: %d bytes, chunk total %d", len(got.Body), got.ChunkTotal)
	}
	if sub.ChunksAssembled() != 1 || sub.ChunksBroken() != 0 {
		t.Fatalf("assembled=%d broken=%d", sub.ChunksAssembled(), sub.ChunksBroken())
	}
	st := h.Stats()
	if st.ChunkFrames != 1 {
		t.Fatalf("ChunkFrames = %d, want 1", st.ChunkFrames)
	}
	if st.Degraded != 0 {
		t.Fatalf("a chunkable body was degraded: %+v", st)
	}

	// A pure-invalidation stream on the same hub must receive the
	// stripped form of the same event, never a chunk frame it cannot use.
	bare := &hubSink{}
	startHubSubscriber(t, ts.URL, bare)
	if !waitCond(t, 2*time.Second, func() bool { return h.Subscribers() == 2 }) {
		t.Fatal("bare stream never connected")
	}
	h.Publish(Event{Kind: KindUpdate, Key: "/big", Body: body, HasBody: true, Digest: DigestOf(body)})
	if !waitCond(t, 2*time.Second, func() bool {
		evs, _, _ := bare.snapshot()
		return len(evs) == 1
	}) {
		t.Fatal("stripped update never arrived")
	}
	bevs, _, _ := bare.snapshot()
	if bevs[0].HasBody || bevs[0].ChunkTotal != 0 {
		t.Fatalf("bare stream received payload state: %+v", bevs[0])
	}
}

// applyLadderChain walks a delivered frame sequence the way a consumer
// would: installing full bodies, applying deltas against the current
// body, and treating stripped frames as "poll here" (the base is no
// longer known). A delta that arrives when no base is held, or whose
// base does not match the held body, is a protocol violation. Returns
// the final body.
func applyLadderChain(t *testing.T, evs []Event, cur []byte, haveBase bool) []byte {
	t.Helper()
	for _, ev := range evs {
		switch {
		case ev.BaseDigest != "":
			if !haveBase {
				t.Fatalf("delta frame for a stream holding no base: %+v", ev)
			}
			if ev.BaseDigest != DigestOf(cur) {
				t.Fatalf("delta base %q does not chain from held %q", ev.BaseDigest, DigestOf(cur))
			}
			next, err := ApplyDelta(ev.DeltaCodec, cur, ev.Body, 0)
			if err != nil {
				t.Fatalf("delivered delta failed to apply: %v", err)
			}
			if DigestOf(next) != ev.Digest {
				t.Fatal("delivered delta built the wrong body")
			}
			cur = next
		case ev.HasBody:
			cur = ev.Body
			haveBase = true
		default:
			haveBase = false // stripped: the consumer confirms by polling
		}
	}
	return cur
}

// TestHubWholeFrameReplay pins what a retained frame replays as: every
// ring entry keeps every rendered form, so the rung a resumer rides is
// decided by what it holds alone. A resumer holding the chain's base
// replays pure deltas; a resumer holding nothing is handed the first
// missed revision whole — which seeds its chain — and rides deltas from
// there to the newest revision, never polling.
func TestHubWholeFrameReplay(t *testing.T) {
	h := NewHub(HubConfig{PayloadCap: DefaultPayloadCap})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)

	// A chain of 8 delta-bearing revisions: seq i carries bodies[i]
	// based on bodies[i-1].
	bodies := make([][]byte, 9)
	bodies[0] = bytes.Repeat([]byte("revision zero body line\n"), 20)
	for i := 1; i <= 8; i++ {
		bodies[i] = append(append([]byte(nil), bodies[i-1]...),
			[]byte(fmt.Sprintf("line added at revision %d\n", i))...)
		delta, ok := MakeDelta(bodies[i-1], bodies[i])
		if !ok {
			t.Fatalf("no delta at revision %d", i)
		}
		h.Publish(Event{Kind: KindUpdate, Key: "/obj", Body: bodies[i], HasBody: true,
			Digest: DigestOf(bodies[i]), BaseDigest: DigestOf(bodies[i-1]),
			DeltaCodec: DeltaCodecBlock, DeltaBody: delta})
	}

	// replay resumes from seq 1 and returns the seven frames it missed.
	replay := func(name string, held func() []HeldDigest) []Event {
		t.Helper()
		sink := &hubSink{}
		startHeldSubscriber(t, ts.URL, sink, DefaultPayloadCap, 1, held)
		if !waitCond(t, 2*time.Second, func() bool {
			evs, _, _ := sink.snapshot()
			return len(evs) == 7
		}) {
			evs, _, _ := sink.snapshot()
			t.Fatalf("%s replay delivered %d events, want 7", name, len(evs))
		}
		evs, _, _ := sink.snapshot()
		return evs
	}

	// Resumer holding bodies[1]: the replay (seqs 2..8) must arrive
	// entirely on the delta rung, in base order.
	evs := replay("held", func() []HeldDigest {
		return []HeldDigest{{Key: "/obj", Digest: DigestOf(bodies[1])}}
	})
	for _, ev := range evs {
		if ev.BaseDigest == "" {
			t.Fatalf("a held resumer fell off the delta rung: %+v", ev)
		}
	}
	cur := applyLadderChain(t, evs, bodies[1], true)
	if !bytes.Equal(cur, bodies[8]) {
		t.Fatal("held replay did not converge on the final body")
	}
	if st := h.Stats(); st.DeltaFrames != 7 {
		t.Fatalf("DeltaFrames = %d, want 7", st.DeltaFrames)
	}

	// Resumer holding NOTHING: seq 2 was superseded seven times over and
	// still replays whole; the hub then knows what the stream holds and
	// sends the other six as deltas.
	bevs := replay("blank", nil)
	if !bevs[0].HasBody || bevs[0].BaseDigest != "" || !bytes.Equal(bevs[0].Body, bodies[2]) {
		t.Fatalf("first replayed frame is not the full body of revision 2: %+v", bevs[0])
	}
	for i, ev := range bevs[1:] {
		if ev.BaseDigest == "" {
			t.Fatalf("replayed frame %d left the delta rung after the stream was seeded: %+v", i+1, ev)
		}
	}
	cur = applyLadderChain(t, bevs, nil, false)
	if !bytes.Equal(cur, bodies[8]) {
		t.Fatal("blank replay did not converge on the final body")
	}
	if st := h.Stats(); st.DeltaFrames != 13 {
		t.Fatalf("DeltaFrames = %d, want 13", st.DeltaFrames)
	}
}

// TestHubSupersededFrameStaysWhole is the live-path hazard: a relay's
// hub takes key A's payload, then the payload-free confirmation of the
// same version and key B's payload into the same partition, all before
// a stream fetches (the confirmation lands milliseconds after the
// pass-through). A's frame is two publishes behind the partition's head
// by then and must still offer every rung: the full form (the chunk set
// when the body is over the cap) for a stream holding no base — which
// otherwise falls to a confirmation poll, after which the hub no longer
// knows what it holds and the next revision goes out whole again — and
// the delta for a stream holding the base.
func TestHubSupersededFrameStaysWhole(t *testing.T) {
	const payloadCap, chunkPayload = 1024, 256
	for _, c := range []struct {
		name    string
		lines   int
		chunked bool
	}{
		{"body under the cap", 20, false},
		{"body over the cap", 120, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := NewHub(HubConfig{PayloadCap: payloadCap, ChunkPayload: chunkPayload})
			v1 := bytes.Repeat([]byte("first revision of the body\n"), c.lines)
			v2 := append(append([]byte(nil), v1...), []byte("and one more line\n")...)
			delta, ok := MakeDelta(v1, v2)
			if !ok {
				t.Fatal("no delta")
			}
			mod := time.Unix(1_700_000_000, 0)
			other := []byte("another key in the same subtree\n")
			h.Publish(Event{Kind: KindUpdate, Key: "/docs/noise"}) // seq 1: the resume point
			h.Publish(Event{Kind: KindUpdate, Key: "/docs/a", ModTime: mod, Body: v2, HasBody: true,
				Digest: DigestOf(v2), BaseDigest: DigestOf(v1), DeltaCodec: DeltaCodecBlock, DeltaBody: delta})
			h.Publish(Event{Kind: KindUpdate, Key: "/docs/a", ModTime: mod, Digest: DigestOf(v2)})
			h.Publish(Event{Kind: KindUpdate, Key: "/docs/b", ModTime: mod, Body: other, HasBody: true,
				Digest: DigestOf(other)})

			_, sub, ok := h.subscribe(1, payloadCap, InterestAll(), nil)
			if !ok {
				t.Fatal("subscribe failed")
			}
			defer h.unsubscribe(sub)
			frames := fetchAll(h, sub)
			if len(frames) != 3 || frames[0].Key != "/docs/a" || frames[0].Seq != 2 {
				t.Fatalf("fetched %d frames, want A's payload, its confirmation and B's payload", len(frames))
			}
			a := frames[0]

			// Holding the base: the delta.
			if frame, base := a.Delta(); frame == "" || base != DigestOf(v1) {
				t.Fatalf("superseded frame lost its delta form (base %q)", base)
			}
			// Holding nothing: the body itself, by whichever rung the cap allows.
			var body []byte
			if c.chunked {
				chunks, size := a.Chunks()
				if len(chunks) == 0 || size > payloadCap {
					t.Fatalf("superseded over-cap frame offers no chunk set (%d chunks of %d): a stream without the base would poll", len(chunks), size)
				}
				for i, frame := range chunks {
					ev, err := Decode(frame)
					if err != nil || int(ev.ChunkIndex) != i {
						t.Fatalf("chunk %d does not decode in order: %+v %v", i, ev, err)
					}
					body = append(body, ev.Body...)
				}
			} else {
				ev, err := Decode(a.WireFor(payloadCap))
				if err != nil || !ev.HasBody {
					t.Fatalf("superseded frame offers no full form: a stream without the base would poll (%+v, %v)", ev, err)
				}
				body = ev.Body
			}
			if !bytes.Equal(body, v2) {
				t.Fatal("the retained body is not the published one")
			}
		})
	}
}

// --- subscriber chunk assembly (unit level) ---

func chunkSet(t *testing.T, key string, seq uint64, body []byte, n int) []Event {
	t.Helper()
	if len(body)%n != 0 {
		t.Fatalf("test body %d not divisible by %d", len(body), n)
	}
	size := len(body) / n
	evs := make([]Event, n)
	for i := 0; i < n; i++ {
		evs[i] = Event{Kind: KindUpdate, Seq: seq, Key: key,
			Body: body[i*size : (i+1)*size], HasBody: true,
			Digest: DigestOf(body), ChunkIndex: uint32(i), ChunkTotal: uint32(n)}
	}
	return evs
}

func TestAssembleUpdateInOrder(t *testing.T) {
	s := &Subscriber{}
	var asm chunkAssembly
	body := bytes.Repeat([]byte("abcd"), 30)
	var out []Event
	for _, ev := range chunkSet(t, "/k", 7, body, 3) {
		out = append(out, s.assembleUpdate(&asm, ev)...)
	}
	if len(out) != 1 {
		t.Fatalf("delivered %d events, want 1", len(out))
	}
	if !bytes.Equal(out[0].Body, body) || out[0].ChunkTotal != 0 || out[0].Seq != 7 {
		t.Fatalf("assembled event: %+v", out[0])
	}
	if s.chunksAssembled.Load() != 1 || s.chunksBroken.Load() != 0 {
		t.Fatalf("counters: assembled=%d broken=%d", s.chunksAssembled.Load(), s.chunksBroken.Load())
	}
}

func TestAssembleUpdateHoleDegrades(t *testing.T) {
	s := &Subscriber{}
	var asm chunkAssembly
	body := bytes.Repeat([]byte("abcd"), 30)
	set := chunkSet(t, "/k", 7, body, 3)
	out := s.assembleUpdate(&asm, set[0])
	out = append(out, s.assembleUpdate(&asm, set[2])...) // hole: chunk 1 lost
	if len(out) == 0 {
		t.Fatal("a holed set delivered nothing — the update would be silently dropped")
	}
	for _, ev := range out {
		if ev.HasBody {
			t.Fatalf("a holed set delivered payload bytes: %+v", ev)
		}
		if ev.Key != "/k" || ev.Seq != 7 {
			t.Fatalf("degraded event lost its identity: %+v", ev)
		}
	}
	if s.chunksBroken.Load() == 0 {
		t.Fatal("broken counter never moved")
	}
}

func TestAssembleUpdateJoinMidSet(t *testing.T) {
	s := &Subscriber{}
	var asm chunkAssembly
	body := bytes.Repeat([]byte("abcd"), 30)
	set := chunkSet(t, "/k", 7, body, 3)
	out := s.assembleUpdate(&asm, set[1]) // first frame seen is mid-set
	if len(out) != 1 || out[0].HasBody {
		t.Fatalf("mid-set join: %+v", out)
	}
	if s.chunksBroken.Load() != 1 {
		t.Fatalf("broken = %d", s.chunksBroken.Load())
	}
}

func TestAssembleUpdateTerminalDigestMismatch(t *testing.T) {
	s := &Subscriber{}
	var asm chunkAssembly
	body := bytes.Repeat([]byte("abcd"), 30)
	set := chunkSet(t, "/k", 7, body, 3)
	for i := range set {
		set[i].Digest = DigestOf([]byte("someone else's body"))
	}
	var out []Event
	for _, ev := range set {
		out = append(out, s.assembleUpdate(&asm, ev)...)
	}
	if len(out) != 1 || out[0].HasBody {
		t.Fatalf("digest mismatch delivered: %+v", out)
	}
	if s.chunksBroken.Load() != 1 || s.chunksAssembled.Load() != 0 {
		t.Fatalf("counters: assembled=%d broken=%d", s.chunksAssembled.Load(), s.chunksBroken.Load())
	}
}

func TestAssembleUpdateInterleavedUpdateAbandons(t *testing.T) {
	s := &Subscriber{}
	var asm chunkAssembly
	body := bytes.Repeat([]byte("abcd"), 30)
	set := chunkSet(t, "/k", 7, body, 3)
	out := s.assembleUpdate(&asm, set[0])
	plain := Event{Kind: KindUpdate, Seq: 8, Key: "/other"}
	out = append(out, s.assembleUpdate(&asm, plain)...)
	if len(out) != 2 {
		t.Fatalf("delivered %d events, want abandoned-stripped + plain", len(out))
	}
	if out[0].HasBody || out[0].Key != "/k" || out[0].Seq != 7 {
		t.Fatalf("abandonment event: %+v", out[0])
	}
	if out[1].Key != "/other" {
		t.Fatalf("interleaved update lost: %+v", out[1])
	}
}

func TestAssembleUpdateOverBudgetAbandons(t *testing.T) {
	s := &Subscriber{}
	// Pre-position an assembly one byte under the budget; the next
	// chunk must abandon rather than buffer past MaxAssembledBody.
	asm := chunkAssembly{
		active: true,
		ev:     Event{Kind: KindUpdate, Seq: 7, Key: "/k", Digest: DigestOf(nil), ChunkTotal: 4},
		next:   1,
		buf:    make([]byte, MaxAssembledBody-1),
	}
	ev := Event{Kind: KindUpdate, Seq: 7, Key: "/k", Digest: DigestOf(nil),
		Body: []byte("xx"), HasBody: true, ChunkIndex: 1, ChunkTotal: 4}
	out := s.assembleUpdate(&asm, ev)
	if len(out) != 1 || out[0].HasBody || asm.active {
		t.Fatalf("over-budget chunk: out=%+v active=%v", out, asm.active)
	}
	if s.chunksBroken.Load() != 1 {
		t.Fatalf("broken = %d", s.chunksBroken.Load())
	}
}

// --- benchmarks (wired into scripts/bench-hotpath.sh) ---

// BenchmarkDeltaApply measures the proxy-side hot path of the delta
// rung: reconstructing a ~64KiB body from a small edit delta.
func BenchmarkDeltaApply(b *testing.B) {
	base := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog.\n"), 1456)
	target := bytes.Replace(base, []byte("lazy"), []byte("busy"), 10)
	delta, ok := MakeDelta(base, target)
	if !ok {
		b.Fatal("no delta")
	}
	b.SetBytes(int64(len(target)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ApplyDelta(DeltaCodecBlock, base, delta, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// scatteredEdit returns a seeded text body of the given size and a
// revision of it with about 5 % of the bytes redrawn in 16-byte runs at
// random offsets — the fleet benchmark's own mutation, and the shape
// that separates an encoder whose COPYs start only on block boundaries
// from one that reclaims the unchanged bytes before each seed.
func scatteredEdit(size int) (base, target []byte) {
	rng := rand.New(rand.NewSource(int64(size)))
	base = make([]byte, size)
	for i := range base {
		base[i] = 'a' + byte(rng.Intn(26))
		if i%64 == 63 {
			base[i] = '\n'
		}
	}
	target = append([]byte(nil), base...)
	const run = 16
	for r := 0; r < size/20/run+1; r++ {
		at := rng.Intn(size - run)
		for i := 0; i < run; i++ {
			target[at+i] = 'A' + byte(rng.Intn(26))
		}
	}
	return base, target
}

// TestMakeDeltaReclaimsLiteralTail pins the encoder's backward match
// extension: a 16-byte edit costs its 16 literals plus two opcodes'
// framing, not the up-to-31 unchanged bytes between the edit and the
// next block boundary as well. Before the extension this body's delta
// was ≈ 23 KB (≈ 38 B per edit); the bound leaves the encoder room but
// not that much.
func TestMakeDeltaReclaimsLiteralTail(t *testing.T) {
	base, target := scatteredEdit(192 << 10)
	delta, ok := MakeDelta(base, target)
	if !ok {
		t.Fatal("no delta")
	}
	edits := len(target)/20/16 + 1
	if perEdit := float64(len(delta)) / float64(edits); perEdit > 28 {
		t.Errorf("delta is %d bytes for %d 16-byte edits (%.1f B each); unchanged bytes are riding as literals",
			len(delta), edits, perEdit)
	}
	got, err := ApplyDelta(DeltaCodecBlock, base, delta, 0)
	if err != nil || !bytes.Equal(got, target) {
		t.Fatalf("round trip broke: err=%v", err)
	}
}

// BenchmarkMakeDelta measures the encoder on the fleet benchmark's
// mutation at both of its body sizes, reporting the delta's size next to
// its cost: the bytes are what every link down the relay chain carries.
func BenchmarkMakeDelta(b *testing.B) {
	for _, size := range []int{1 << 10, 192 << 10} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			base, target := scatteredEdit(size)
			var delta []byte
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var ok bool
				if delta, ok = MakeDelta(base, target); !ok {
					b.Fatal("no delta")
				}
			}
			b.ReportMetric(float64(len(delta)), "delta-bytes/op")
		})
	}
}

// BenchmarkHubPublishFanoutDelta measures the ladder's publish cost: a
// delta-sidecar event rendered once (full + delta + stripped forms) and
// fanned out to a draining fleet — the delta rung must not reintroduce
// per-subscriber rendering.
func BenchmarkHubPublishFanoutDelta(b *testing.B) {
	h := NewHub(HubConfig{PayloadCap: DefaultPayloadCap})
	const fleet = 16
	var wg sync.WaitGroup
	for i := 0; i < fleet; i++ {
		_, sub, ok := h.subscribe(0, DefaultPayloadCap, InterestAll(), nil)
		if !ok {
			b.Fatal("subscribe failed")
		}
		wg.Add(1)
		go drainSub(h, sub, &wg)
		defer h.unsubscribe(sub)
	}
	base := bytes.Repeat([]byte("v"), 4096)
	body := append(append([]byte(nil), base...), []byte("tail")...)
	delta, ok := MakeDelta(base, body)
	if !ok {
		b.Fatal("no delta")
	}
	ev := Event{Kind: KindUpdate, Key: "/obj/path", Group: "g",
		Body: body, HasBody: true, Digest: DigestOf(body),
		BaseDigest: DigestOf(base), DeltaCodec: DeltaCodecBlock, DeltaBody: delta}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Publish(ev)
	}
	b.StopTimer()
	h.KillAll()
	wg.Wait()
}
