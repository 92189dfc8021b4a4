// Package push defines the origin-driven invalidation channel that turns
// the paper's pure-pull Δt/mutual-consistency machinery into a hybrid
// push–pull system. The paper's proxy learns about updates only by
// polling on its TTR schedule, so consistency costs poll traffic even
// when nothing changes; with a push channel the origin streams per-object
// update notifications and the proxy polls lazily, falling back to pure
// paper-mode polling the moment the channel degrades.
//
// The package has three parts:
//
//   - The wire protocol: one single-line event grammar (Event, Encode,
//     Decode) deliberately shaped for fuzzing — Decode accepts arbitrary
//     bytes and must never panic. Events are carried over an SSE-style
//     HTTP stream (text/event-stream). Every frame opens with the five
//     invalidation fields; optional trailing fields carry the object's
//     new body (base64-framed), a content digest, its content type, the
//     stream's negotiated payload cap (on hello frames), delta or chunk
//     state, and its Cache-Control, and a frame stops at its last
//     non-empty field.
//   - The Hub: the server half (hub.go) — one sequence space, a
//     byte-budgeted replay ring of whole frames, slow-subscriber
//     termination, per-subscriber lag accounting, deadline-bounded
//     frame writes, per-stream payload-cap negotiation, and mid-stream
//     Reset announcement. The origin's /events endpoint and every
//     relaying proxy's downstream endpoint are the same Hub.
//   - The Subscriber: a client that reads, decodes and applies the
//     stream in one loop on the goroutine that runs it, survives
//     disconnects with capped exponential backoff, resumes from the last
//     processed sequence number (moved only once the consumer's handler
//     has returned), detects dead connections via a heartbeat watchdog
//     that closes the body, skips oversized and malformed lines instead
//     of dying on them, and treats a mid-stream hello/Reset as a
//     reconnect-grade reconciliation without dropping the stream.
//
// Delivery semantics are at-least-once with ordered sequence numbers:
// the origin assigns every update event a monotonically increasing Seq,
// keeps a bounded replay buffer, and a reconnecting subscriber passes
// ?since=<seq> to receive the events it missed. When the gap exceeds the
// buffer the server's hello frame carries Reset=true, telling the
// consumer its view is no longer contiguous and it must revalidate by
// polling (the proxy runs its staleness-bounded catch-up sweep).
//
// Payload delivery is negotiated per stream: a subscriber passes
// ?maxpayload=<bytes>, the hub clamps it to its own cap and echoes the
// result on the hello frame, and any update whose body exceeds the
// stream's cap is degraded to an invalidation-only frame at write time —
// never dropped, never skipped. The degradation ladder is therefore
// value push → invalidation push → pure pull, each rung keeping the
// paper's Δ guarantee intact.
package push

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"errors"
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// MaxFrameLen bounds the encoded size of a frame's envelope — everything
// except the base64 payload field. Keys are URL paths; anything larger
// is hostile. The payload field is bounded separately by the negotiated
// per-stream cap (never above MaxPayloadCap).
const MaxFrameLen = 4096

// DefaultPayloadCap is the per-stream payload size (pre-base64 bytes) a
// hub or subscriber uses when payload delivery is enabled without an
// explicit cap.
const DefaultPayloadCap = 64 << 10

// MaxPayloadCap is the absolute payload ceiling any hub will negotiate;
// Decode rejects frames whose decoded payload exceeds it regardless of
// what a hostile stream claims was negotiated.
const MaxPayloadCap = 1 << 20

// maxPayloadFieldLen bounds the base64 payload field on the wire.
var maxPayloadFieldLen = base64.StdEncoding.EncodedLen(MaxPayloadCap)

// Kind discriminates event frames.
type Kind uint8

const (
	// KindHello is the first frame of every stream: Seq carries the
	// server's current (last assigned) sequence number, Reset reports
	// whether the requested resume point fell outside the replay buffer,
	// and PayloadCap carries the negotiated per-stream payload cap.
	KindHello Kind = 1
	// KindUpdate announces that the object at Key was modified at
	// ModTime. Seq is the event's position in the origin's stream. When
	// HasBody is set the frame also carries the object's new body.
	KindUpdate Kind = 2
	// KindHeartbeat is a liveness frame carrying the current Seq; it
	// lets subscribers distinguish a quiet origin from a dead connection.
	KindHeartbeat Kind = 3
)

// String names the kind for logs.
func (k Kind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindUpdate:
		return "update"
	case KindHeartbeat:
		return "heartbeat"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one frame of the invalidation stream.
type Event struct {
	// Kind discriminates the frame.
	Kind Kind
	// Seq is the origin-assigned sequence number. Update events carry
	// their own strictly increasing Seq; hello and heartbeat frames
	// carry the last assigned Seq at the time they were written.
	Seq uint64
	// Key is the object's path (plus query, if any) at the origin.
	// Meaningful for update events only.
	Key string
	// ModTime is the modification instant announced by an update event.
	ModTime time.Time
	// Reset is set on a hello frame when the subscriber's resume point
	// is older than the replay buffer: events were irrecoverably missed
	// and the consumer must revalidate by polling.
	Reset bool

	// Body is the object's new body, carried end to end so a consumer
	// can install the update without a confirmation poll. HasBody
	// distinguishes an empty body from no payload at all.
	Body    []byte
	HasBody bool
	// ContentType is the body's media type (payload frames only).
	ContentType string
	// Digest is the publisher-announced content digest of Body (see
	// DigestOf). A consumer verifies it before installing the body and
	// falls back to polling on mismatch; it is never verified at decode
	// time so a corrupt frame degrades to a poll instead of killing the
	// stream.
	Digest string
	// PayloadCap is the negotiated per-stream payload size in bytes,
	// echoed on hello frames (0 = the stream carries no payloads).
	PayloadCap uint64

	// BaseDigest, when set, marks Body as a delta rather than the full
	// body: it addresses the base body (by DigestOf) the delta was
	// computed against, DeltaCodec names the encoding, and Digest names
	// the RESULT of applying the delta — the terminal check a consumer
	// verifies before install. BaseDigest and DeltaCodec travel
	// together; Decode rejects one without the other.
	BaseDigest string
	DeltaCodec uint8
	// ChunkIndex and ChunkTotal mark one chunk of a body too large for
	// a single frame: chunk ChunkIndex of ChunkTotal (zero-based). All
	// chunks of one logical update share one Seq and ModTime, each
	// carries a contiguous slice of the body, and Digest names the
	// digest of the COMPLETE body — the terminal check a reassembling
	// consumer verifies. ChunkTotal 0 means unchunked.
	ChunkIndex, ChunkTotal uint32
	// CacheControl is the object's Cache-Control header (payload frames
	// only), so a consumer that installs the body without a poll learns a
	// changed consistency tolerance with the update that follows it.
	CacheControl string

	// DeltaBody is a publish-time sidecar, never encoded on the wire:
	// a publisher hands Publish the full Body plus, optionally, a
	// precomputed delta here (with BaseDigest/DeltaCodec describing
	// it), and the hub renders both forms — full frames carry Body,
	// the delta frame carries DeltaBody. Decode never populates it.
	DeltaBody []byte
}

// DigestOf returns the content digest announced with a payload: the
// first eight bytes of the body's SHA-256, hex-encoded. Collisions only
// cost a missed corruption (the consumer installs what the publisher
// hashed); sixteen characters keep the envelope small.
func DigestOf(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:8])
}

// StripPayload returns the event with its payload fields cleared: the
// degradation from a value-carrying frame to the invalidation-only
// frame every consumer understands. Key, sequence, and modification
// instant survive, so the Δ guarantee is untouched — the consumer
// confirms by polling instead of installing directly.
func (e Event) StripPayload() Event {
	e.Body = nil
	e.HasBody = false
	e.ContentType = ""
	e.Digest = ""
	e.BaseDigest = ""
	e.DeltaCodec = 0
	e.ChunkIndex = 0
	e.ChunkTotal = 0
	e.CacheControl = ""
	e.DeltaBody = nil
	return e
}

// Errors returned by Decode.
var (
	ErrFrameTooLong = errors.New("push: frame exceeds MaxFrameLen")
	ErrBadFrame     = errors.New("push: malformed frame")
)

// Encode renders the event as a single line of one grammar: five core
// fields, then optional fields in a fixed order.
//
//	<kind> <seq> <modtime-unixnano> <flags> <key> [<payload-b64> [<digest> [<ctype> [<cap> [<base> <codec> [<ci> <ct> [<cc>]]]]]]]
//
// Key, content type and Cache-Control are query-escaped so they can
// never contain the space separator; an empty text field encodes as "-",
// an empty number as "0". The payload is standard base64 ("-" when empty;
// the 'p' flag distinguishes an empty body from no payload). A frame
// never ends in an empty field: the optional fields stop at the last
// one the event sets, so a pure invalidation is the five core fields and
// an empty body is the 'p' flag with no payload field after it. The
// format is newline-free by construction, which is what lets one frame
// travel as one SSE data line.
func (e Event) Encode() string {
	bp := encodePool.Get().(*[]byte)
	b := e.appendWire((*bp)[:0], true)
	s := string(b)
	putEncodeBuf(bp, b)
	return s
}

// putEncodeBuf returns a grown scratch buffer to encodePool.
func putEncodeBuf(bp *[]byte, b []byte) {
	if cap(b) <= maxPooledEncodeBuf {
		*bp = b
		encodePool.Put(bp)
	}
}

// encodePool holds Encode's scratch buffers: the wire form is built
// with append-style renderers into a pooled buffer and copied out as
// one string, so the hot publish path (RenderLadder calls Encode for
// every ladder rung) costs one allocation per rendered form instead of
// fmt's boxing and formatting state.
var encodePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 256)
		return &b
	},
}

// maxPooledEncodeBuf bounds the buffers returned to encodePool; a
// near-MaxPayloadCap body's base64 would otherwise pin megabytes in
// the pool long after the burst that needed them.
const maxPooledEncodeBuf = 128 << 10

// appendWire appends the event's wire form (see Encode) to b. With
// payload unset it leaves the payload field's text out: what remains is
// the envelope, the one measure MaxFrameLen bounds.
func (e Event) appendWire(b []byte, payload bool) []byte {
	var mod int64
	if !e.ModTime.IsZero() {
		mod = e.ModTime.UnixNano()
	}
	b = strconv.AppendUint(b, uint64(e.Kind), 10)
	b = strconv.AppendUint(append(b, ' '), e.Seq, 10)
	b = strconv.AppendInt(append(b, ' '), mod, 10)
	b = append(b, ' ')
	switch {
	case e.Reset && e.HasBody:
		b = append(b, "rp"...)
	case e.Reset:
		b = append(b, 'r')
	case e.HasBody:
		b = append(b, 'p')
	default:
		b = append(b, '-')
	}
	b = appendField(append(b, ' '), escapeField(e.Key))
	n := e.optionalFields()
	if n == 0 {
		return b
	}
	b = append(b, ' ')
	switch {
	case !payload:
	case e.HasBody && len(e.Body) > 0:
		b = base64.StdEncoding.AppendEncode(b, e.Body)
	default:
		b = append(b, '-')
	}
	if n >= 2 {
		b = appendField(append(b, ' '), e.Digest)
	}
	if n >= 3 {
		b = appendField(append(b, ' '), escapeField(e.ContentType))
	}
	if n >= 4 {
		b = strconv.AppendUint(append(b, ' '), e.PayloadCap, 10)
	}
	if n >= 6 {
		b = appendField(append(b, ' '), e.BaseDigest)
		b = strconv.AppendUint(append(b, ' '), uint64(e.DeltaCodec), 10)
	}
	if n >= 8 {
		b = strconv.AppendUint(append(b, ' '), uint64(e.ChunkIndex), 10)
		b = strconv.AppendUint(append(b, ' '), uint64(e.ChunkTotal), 10)
	}
	if n == 9 {
		b = appendField(append(b, ' '), escapeField(e.CacheControl))
	}
	return b
}

// optionalFields counts the fields the event's frame carries after the
// five core ones: every field up to the last one the event sets, with
// base and codec, and chunk index and total, counted as pairs. Zero
// with HasBody unset is an event with no payload state at all.
func (e Event) optionalFields() int {
	switch {
	case e.CacheControl != "":
		return 9
	case e.ChunkIndex != 0 || e.ChunkTotal != 0:
		return 8
	case e.BaseDigest != "" || e.DeltaCodec != 0:
		return 6
	case e.PayloadCap != 0:
		return 4
	case e.ContentType != "":
		return 3
	case e.Digest != "":
		return 2
	case e.HasBody && len(e.Body) > 0:
		return 1
	}
	return 0
}

// appendField appends a text field, "-" when it is empty.
func appendField(b []byte, s string) []byte {
	if s == "" {
		return append(b, '-')
	}
	return append(b, s...)
}

// RenderedEvent is one published event rendered to its canonical wire
// forms exactly once, at publish time. An update has a small, fixed set
// of spellings on the wire — the rungs of the delivery ladder:
//
//	delta    — the body as a delta against a base the receiver holds
//	chunks   — the full body split across bounded frames
//	full     — the body in one frame
//	stripped — the five core fields, the invalidation every consumer understands
//
// Which rung a given stream receives depends only on its negotiated
// payload cap and (for the delta) the digest it holds — so rendering
// every applicable form at publish makes delivery to any number of
// subscribers a byte-slice pick instead of a per-subscriber Encode.
// The decoded routing fields (Kind, Seq, Key, Reset) stay exported so
// interest filters and replay bookkeeping never have to re-parse what
// they just rendered.
type RenderedEvent struct {
	Kind  Kind
	Seq   uint64
	Key   string
	Reset bool

	// payloadLen is the byte length of the payload carried by the full
	// form, -1 when the event carries none (HasBody unset) — the
	// distinction the per-stream cap check needs, preserved across the
	// render exactly as Event.HasBody preserved it across the wire.
	payloadLen int
	// full and stripped are the two classic wire forms; for an event
	// with no payload state they are the same string rendered once.
	// full is empty when the body exceeded the hub's payload cap and
	// only chunked delivery can carry it.
	full     string
	stripped string

	// digest is the full body's digest — what a receiver holds after
	// installing this update by any payload rung — and mod the update's
	// modification instant (UnixNano, zero for a timeless event): the
	// version the hub records a stream as holding.
	digest string
	mod    int64
	// delta is the delta wire form (empty when the publisher
	// supplied no delta sidecar); baseDigest addresses the base it
	// applies to and deltaLen is its payload length for the cap check.
	delta      string
	baseDigest string
	deltaLen   int
	// chunks are the chunked wire forms of the full body, rendered
	// at chunkLen payload bytes per frame (the cap a stream must have
	// negotiated to receive them). Empty when the body fits the full
	// form for every possible cap or chunking is disabled on the hub.
	chunks   []string
	chunkLen int

	// cost is the event's replay-ring charge: the wire bytes of every
	// rendered form, all of which stay resident while the ring holds it.
	cost int64
}

// RenderLadder renders the event's full ladder of wire forms.
// chunkPayload, when positive, is the per-frame payload size chunked
// forms are rendered at: a body larger than chunkPayload additionally
// renders as a chunk set (bounded by MaxChunkTotal and
// MaxAssembledBody), so streams whose cap cannot carry the whole body
// can still receive it.
func RenderLadder(ev Event, chunkPayload int) RenderedEvent {
	return renderLadder(ev, chunkPayload, false)
}

// renderLadder is RenderLadder with the publish path's one extra
// decision: suppressFull skips the full form of a payload event whose
// body exceeds the hub's cap — no stream's negotiated cap could ever
// receive it, so rendering it (a base64 copy of the whole body) and
// holding it in the ring would spend bytes no subscriber can use. Delta
// and chunked forms still render; WireFor then degrades streams that
// can use neither to the stripped form.
func renderLadder(ev Event, chunkPayload int, suppressFull bool) RenderedEvent {
	re := RenderedEvent{
		Kind:       ev.Kind,
		Seq:        ev.Seq,
		Key:        ev.Key,
		Reset:      ev.Reset,
		payloadLen: -1,
		deltaLen:   -1,
	}
	if ev.HasBody {
		re.payloadLen = len(ev.Body)
	}
	if !ev.HasBody && ev.optionalFields() == 0 {
		// Pure invalidation state: the full and stripped forms are the
		// same line; render it once and share the backing.
		re.full = ev.Encode()
		re.stripped = re.full
		re.cost = int64(len(re.full))
		return re
	}
	re.digest = ev.Digest
	if !ev.ModTime.IsZero() {
		re.mod = ev.ModTime.UnixNano()
	}
	re.stripped = ev.StripPayload().Encode()
	re.cost = int64(len(re.stripped))

	if ev.HasBody && ev.BaseDigest != "" && ev.DeltaCodec != 0 && len(ev.DeltaBody) == 0 {
		// The body IS the delta (a decoded delta frame republished by a
		// relay whose own cache missed the base): there is no full body
		// to render, so the ladder is delta → stripped only.
		re.delta = ev.Encode()
		re.baseDigest = ev.BaseDigest
		re.deltaLen = len(ev.Body)
		re.payloadLen = -1
		re.cost += int64(len(re.delta))
		return re
	}

	// The full form carries the whole body: the delta sidecar describes a
	// sibling form, not this one, so it never rides the full spelling.
	fullEv := ev
	fullEv.BaseDigest, fullEv.DeltaCodec, fullEv.DeltaBody = "", 0, nil
	if !suppressFull {
		re.full = fullEv.Encode()
		re.cost += int64(len(re.full))
	}

	if ev.HasBody && len(ev.DeltaBody) > 0 && ev.BaseDigest != "" && ev.DeltaCodec != 0 {
		dEv := fullEv
		dEv.Body = ev.DeltaBody
		dEv.BaseDigest = ev.BaseDigest
		dEv.DeltaCodec = ev.DeltaCodec
		re.delta = dEv.Encode()
		re.baseDigest = ev.BaseDigest
		re.deltaLen = len(ev.DeltaBody)
		re.cost += int64(len(re.delta))
	}

	if chunkPayload > 0 && ev.HasBody && len(ev.Body) > chunkPayload &&
		len(ev.Body) <= MaxAssembledBody {
		n := (len(ev.Body) + chunkPayload - 1) / chunkPayload
		if n <= MaxChunkTotal {
			cEv := fullEv
			cEv.ChunkTotal = uint32(n)
			re.chunks = make([]string, 0, n)
			for i := 0; i < n; i++ {
				lo := i * chunkPayload
				hi := lo + chunkPayload
				if hi > len(ev.Body) {
					hi = len(ev.Body)
				}
				cEv.ChunkIndex = uint32(i)
				cEv.Body = ev.Body[lo:hi]
				frame := cEv.Encode()
				re.chunks = append(re.chunks, frame)
				re.cost += int64(len(frame))
			}
			re.chunkLen = chunkPayload
		}
	}
	return re
}

// Full returns the payload-carrying wire form (identical to Stripped
// when the event carries no payload state; empty when suppressed).
func (re RenderedEvent) Full() string { return re.full }

// Stripped returns the invalidation-only wire form.
func (re RenderedEvent) Stripped() string { return re.stripped }

// Delta returns the delta wire form ("" when the event has none)
// and the base digest it applies against.
func (re RenderedEvent) Delta() (frame, baseDigest string) { return re.delta, re.baseDigest }

// Chunks returns the chunked wire forms (nil when the event has none)
// and the per-frame payload size a stream must accept to receive them.
func (re RenderedEvent) Chunks() (frames []string, chunkPayload int) {
	return re.chunks, re.chunkLen
}

// Digest returns the full body's digest ("" for non-payload events):
// what a receiver holds after installing this update.
func (re RenderedEvent) Digest() string { return re.digest }

// WireFor picks the wire form for a stream with the given negotiated
// payload cap: the stripped form when the event carries a payload the
// cap cannot (including cap 0 — a stream that negotiated no payloads
// cannot parse a 'p'-flagged frame even for an empty body), the full
// form otherwise. Byte-identical to what per-subscriber
// StripPayload-then-Encode produced before rendering moved to publish
// time. Delta and chunk selection live in the hub's serve loop, which
// needs per-subscriber held-digest state WireFor deliberately knows
// nothing about.
func (re RenderedEvent) WireFor(payloadCap int) string {
	if re.full == "" || (re.payloadLen >= 0 && (payloadCap <= 0 || re.payloadLen > payloadCap)) {
		return re.stripped
	}
	return re.full
}

// renderedHello renders the hello frame opening (or, with reset,
// resynchronizing) a stream.
func renderedHello(seq, payloadCap uint64, reset bool) RenderedEvent {
	return RenderLadder(Event{Kind: KindHello, Seq: seq, PayloadCap: payloadCap, Reset: reset}, 0)
}

// escapeField query-escapes a key, content type or Cache-Control for the
// wire. A literal "-" survives QueryEscape unchanged but collides with the
// empty-field sentinel, so it is forced into escaped form (QueryEscape
// itself never emits "%2D", so decoding stays unambiguous).
func escapeField(s string) string {
	esc := url.QueryEscape(s)
	if esc == "-" {
		return "%2D"
	}
	return esc
}

// Oversized reports whether the event's envelope — its frame minus the
// payload field's text, exactly what Decode measures — exceeds
// MaxFrameLen. An oversized update must never enter a stream or replay
// buffer — subscribers reject such frames, so one poisonous buffered
// frame would livelock every reconnect — and a proxy caching an object
// whose key cannot ride the channel must keep pure-polling freshness
// for it (no TTR stretch) because its updates will never be announced.
// The payload is bounded separately by the negotiated per-stream cap,
// never by this check.
//
// One measure covers every frame the event can emit as: the stripped
// form is never longer than the envelope it was stripped from, and the
// delta form shares the envelope of an event carrying its sidecar.
func (e Event) Oversized() bool {
	bp := encodePool.Get().(*[]byte)
	b := e.appendWire((*bp)[:0], false)
	putEncodeBuf(bp, b)
	return len(b) > MaxFrameLen
}

// absentFields spells each field a frame leaves off at its end, so
// Decode parses every frame at full width.
var absentFields = [14]string{5: "-", 6: "-", 7: "-", 8: "0", 9: "-", 10: "0", 11: "0", 12: "0", 13: "-"}

// Decode parses a frame produced by Encode. It never panics on malformed
// input: any deviation from the format yields an error. The ModTime of a
// frame encoding nanos 0 is the zero time. Digest mismatches are NOT
// detected here — integrity is the consumer's decision (it degrades to
// a poll), not a framing error.
//
// Beyond the field syntax Decode enforces two rules. A frame carries
// exactly the fields its event's canonical spelling does, so it never
// ends in an empty field and every event has one spelling. And the
// decoded event's CANONICAL envelope fits the wire limit: fields
// carrying raw characters that escaping expands (a newline is one byte
// on a hostile wire, three re-encoded) can decode to an event whose
// canonical form is over the limit, and everything accepted here may be
// re-encoded, by a relay republishing it or by the round-trip
// invariant. Escaping expands a byte to at most three, so that re-encode
// is only paid for wire envelopes that could possibly overflow
// (> MaxFrameLen/3); ordinary frames skip it.
//
// Every hello of the retired grammar whose sixth core field was the
// object's group is refused too: that field is empty on a hello, so the
// frame either ends in an empty field or carries text where the payload
// cap's number belongs. A subscriber never gets past the hello of a
// peer still speaking it, and falls back to polling.
func Decode(s string) (Event, error) {
	if len(s) > MaxFrameLen+maxPayloadFieldLen+1 {
		return Event{}, ErrFrameTooLong
	}
	fields := strings.SplitN(s, " ", len(absentFields)+1)
	if len(fields) < 5 || len(fields) > len(absentFields) {
		return Event{}, fmt.Errorf("%w: %d fields", ErrBadFrame, len(fields))
	}
	envelope := len(s)
	if len(fields) > 5 {
		if len(fields[5]) > maxPayloadFieldLen {
			return Event{}, ErrFrameTooLong
		}
		envelope -= len(fields[5])
	}
	if envelope > MaxFrameLen {
		return Event{}, ErrFrameTooLong
	}
	w := absentFields
	copy(w[:], fields)
	e, err := decodeFields(&w)
	if err != nil {
		return Event{}, err
	}
	if want := 5 + e.optionalFields(); len(fields) != want {
		return Event{}, fmt.Errorf("%w: %d fields for an event spelled in %d (a frame never ends in an empty field)",
			ErrBadFrame, len(fields), want)
	}
	if envelope > MaxFrameLen/3 && e.Oversized() {
		return Event{}, ErrFrameTooLong
	}
	return e, nil
}

// decodeFields parses a frame's fields, the absent ones at their empty
// spelling, by position.
func decodeFields(w *[14]string) (Event, error) {
	var e Event
	kind, err := strconv.ParseUint(w[0], 10, 8)
	if err != nil {
		return Event{}, fmt.Errorf("%w: bad kind %q", ErrBadFrame, w[0])
	}
	switch Kind(kind) {
	case KindHello, KindUpdate, KindHeartbeat:
		e.Kind = Kind(kind)
	default:
		return Event{}, fmt.Errorf("%w: unknown kind %d", ErrBadFrame, kind)
	}
	if e.Seq, err = strconv.ParseUint(w[1], 10, 64); err != nil {
		return Event{}, fmt.Errorf("%w: bad seq %q", ErrBadFrame, w[1])
	}
	nanos, err := strconv.ParseInt(w[2], 10, 64)
	if err != nil {
		return Event{}, fmt.Errorf("%w: bad modtime %q", ErrBadFrame, w[2])
	}
	if nanos != 0 {
		e.ModTime = time.Unix(0, nanos)
	}
	switch w[3] {
	case "-":
	case "r":
		e.Reset = true
	case "p":
		e.HasBody = true
	case "rp":
		e.Reset = true
		e.HasBody = true
	default:
		return Event{}, fmt.Errorf("%w: bad flags %q", ErrBadFrame, w[3])
	}
	if w[4] != "-" {
		if e.Key, err = url.QueryUnescape(w[4]); err != nil {
			return Event{}, fmt.Errorf("%w: bad key %q", ErrBadFrame, w[4])
		}
	}
	switch payload := w[5]; {
	case payload == "-":
		if e.HasBody {
			e.Body = []byte{}
		}
	case !e.HasBody:
		return Event{}, fmt.Errorf("%w: payload without the p flag", ErrBadFrame)
	default:
		if e.Body, err = base64.StdEncoding.DecodeString(payload); err != nil {
			return Event{}, fmt.Errorf("%w: bad payload base64", ErrBadFrame)
		}
		if len(e.Body) > MaxPayloadCap {
			return Event{}, ErrFrameTooLong
		}
	}
	if w[6] != "-" {
		if !isHexDigest(w[6]) {
			return Event{}, fmt.Errorf("%w: bad digest %q", ErrBadFrame, w[6])
		}
		e.Digest = w[6]
	}
	if w[7] != "-" {
		if e.ContentType, err = url.QueryUnescape(w[7]); err != nil {
			return Event{}, fmt.Errorf("%w: bad content type %q", ErrBadFrame, w[7])
		}
	}
	if e.PayloadCap, err = strconv.ParseUint(w[8], 10, 64); err != nil {
		return Event{}, fmt.Errorf("%w: bad payload cap %q", ErrBadFrame, w[8])
	}
	if w[9] != "-" {
		if !isHexDigest(w[9]) {
			return Event{}, fmt.Errorf("%w: bad base digest %q", ErrBadFrame, w[9])
		}
		e.BaseDigest = w[9]
	}
	codec, err := strconv.ParseUint(w[10], 10, 8)
	if err != nil {
		return Event{}, fmt.Errorf("%w: bad delta codec %q", ErrBadFrame, w[10])
	}
	ci, err := strconv.ParseUint(w[11], 10, 32)
	if err != nil {
		return Event{}, fmt.Errorf("%w: bad chunk index %q", ErrBadFrame, w[11])
	}
	ct, err := strconv.ParseUint(w[12], 10, 32)
	if err != nil {
		return Event{}, fmt.Errorf("%w: bad chunk total %q", ErrBadFrame, w[12])
	}
	e.DeltaCodec, e.ChunkIndex, e.ChunkTotal = uint8(codec), uint32(ci), uint32(ct)
	if w[13] != "-" {
		if e.CacheControl, err = url.QueryUnescape(w[13]); err != nil {
			return Event{}, fmt.Errorf("%w: bad cache-control %q", ErrBadFrame, w[13])
		}
	}
	if err := validateLadderFields(e); err != nil {
		return Event{}, err
	}

	// Escaped fields round-trip through QueryUnescape, but an unescaped
	// space or newline smuggled through %-encoding is fine — the field
	// boundary was already fixed by the split above. What must not pass
	// is an empty key masquerading as present.
	if e.Kind == KindUpdate && e.Key == "" {
		return Event{}, fmt.Errorf("%w: update without key", ErrBadFrame)
	}
	return e, nil
}

// validateLadderFields enforces the structural rules of the delta and
// chunk fields (trivially true for an event that sets none): base digest and codec travel together, a delta or
// chunk is always a payload-carrying update, a chunk index sits inside
// a bounded chunk total, and delta and chunk state never combine on
// one frame.
func validateLadderFields(e Event) error {
	if (e.BaseDigest != "") != (e.DeltaCodec != 0) {
		return fmt.Errorf("%w: delta base and codec must travel together", ErrBadFrame)
	}
	if e.BaseDigest != "" {
		if !e.HasBody {
			return fmt.Errorf("%w: delta frame without payload", ErrBadFrame)
		}
		if e.Kind != KindUpdate {
			return fmt.Errorf("%w: delta on a non-update frame", ErrBadFrame)
		}
		if e.ChunkIndex != 0 || e.ChunkTotal != 0 {
			return fmt.Errorf("%w: delta and chunk state on one frame", ErrBadFrame)
		}
	}
	if e.ChunkIndex != 0 && e.ChunkTotal == 0 {
		return fmt.Errorf("%w: chunk index without chunk total", ErrBadFrame)
	}
	if e.ChunkTotal != 0 {
		if e.ChunkTotal > MaxChunkTotal {
			return fmt.Errorf("%w: chunk total %d exceeds %d", ErrBadFrame, e.ChunkTotal, MaxChunkTotal)
		}
		if e.ChunkIndex >= e.ChunkTotal {
			return fmt.Errorf("%w: chunk index %d outside total %d", ErrBadFrame, e.ChunkIndex, e.ChunkTotal)
		}
		if !e.HasBody {
			return fmt.Errorf("%w: chunk frame without payload", ErrBadFrame)
		}
		if e.Kind != KindUpdate {
			return fmt.Errorf("%w: chunk on a non-update frame", ErrBadFrame)
		}
	}
	return nil
}

// validWireDigest reports whether a publisher-supplied digest can ride
// the wire: absent, or hex as DigestOf emits. Anything else would make
// Encode produce a frame Decode rejects — which must never enter a
// replay ring — so the hub strips such digests at publish time.
func validWireDigest(s string) bool {
	return s == "" || isHexDigest(s)
}

// isHexDigest reports whether s is a plausible hex digest field (what
// DigestOf emits, bounded so a hostile frame cannot smuggle a monster
// field past the envelope check).
func isHexDigest(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') && (c < 'A' || c > 'F') {
			return false
		}
	}
	return true
}
