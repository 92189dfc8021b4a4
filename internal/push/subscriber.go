package push

import (
	"bufio"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SubscriberConfig parameterizes a Subscriber.
type SubscriberConfig struct {
	// URL is the event-stream endpoint (e.g. http://origin/events).
	// Required.
	URL string
	// Client performs the streaming requests. It must not carry a global
	// Timeout (that would kill a healthy long-lived stream); liveness is
	// enforced by HeartbeatTimeout instead. Defaults to a fresh client.
	Client *http.Client
	// OnEvent is invoked for every update event, in stream order, on the
	// goroutine running Run; the next frame is read only once it returns.
	// Required.
	OnEvent func(Event)
	// OnConnect is invoked after the server's hello frame on every
	// successful (re)connect. resumed reports whether the subscriber
	// asked to resume from a previous position; hello.Reset reports
	// whether the server could not replay the gap. It is also invoked
	// (with resumed=true) for a mid-stream hello carrying Reset — a
	// relaying upstream announcing a hole in its stream without
	// dropping the connection — so the consumer runs the same
	// reconciliation either way.
	OnConnect func(hello Event, resumed bool)
	// OnDisconnect is invoked when an established stream dies (never for
	// a connection attempt that failed outright, and never on context
	// cancellation).
	OnDisconnect func(err error)
	// OnFrameLoss is invoked (on the goroutine running Run) each time
	// an established stream's line is dropped instead of processed — an
	// oversized line, or a data line that fails to decode. The frame's
	// content is unknown, so the consumer must treat it as a potential
	// missed update or missed Reset: the proxy runs its staleness-
	// bounded catch-up sweep, keeping the Δ guarantee from silently
	// widening while the stream itself stays up.
	OnFrameLoss func()
	// BackoffMin and BackoffMax bound the exponential reconnect backoff.
	// Defaults: 100ms and 10s.
	BackoffMin, BackoffMax time.Duration
	// Interest, when set, is evaluated at every connection attempt and
	// declares the subscriber's interest set upstream (?prefix=
	// parameters): the server skips update frames outside it.
	// Nil declares interest in everything. A consumer whose interest
	// widened mid-stream calls Bounce to reconnect and re-declare.
	Interest func() InterestSet
	// Held, when set, is evaluated at every connection attempt and
	// declares the body digests this subscriber already holds
	// (repeatable ?held=<key>:<digest> parameters, capped server-side
	// at maxHeldTerms): the server may then open matching updates on
	// the delta rung — a delta against the held body instead of the
	// full payload. Purely an optimization.
	Held func() []HeldDigest
	// HeartbeatTimeout declares the stream dead when no frame (of any
	// kind) arrives for this long. It must exceed the server's heartbeat
	// interval. Defaults to 30s; negative disables the check.
	HeartbeatTimeout time.Duration
}

// Subscriber consumes an origin's invalidation stream, reconnecting with
// capped exponential backoff and resuming from the last processed
// sequence number. It asks for the gzip-coded stream and decodes it.
type Subscriber struct {
	cfg     SubscriberConfig
	lastSeq atomic.Uint64

	// lastFrame is the wall-clock instant (unix nanoseconds) the last
	// stream frame of any kind arrived; 0 before the first (see
	// SubscriberStats.LastFrameAt).
	lastFrame atomic.Int64

	// declared is the interest set sent with the current (or most
	// recent) connection attempt — what the upstream is actually
	// filtering by, as opposed to what Interest would return now.
	declared atomic.Pointer[InterestSet]
	// bounceMu guards bounceFn, the cancel function of the in-flight
	// connection attempt; Bounce calls it to force a reconnect (which
	// re-evaluates Interest) without cancelling the subscriber itself.
	bounceMu sync.Mutex
	bounceFn context.CancelFunc

	// The counters Stats snapshots (see SubscriberStats).
	connects, disconnects, resets, skipped, overCap, bounces atomic.Uint64
	chunksAssembled, chunksBroken                            atomic.Uint64
}

// HeldDigest names one body a subscriber holds: the object's key and
// the DigestOf of the body. See SubscriberConfig.Held.
type HeldDigest struct {
	Key    string
	Digest string
}

// NewSubscriber validates cfg and returns a subscriber. Call Run to
// start consuming.
func NewSubscriber(cfg SubscriberConfig) (*Subscriber, error) {
	if cfg.URL == "" {
		return nil, errors.New("push: SubscriberConfig.URL is required")
	}
	if cfg.OnEvent == nil {
		return nil, errors.New("push: SubscriberConfig.OnEvent is required")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.BackoffMin <= 0 {
		cfg.BackoffMin = 100 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 10 * time.Second
	}
	if cfg.BackoffMax < cfg.BackoffMin {
		cfg.BackoffMax = cfg.BackoffMin
	}
	if cfg.HeartbeatTimeout == 0 {
		cfg.HeartbeatTimeout = 30 * time.Second
	}
	return &Subscriber{cfg: cfg}, nil
}

// LastSeq returns the stream position processed so far: the last update
// whose OnEvent has returned, moved past filtered frames by heartbeats
// and to the head by a fresh or Reset hello (0 before the first
// connect).
func (s *Subscriber) LastSeq() uint64 { return s.lastSeq.Load() }

// HeartbeatTimeout returns the resolved watchdog interval (the
// configured value with defaults applied; <= 0 means disabled).
func (s *Subscriber) HeartbeatTimeout() time.Duration { return s.cfg.HeartbeatTimeout }

// SubscriberStats is a snapshot of a Subscriber's counters.
type SubscriberStats struct {
	// Connects counts successfully established streams; Disconnects
	// counts established streams that died.
	Connects, Disconnects uint64
	// Resets counts mid-stream hello/Reset frames processed: each one is
	// an upstream announcing a hole in its stream content, and re-ran
	// the OnConnect reconciliation without dropping the connection.
	Resets uint64
	// SkippedFrames counts stream lines dropped without killing the
	// connection: lines exceeding the frame size limit, and
	// established-stream data lines that fail to decode. A hostile or
	// non-broadway upstream can emit either; reconnecting on them would
	// replay the same line from the upstream's ring and livelock, so
	// each is skipped in place (consumed to its newline).
	SkippedFrames uint64
	// OverCapPayloads counts update payloads stripped client-side for
	// exceeding DefaultPayloadCap. A broadway hub never writes one; a
	// non-zero count means the upstream ignored the cap, and the
	// affected updates were handled as plain invalidations (the consumer
	// polls to confirm).
	OverCapPayloads uint64
	// Bounces counts deliberate reconnects forced by Bounce.
	Bounces uint64
	// ChunksAssembled counts chunked bodies reassembled and delivered
	// whole to OnEvent; ChunksBroken counts chunk sets abandoned (hole,
	// out-of-order frame, oversized reassembly, terminal digest
	// mismatch), each degraded to a stripped invalidation, so the
	// consumer confirmed by polling.
	ChunksAssembled, ChunksBroken uint64
	// LastFrameAt is the wall-clock instant the last stream frame of any
	// kind (update, hello, heartbeat) arrived, zero before the first. A
	// connected stream whose LastFrameAt trails now by more than
	// HeartbeatTimeout is about to be declared dead by the watchdog.
	LastFrameAt time.Time
}

// Stats snapshots the subscriber's counters.
func (s *Subscriber) Stats() SubscriberStats {
	st := SubscriberStats{
		Connects:        s.connects.Load(),
		Disconnects:     s.disconnects.Load(),
		Resets:          s.resets.Load(),
		SkippedFrames:   s.skipped.Load(),
		OverCapPayloads: s.overCap.Load(),
		Bounces:         s.bounces.Load(),
		ChunksAssembled: s.chunksAssembled.Load(),
		ChunksBroken:    s.chunksBroken.Load(),
	}
	if n := s.lastFrame.Load(); n != 0 {
		st.LastFrameAt = time.Unix(0, n)
	}
	return st
}

// DeclaredInterest returns the interest set sent with the current (or
// most recent) connection attempt — what the upstream is actually
// filtering by. Before the first attempt it is match-all: nothing has
// been narrowed yet, so nothing can have been missed.
func (s *Subscriber) DeclaredInterest() InterestSet {
	if p := s.declared.Load(); p != nil {
		return *p
	}
	return InterestAll()
}

// Bounce terminates the in-flight connection attempt (if any) so Run
// reconnects, re-evaluating Interest and re-declaring it upstream. The
// consumer sees a full disconnect/reconnect cycle — OnDisconnect, then
// OnConnect — which is deliberate: a widened interest means frames
// matching the new terms may already have been filtered away upstream,
// and only the disconnect reconciliation (the consumer's catch-up
// sweep) bounds what that hole could hide. A no-op between attempts:
// the next connect re-evaluates Interest anyway.
func (s *Subscriber) Bounce() {
	s.bounceMu.Lock()
	fn := s.bounceFn
	s.bounceMu.Unlock()
	if fn != nil {
		s.bounces.Add(1)
		fn()
	}
}

// Run consumes the stream until ctx is cancelled, reconnecting on every
// failure with capped exponential backoff. The backoff resets only
// after a stream that proved stable (lived at least BackoffMax): a
// hello followed by an immediate death — an intermediary that answers
// but cannot stream, a crash-looping origin — must climb the ladder
// like any other failure, not hammer the origin at BackoffMin forever
// (each such flap also costs the consumer a disconnect reconciliation).
// Run blocks; run it on its own goroutine.
func (s *Subscriber) Run(ctx context.Context) {
	backoff := s.cfg.BackoffMin
	for {
		start := time.Now()
		connected, err := s.stream(ctx)
		if ctx.Err() != nil {
			return
		}
		if connected {
			s.disconnects.Add(1)
			if s.cfg.OnDisconnect != nil {
				s.cfg.OnDisconnect(err)
			}
			if time.Since(start) >= s.cfg.BackoffMax {
				backoff = s.cfg.BackoffMin
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > s.cfg.BackoffMax {
			backoff = s.cfg.BackoffMax
		}
	}
}

// maxLineLen bounds a stream line: the envelope plus the payload field of
// the largest payload a frame carries, every byte of it escaped (twice
// its length). Anything longer is either hostile or a protocol violation
// and is skipped in place.
const maxLineLen = MaxFrameLen + 64 + 2*DefaultPayloadCap

// readFrameLine reads one newline-terminated line of at most limit
// bytes from br. A longer line is consumed through its newline and
// reported skipped=true with no content: the caller loses only that
// line, never the stream's framing. The final newline (and a preceding
// carriage return) are stripped from returned lines.
func readFrameLine(br *bufio.Reader, limit int) (line string, skipped bool, err error) {
	var buf []byte
	over := false
	for {
		chunk, err := br.ReadSlice('\n')
		if !over {
			buf = append(buf, chunk...)
			if len(buf) > limit+1 { // +1: the newline itself is not frame data
				over, buf = true, nil
			}
		}
		switch err {
		case nil:
			if over {
				return "", true, nil
			}
			return strings.TrimRight(string(buf), "\r\n"), false, nil
		case bufio.ErrBufferFull:
			continue
		default:
			// EOF or a transport error; a partial final line (no
			// newline) dies with the stream either way.
			return "", over, err
		}
	}
}

// chunkAssembly is the single-slot reassembly buffer for chunked
// updates. One slot suffices: the server writes a chunk set
// contiguously on the stream, so an interleaved frame is itself proof
// the set is broken.
type chunkAssembly struct {
	active bool
	// ev is the first chunk's event — the update's identity (key,
	// seq, modtime, digest, chunk total) with the body dropped.
	ev   Event
	next uint32
	buf  []byte
}

// assembleUpdate routes one decoded update through the chunk
// reassembler and returns the events to hand the consumer, in order:
// possibly a stripped event for an assembly this frame proved broken,
// then the current delivery. A mid-set chunk returns nothing — the
// update is delivered (and the resume position advanced) only by its
// terminal chunk, so a disconnect mid-set replays the whole set.
func (s *Subscriber) assembleUpdate(asm *chunkAssembly, ev Event) []Event {
	var out []Event
	if ev.ChunkTotal == 0 {
		if asm.active {
			out = append(out, s.abandonAssembly(asm))
		}
		return append(out, ev)
	}
	if asm.active && (ev.Seq != asm.ev.Seq || ev.Key != asm.ev.Key ||
		ev.Digest != asm.ev.Digest || ev.ChunkTotal != asm.ev.ChunkTotal ||
		ev.ChunkIndex != asm.next) {
		out = append(out, s.abandonAssembly(asm))
	}
	if !asm.active {
		if ev.ChunkIndex != 0 {
			// Joining mid-set (the opening chunks were lost): nothing to
			// assemble against — degrade this update to an invalidation.
			s.chunksBroken.Add(1)
			return append(out, ev.StripPayload())
		}
		asm.active = true
		asm.ev = ev
		asm.ev.Body = nil
		asm.next = 0
		asm.buf = asm.buf[:0]
	}
	if len(asm.buf)+len(ev.Body) > MaxAssembledBody {
		out = append(out, s.abandonAssembly(asm))
		return out
	}
	asm.buf = append(asm.buf, ev.Body...)
	asm.next++
	if asm.next < ev.ChunkTotal {
		return out
	}
	// Terminal chunk: the digest every chunk carried names the complete
	// body — the end-to-end check that catches both corruption and a
	// mis-framed set.
	full := asm.ev
	body := asm.buf
	asm.active, asm.buf = false, nil
	if DigestOf(body) != full.Digest {
		s.chunksBroken.Add(1)
		return append(out, full.StripPayload())
	}
	full.Body = body
	full.HasBody = true
	full.ChunkIndex, full.ChunkTotal = 0, 0
	s.chunksAssembled.Add(1)
	return append(out, full)
}

// abandonAssembly drops the in-flight chunk set and returns its update
// as a stripped invalidation: the consumer confirms by polling — the
// established degradation, never a dropped update.
func (s *Subscriber) abandonAssembly(asm *chunkAssembly) Event {
	s.chunksBroken.Add(1)
	st := asm.ev.StripPayload()
	asm.active, asm.buf = false, nil
	return st
}

// stream performs one connection attempt and consumes it until it dies.
// connected reports whether the hello frame was received (and OnConnect
// invoked); err is the reason the stream ended.
func (s *Subscriber) stream(ctx context.Context) (connected bool, err error) {
	// The attempt gets its own cancellation so Bounce can kill just this
	// stream (forcing a reconnect that re-declares interest) without
	// touching the subscriber's own context.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	s.bounceMu.Lock()
	s.bounceFn = cancel
	s.bounceMu.Unlock()

	u := s.cfg.URL
	since := s.lastSeq.Load()
	addQuery := func(kv string) {
		sep := "?"
		if strings.Contains(u, "?") {
			sep = "&"
		}
		u += sep + kv
	}
	addParam := func(k string, v uint64) {
		addQuery(fmt.Sprintf("%s=%d", k, v))
	}
	if since > 0 {
		addParam("since", since)
	}
	interest := InterestAll()
	if s.cfg.Interest != nil {
		interest = s.cfg.Interest()
		if interest.IsEmpty() {
			// The wire cannot ask for nothing (an empty set encodes as no
			// constraints — fail open), so the declaration must record
			// what the upstream will actually deliver: everything. A
			// consumer comparing coverage against DeclaredInterest then
			// sees the truth, not a narrower set nobody is filtering by.
			interest = InterestAll()
		}
	}
	// Publish the declaration BEFORE the request goes out: by the time
	// the stream is established (and any consumer starts trusting push
	// coverage), DeclaredInterest already reports what this attempt
	// asked for — never a stale, wider set.
	s.declared.Store(&interest)
	if q := interest.EncodeQuery(); q != "" {
		addQuery(q)
	}
	if s.cfg.Held != nil {
		// Advertise held digests so the server can open on the delta
		// rung. Malformed terms are dropped here for the same reason the
		// server ignores them: held state is an optimization, and a bad
		// term must cost a full payload, not the connection.
		for i, hd := range s.cfg.Held() {
			if i >= maxHeldTerms {
				break
			}
			if hd.Key == "" || !isHexDigest(hd.Digest) {
				continue
			}
			addQuery("held=" + url.QueryEscape(hd.Key+":"+hd.Digest))
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return false, err
	}
	req.Header.Set("Accept", "text/event-stream")
	// Asked for here, not left to the Transport: an http.Transport
	// decodes only what it asked for itself, and no other RoundTripper
	// asks at all. The stream's coding is this code's to read either way.
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := s.cfg.Client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return false, fmt.Errorf("push: event stream returned %s", resp.Status)
	}

	// The stream is read, decoded and applied on this goroutine, in one
	// loop. Two things end a Read blocked on a silent or abandoned
	// stream, by closing the body, which fails the Read whatever
	// RoundTripper carried the request: the attempt's context ending
	// (Bounce, or the caller's cancel), and the heartbeat watchdog,
	// armed here and reset on every data line and every skipped line.
	defer context.AfterFunc(ctx, func() { resp.Body.Close() })()
	var silent atomic.Bool // the watchdog closed the body
	feedWatchdog := func() {}
	if s.cfg.HeartbeatTimeout > 0 {
		watchdog := time.AfterFunc(s.cfg.HeartbeatTimeout, func() {
			silent.Store(true)
			resp.Body.Close()
		})
		defer watchdog.Stop()
		feedWatchdog = func() { watchdog.Reset(s.cfg.HeartbeatTimeout) }
	}
	// ended names why a read failed: what closed the body, if anything
	// did, else the read's own error (io.EOF for a clean stream end).
	ended := func(err error) error {
		switch {
		case ctx.Err() != nil:
			return ctx.Err()
		case silent.Load():
			return fmt.Errorf("push: no frame within %v", s.cfg.HeartbeatTimeout)
		}
		return err
	}

	// A gzip stream is one member, read to its checksum: a format or
	// checksum error ends the stream like any transport error (the
	// reconnect resumes with ?since=), never as a skipped frame. The
	// reader is opened under the watchdog, because it blocks until the
	// member header arrives.
	var body io.Reader = resp.Body
	if resp.Header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(resp.Body)
		if err != nil {
			return false, ended(err)
		}
		zr.Multistream(false)
		body = zr
	}
	br := bufio.NewReaderSize(body, 4096)
	// asm is the chunk-reassembly slot; it dies with the stream (a set
	// split across connections replays whole, because non-terminal
	// chunks never advance the resume position).
	var asm chunkAssembly
	for {
		line, skipped, err := readFrameLine(br, maxLineLen)
		if err != nil {
			return connected, ended(err)
		}
		payload, isData := strings.CutPrefix(line, "data:")
		if !skipped && !isData {
			continue // SSE comment, id:, event:, or blank separator
		}
		s.lastFrame.Store(time.Now().UnixNano())
		feedWatchdog()
		if skipped {
			// An oversized line would have killed the stream under
			// bufio.Scanner (ErrTooLong), and the reconnect would replay
			// the same position and die on the same line forever — a
			// one-frame livelock against any upstream that does not
			// police its frame sizes. Drop just the line and keep the
			// stream's framing intact. Its content is unknown — possibly
			// an update or a Reset — so an established consumer must
			// reconcile (sweep) rather than stay confidently stretched
			// over it. Any chunk set in flight dies with it (the lost
			// line may have been one of its frames); the same sweep
			// reconciles that update.
			s.skipped.Add(1)
			asm.active, asm.buf = false, nil
			if connected && s.cfg.OnFrameLoss != nil {
				s.cfg.OnFrameLoss()
			}
			continue
		}
		// SSE drops one space after the field name, and only that: the
		// frame's last field may be a payload ending in bytes a wider
		// trim would take for white space.
		ev, decodeErr := Decode(strings.TrimPrefix(payload, " "))
		if decodeErr != nil {
			if !connected {
				// The very first frame must be a hello; a server whose
				// opening frame does not even decode is not speaking
				// this protocol — reconnect and say why.
				return false, decodeErr
			}
			// Mid-stream, a malformed data line cannot poison the
			// framing (SSE frames are self-delimiting lines), but
			// dropping the connection on it would: the reconnect
			// resumes from the same position, an upstream replaying
			// the frame from its ring serves it again, and the
			// subscriber livelocks on one line forever — the same
			// failure class as the oversized line above, reachable
			// through the payload-widened read limit (a 6KB malformed
			// line is under a 91KB limit but over the envelope bound).
			// Skip just the frame — and reconcile via OnFrameLoss,
			// because whatever it announced (an update, a Reset) is now
			// an unknown loss that must not hide behind stretched TTRs.
			s.skipped.Add(1)
			asm.active, asm.buf = false, nil
			if s.cfg.OnFrameLoss != nil {
				s.cfg.OnFrameLoss()
			}
			continue
		}
		if ev.HasBody && len(ev.Body) > DefaultPayloadCap {
			// The upstream ignored the cap: degrade the frame to the
			// invalidation it should have been — the consumer confirms
			// by polling, the stream survives.
			ev = ev.StripPayload()
			s.overCap.Add(1)
		}
		switch {
		case !connected:
			if ev.Kind != KindHello {
				return false, fmt.Errorf("push: first frame was %v, want hello", ev.Kind)
			}
			connected = true
			s.connects.Add(1)
			if ev.Reset || since == 0 {
				// Adopt the server's position: a fresh stream starts at
				// the head, so a cut before its first frame resumes from
				// there; a Reset's gap is unrecoverable, so the next
				// reconnect must not re-request (and re-Reset on) the
				// same stale seq — the consumer reconciles the loss
				// once, via OnConnect. A resumed hello's replay follows.
				s.lastSeq.Store(ev.Seq)
			}
			if s.cfg.OnConnect != nil {
				s.cfg.OnConnect(ev, since > 0)
			}
		case ev.Kind == KindUpdate:
			// The position moves only once OnEvent has returned, so a
			// reader of LastSeq never sees an event as processed before
			// the consumer has taken it in.
			for _, out := range s.assembleUpdate(&asm, ev) {
				s.cfg.OnEvent(out)
				s.lastSeq.Store(out.Seq)
			}
		case ev.Kind == KindHello && ev.Reset:
			// A mid-stream Reset: a relaying upstream lost ITS
			// upstream, so this stream's content has a hole even
			// though the connection never dropped. Fast-forward the
			// resume point and re-run the connect reconciliation
			// (the consumer's fallback sweep) exactly as for a
			// Reset at connect time — swallowing it as a heartbeat
			// would leave the consumer confidently stretched over
			// events that no longer exist.
			s.resets.Add(1)
			asm.active, asm.buf = false, nil
			s.lastSeq.Store(ev.Seq)
			if s.cfg.OnConnect != nil {
				s.cfg.OnConnect(ev, true)
			}
		case ev.Kind == KindHeartbeat && ev.Seq > s.lastSeq.Load():
			// Heartbeats carry the stream's per-subscriber position:
			// with interest filtering the upstream advances it past
			// frames it withheld, and adopting it (forward-only — a
			// regressing position is a confused upstream, never a
			// reason to re-request frames already processed) is what
			// keeps a filtered subscriber's resume point from drifting
			// behind holes it never wanted to hear.
			s.lastSeq.Store(ev.Seq)
		default:
			// Redundant non-Reset hellos only feed the watchdog.
		}
	}
}
