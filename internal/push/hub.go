package push

import (
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the server half of the invalidation channel: a reusable
// broadcast hub owning one sequence space. It started life inside
// internal/webserver (the origin's /events endpoint) and was extracted
// so a relaying proxy can run the exact same machinery downstream: the
// origin publishes into its hub, a parent proxy republishes into its
// own hub with its own sequence space, and leaf proxies subscribe to a
// parent exactly as a parent subscribes to the origin.
//
// The hub guarantees:
//
//   - Update events get monotonically increasing sequence numbers and
//     enter a replay ring bounded by count AND bytes (an event is charged
//     the wire bytes of every form it was rendered to), so a
//     reconnecting subscriber (?since=<seq>) receives exactly the events
//     it missed — payloads included, replayed faithfully. A retained
//     frame is whole (every rendered form, until the budgets prune it):
//     the ring is also the live delivery path, and the stream reading
//     it may hold no base for its delta.
//     The ring is PARTITIONED by key prefix: residency and replay walks
//     are charged per declared subtree, so a subscriber interested in
//     one narrow prefix holds and replays only that partition's frames,
//     and the byte budget trims the fattest partition first (a burst in
//     one subtree cannot evict another subtree's replay history).
//   - A subscriber too slow to drain its stream is terminated rather
//     than ever blocking the publisher's write path; it reconnects and
//     catches up from the replay ring.
//   - Publish does no per-subscriber work: subscribers PULL batches
//     from the partitioned ring under a read lock, and a publish wakes
//     waiters by closing one channel. Publish latency is therefore
//     independent of subscriber count and of any stalled serve loop.
//   - An event whose encoded envelope exceeds the wire limit is dropped
//     before it can enter the ring (one poisonous buffered frame would
//     otherwise kill every reconnecting stream at the same replay
//     position forever). A body over the payload cap (DefaultPayloadCap)
//     rides as a chunk set at the cap; one that cannot is NOT dropped:
//     it is degraded to an invalidation-only event at publish time, so
//     the hub can never emit a frame its own subscribers would have to
//     skip.
//   - Every stream is sent payloads, on the cheapest rung of the value
//     ladder the version it holds allows: a delta against it, the full
//     body, the chunk set, or the stripped announcement.
//   - A stream is sent a version's payload at most once: the hub tracks
//     the version (digest and modification instant) each stream holds
//     per key, and an update that repeats it goes out as the stripped
//     announcement alone (rung zero of the ladder) with the held digest
//     left standing, so a replayed frame, or a relay passing on an event
//     for a version it already published from its own poll, costs an
//     envelope and keeps the delta chain.
//   - Reset marks the stream's content as holed (the hub's owner lost
//     its own upstream): every live subscriber receives a mid-stream
//     hello/Reset frame, and any subscriber later resuming from at or
//     before the hole is told to Reset too (the replay ring cannot
//     prove contiguity across a hole it never saw).

// DefaultReplayLen bounds the events kept for reconnect catch-up.
const DefaultReplayLen = 1024

// DefaultReplayBytes bounds the wire bytes held by the replay ring,
// summed across partitions; over budget the fattest partition is
// trimmed first. An event is charged every form it was rendered to
// (RenderedEvent.cost: stripped, full, delta and chunk frames, payloads
// included), so a burst of fat updates trims the ring's history instead
// of growing the hub without bound; invalidation-only events cost only
// their envelope.
const DefaultReplayBytes = 8 << 20

// DefaultHeartbeat is the interval between keepalive frames.
const DefaultHeartbeat = 15 * time.Second

// DefaultWriteTimeout is the per-frame write deadline of served
// streams. A client that stops reading would otherwise pin its handler
// goroutine inside the frame write on kernel-buffer timescales, long
// after the hub terminated the subscription.
const DefaultWriteTimeout = 10 * time.Second

// DefaultSubscriberBuffer is the slow-consumer allowance: a subscriber
// whose stream position lags live publishes by more than this many
// sequence numbers is terminated (it reconnects and catches up from the
// replay ring). The effective allowance is also bounded by the ring
// itself — a subscriber whose next frame was pruned before it could be
// delivered is terminated regardless, since its stream can no longer be
// proven contiguous.
const DefaultSubscriberBuffer = 256

// maxRingPartitions bounds the replay ring's partition count; keys
// whose prefix would open a partition beyond the bound land in the
// catch-all partition instead (which every interest set treats as
// relevant, so overflow costs precision, never correctness).
const maxRingPartitions = 64

// slowScanEvery is the amortization stride of the slow-consumer scan:
// every N-th publish walks the registry for subscribers lagging past
// the buffer allowance. Between scans a slow subscriber costs the
// publisher nothing at all.
const slowScanEvery = 64

// fetchBatchLimit bounds the frames one ring walk hands a serve loop:
// it caps the read-lock hold time and the coalesced write size while
// letting a lagging subscriber catch up in few syscalls.
const fetchBatchLimit = 64

// HubConfig parameterizes a Hub. The zero value is usable. The payload
// cap, the replay ring's bounds, the write deadline and the
// slow-consumer allowance are DefaultPayloadCap and the Default
// constants above; this package's tests shrink them through the
// unexported fields, to chunk a body, overflow a ring or stall a writer
// in milliseconds.
type HubConfig struct {
	// Heartbeat is the keepalive interval of served streams. Defaults
	// to DefaultHeartbeat.
	Heartbeat time.Duration
	// Deprecated: ignored; every frame's payload is at most
	// DefaultPayloadCap.
	PayloadCap int
	// Deprecated: ignored; a body over DefaultPayloadCap is chunked at
	// it.
	ChunkPayload int
	// OnSubscribe, when set, is invoked from ServeHTTP for every stream
	// that successfully registers, with the interest set it declared. A
	// relaying proxy uses it to learn that a downstream subscriber wants
	// more than the relay's own upstream subscription currently covers
	// (and to widen it). Called outside the hub's lock.
	OnSubscribe func(InterestSet)

	payloadCap       int           // DefaultPayloadCap: one frame's largest payload, and the chunk size
	replayLen        int           // DefaultReplayLen
	replayBytes      int64         // DefaultReplayBytes
	writeTimeout     time.Duration // DefaultWriteTimeout
	subscriberBuffer int           // DefaultSubscriberBuffer
}

// ringPartition is one prefix's slice of the replay ring: the rendered
// update frames whose keys share the partition's prefix, in sequence
// order, plus the pruning high-water mark that decides resume holes for
// subscribers interested in this partition.
type ringPartition struct {
	name string // key prefix ("" is the catch-all partition)
	buf  []RenderedEvent
	// bytes is the partition's resident wire cost (the ring's byte
	// budget trims the fattest partition first).
	bytes int64
	// prunedTo is the highest sequence number ever trimmed from this
	// partition: a subscriber interested in it resuming from below
	// prunedTo has a genuine hole, while gaps made only of other
	// partitions' frames prove nothing was missed.
	prunedTo uint64
}

// PartitionName maps an update key to its ring partition: the key's
// first path segment including both slashes ("/news/politics/1" →
// "/news/"), the whole path when it has one segment ("/page" →
// "/page"), query stripped, and the catch-all "" for keys that are not
// rooted paths. The name is by construction a prefix of every key it
// claims, which is what makes interest-to-partition relevance sound:
// an interest prefix matching a key is always comparable (one a prefix
// of the other) with that key's partition name. A proxy declares its
// residents' interest by the same rule, so a declared prefix is always
// a partition name.
func PartitionName(key string) string {
	if len(key) == 0 || key[0] != '/' {
		return ""
	}
	if i := strings.IndexByte(key, '?'); i >= 0 {
		key = key[:i]
	}
	if i := strings.IndexByte(key[1:], '/'); i >= 0 {
		return key[:i+2]
	}
	return key
}

// relevantToPartition reports whether a partition can hold frames the
// set matches. The catch-all partition always can (its keys have no
// usable prefix). Otherwise the partition name and a term are both
// prefixes of any key they share, so they must be comparable — either
// direction of containment means the partition may hold matching keys.
func (s InterestSet) relevantToPartition(name string) bool {
	if s.all || name == "" {
		return true
	}
	for _, p := range s.prefixes {
		if strings.HasPrefix(name, p) || strings.HasPrefix(p, name) {
			return true
		}
	}
	return false
}

// Hub is a broadcast fan-out with one sequence space: events published
// into it stream to every subscriber over the SSE /events protocol.
// It is safe for concurrent use. The zero value is not usable; call
// NewHub.
type Hub struct {
	cfg HubConfig

	// active counts ServeHTTP handlers currently streaming (including
	// terminated ones that have not yet unwound — the gap between
	// Subscribers and ActiveStreams is write-pinned handlers).
	active atomic.Int64

	// filtered counts update frames withheld by interest filtering
	// (position advanced, frame never written); incremented from serve
	// loops, hence atomic.
	filtered atomic.Uint64

	// deltaFrames and chunkFrames count ladder deliveries: update
	// events written as a delta against the stream's held digest, and
	// update events written as chunk sets (counted once per event, not
	// per frame); incremented from serve loops, hence atomic.
	deltaFrames atomic.Uint64
	chunkFrames atomic.Uint64
	// duplicateFrames counts rung-zero deliveries: updates whose body the
	// stream already held, written as the stripped announcement only.
	duplicateFrames atomic.Uint64

	// streamRawBytes and streamBytes count what serve loops wrote: frame
	// bytes before content coding, and bytes on the wire after it.
	streamRawBytes atomic.Uint64
	streamBytes    atomic.Uint64

	// slowKills counts subscribers terminated for not draining —
	// incremented by the publish-side lag scan and by ring walks that
	// find the subscriber's next frame already pruned.
	slowKills atomic.Uint64

	// publishWait accumulates the nanoseconds publishers spent waiting
	// to acquire the ring lock — the contention a stalled serve loop or
	// a storm of replay walks would inflict on the publish path, and
	// the number the contended benchmark holds flat.
	publishWait atomic.Int64

	// mu guards the sequence space and the partitioned ring. Publish
	// and Reset take it exclusively; ring walks (fetch), subscribe's
	// hole check, and Stats share it. Subscriber delivery state lives
	// outside it entirely.
	mu          sync.RWMutex
	seq         uint64 // last assigned sequence number
	resetSeq    uint64 // hole barrier: resumes at or before it must Reset
	resets      uint64 // Reset announcements made; doubles as the reset generation
	parts       []*ringPartition
	partIdx     map[string]*ringPartition
	bufBytes    int64 // resident wire bytes across all partitions
	available   bool
	oversized   uint64 // events dropped because their envelope exceeds MaxFrameLen
	degraded    uint64 // payloads stripped at publish for exceeding the hub's cap
	resumeHoles uint64 // Reset hellos served to resuming subscribers
	pubCount    uint64 // publishes since birth, for the amortized slow scan
	// notify is the publish wake-up: closed and nilled by every publish
	// and Reset, lazily re-armed by the first serve loop that finds the
	// ring drained. Publishing never allocates for it.
	notify chan struct{}

	// subMu guards the subscriber registry. It is separate from mu so
	// connect/disconnect churn and the amortized slow-consumer scan never
	// contend with the ring lock; it nests inside mu (killAllLocked).
	subMu sync.Mutex
	subs  map[*hubSub]struct{}
}

// hubSub is one connected subscriber stream. Delivery state belongs to
// the serve goroutine; the hub only ever reads cursor (atomically) and
// closes done.
type hubSub struct {
	done chan struct{} // closed to terminate the stream server-side
	once sync.Once
	// interest is the stream's declared interest set: it prunes which
	// ring partitions the serve loop walks at all, and update frames
	// inside a walked partition that still fall outside it are skipped
	// (position advances, frame never written).
	interest InterestSet
	// cursor is the stream's position: the sequence number up to which
	// every frame has been written, skipped as uninteresting, or
	// jumped over as foreign-partition. Heartbeats carry it (so the
	// subscriber's resume point tracks it), Stats reads it for lag,
	// and the publish-side scan kills on it.
	cursor atomic.Uint64
	// resetGen is the hub reset generation this stream has seen; when
	// the hub's generation moves past it the serve loop owes the
	// stream a mid-stream hello/Reset frame. Serve-goroutine state.
	resetGen uint64
	// held maps object key → body version this stream is known to hold:
	// seeded from the connect-time ?held= declaration, advanced on
	// every payload-form delivery, left standing by a repeat of the
	// digest it already names (rung zero sends such a repeat stripped),
	// and dropped on any other delivery the stream must confirm by
	// polling (the hub then no longer knows what the poll installed).
	// It is what makes "a stream is sent a version's payload at most
	// once" a property of the hub. Touched ONLY by the stream's serve
	// goroutine, so it needs no lock; nil until something populates it,
	// so payload-free workloads never allocate it.
	held map[string]heldVersion
}

// heldVersion is what a stream is known to hold for one key: the body's
// digest, and the modification instant (UnixNano) of the update that
// delivered it — zero when unknown (a ?held= declaration names only the
// digest; a timeless event has none). The instant is what tells a repeat
// of a version already sent from a newer version with the same content.
type heldVersion struct {
	digest string
	mod    int64
}

func (s *hubSub) terminate() { s.once.Do(func() { close(s.done) }) }

// NewHub returns an available hub with an empty sequence space.
func NewHub(cfg HubConfig) *Hub {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = DefaultHeartbeat
	}
	if cfg.replayLen <= 0 {
		cfg.replayLen = DefaultReplayLen
	}
	if cfg.replayBytes <= 0 {
		cfg.replayBytes = DefaultReplayBytes
	}
	if cfg.writeTimeout <= 0 {
		cfg.writeTimeout = DefaultWriteTimeout
	}
	if cfg.payloadCap <= 0 {
		cfg.payloadCap = DefaultPayloadCap
	}
	if cfg.subscriberBuffer <= 0 {
		cfg.subscriberBuffer = DefaultSubscriberBuffer
	}
	h := &Hub{
		cfg:       cfg,
		partIdx:   make(map[string]*ringPartition),
		available: true,
		subs:      make(map[*hubSub]struct{}),
	}
	return h
}

// partitionLocked returns (creating if needed) the ring partition for
// name. Beyond maxRingPartitions new prefixes fold into the catch-all
// partition. Callers hold h.mu exclusively.
func (h *Hub) partitionLocked(name string) *ringPartition {
	if p := h.partIdx[name]; p != nil {
		return p
	}
	if name != "" && len(h.parts) >= maxRingPartitions {
		name = ""
		if p := h.partIdx[name]; p != nil {
			return p
		}
	}
	p := &ringPartition{name: name}
	h.partIdx[name] = p
	h.parts = append(h.parts, p)
	return p
}

// Publish assigns the next sequence number, buffers the event in its
// key's ring partition, and wakes every waiting serve loop, returning
// the assigned number. Publish does NO per-subscriber work: delivery is
// pulled by serve loops from the ring, so a stalled or slow consumer
// cannot block or even slow the publisher (it is terminated by the
// amortized lag scan instead, reconnects, and catches up from the
// ring).
//
// An event whose encoded envelope exceeds the wire limit is dropped
// before it can enter the ring: subscribers reject oversized frames, so
// one poisonous buffered frame would kill every reconnecting stream at
// the same replay position forever. The owning object simply goes
// unannounced (proxies keep pure-polling freshness for it). A body over
// the payload cap is different — the event still matters — so it rides
// as a chunk set at the cap, or, when it cannot, is degraded to an
// invalidation-only event: the hub never emits a frame its own
// subscribers must skip, and consumers confirm by polling (the next
// rung of the degradation ladder).
func (h *Hub) Publish(ev Event) uint64 {
	lockStart := time.Now()
	h.mu.Lock()
	if wait := time.Since(lockStart); wait > 0 {
		h.publishWait.Add(int64(wait))
	}
	in := ev
	// Chunk fields are a render-time artifact of THIS hub's chunk size:
	// they never survive republication (a consumer reassembles chunks
	// into one full-bodied event before handing it on).
	ev.ChunkIndex, ev.ChunkTotal = 0, 0
	if !validWireDigest(ev.Digest) {
		// A digest Encode cannot frame (spaces, non-hex) would produce a
		// ring-buffered frame every subscriber rejects — the poison-frame
		// livelock. The digest is advisory (consumers without it poll),
		// so dropping it is strictly safer than trusting the publisher.
		// With the digest gone the payload is uninstallable; strip it too
		// rather than ship bytes no consumer may use.
		ev = ev.StripPayload()
	}
	// Delta state must arrive whole — base digest and codec paired, the
	// base frameable, and (for a sidecar) a full-body digest to verify
	// the application against. Anything less drops to the next rung:
	// a sidecar is discarded (the full body still rides), a pure delta
	// body is stripped (undeliverable without its base).
	if ev.BaseDigest != "" || ev.DeltaCodec != 0 || len(ev.DeltaBody) > 0 {
		ok := ev.HasBody && ev.BaseDigest != "" && ev.DeltaCodec != 0 &&
			isHexDigest(ev.BaseDigest) && ev.Digest != "" && ev.Kind == KindUpdate
		if !ok {
			if len(ev.DeltaBody) > 0 {
				ev.BaseDigest, ev.DeltaCodec, ev.DeltaBody = "", 0, nil
			} else if ev.BaseDigest != "" || ev.DeltaCodec != 0 {
				ev = ev.StripPayload()
			}
		}
	}
	payloadCap := h.cfg.payloadCap
	suppressFull := false
	if ev.HasBody && len(ev.Body) > payloadCap {
		if h.chunkableLocked(ev, payloadCap) {
			// The body cannot ride one frame, but it can ride a chunk
			// set: keep it, suppress the (undeliverable) full form.
			suppressFull = true
		} else {
			ev = ev.StripPayload()
		}
	}
	if len(ev.DeltaBody) > payloadCap {
		// A delta over the cap no frame could carry; drop the sidecar,
		// the full/chunked forms still deliver.
		ev.BaseDigest, ev.DeltaCodec, ev.DeltaBody = "", 0, nil
	}
	if ev.Oversized() {
		// An envelope over the limit (fat content type, near-limit key)
		// may still fit as a bare invalidation — degrading keeps the
		// update announced; only an envelope that cannot fit either way
		// is dropped (and only then does Oversized count: a dropped event
		// is not also a degraded one).
		stripped := ev.StripPayload()
		if stripped.Oversized() {
			h.oversized++
			seq := h.seq
			h.mu.Unlock()
			return seq
		}
		ev = stripped
		suppressFull = false
	}
	if ev.HasBody != in.HasBody || ev.Digest != in.Digest || ev.ContentType != in.ContentType {
		h.degraded++
	}
	h.seq++
	ev.Seq = h.seq
	// The single Encode site of the publish path: every wire form is
	// rendered here, once, and every delivery — live fan-out now, replay
	// later — is a pre-rendered byte-slice pick.
	re := renderLadder(ev, payloadCap, suppressFull)
	part := h.partitionLocked(PartitionName(ev.Key))
	part.buf = append(part.buf, re)
	part.bytes += re.cost
	h.bufBytes += re.cost
	h.trimLocked()
	if h.notify != nil {
		close(h.notify)
		h.notify = nil
	}
	h.pubCount++
	scan := h.pubCount%slowScanEvery == 0
	seq := h.seq
	h.mu.Unlock()
	if scan {
		h.scanSlowSubscribers(seq)
	}
	return seq
}

// trimLocked enforces the ring budgets. The event-count bound drops the
// globally oldest frame (count is a hub-wide resource); the byte bound
// drops the oldest frame of the FATTEST partition, so a burst of heavy
// bodies in one subtree trims that subtree's own history instead of
// evicting a narrow subtree's replay window — ring residency tracks
// each subtree's traffic. Callers hold h.mu exclusively.
func (h *Hub) trimLocked() {
	totalLen := 0
	for _, p := range h.parts {
		totalLen += len(p.buf)
	}
	for totalLen > h.cfg.replayLen {
		var victim *ringPartition
		for _, p := range h.parts {
			if len(p.buf) == 0 {
				continue
			}
			if victim == nil || p.buf[0].Seq < victim.buf[0].Seq {
				victim = p
			}
		}
		if victim == nil {
			break
		}
		h.dropHeadLocked(victim)
		totalLen--
	}
	for h.bufBytes > h.cfg.replayBytes && totalLen > 1 {
		var victim *ringPartition
		for _, p := range h.parts {
			if len(p.buf) == 0 {
				continue
			}
			if victim == nil || p.bytes > victim.bytes {
				victim = p
			}
		}
		if victim == nil {
			break
		}
		h.dropHeadLocked(victim)
		totalLen--
	}
}

// dropHeadLocked prunes the partition's oldest frame, recording the
// pruning high-water mark that decides resume holes.
func (h *Hub) dropHeadLocked(p *ringPartition) {
	head := p.buf[0]
	p.bytes -= head.cost
	h.bufBytes -= head.cost
	if head.Seq > p.prunedTo {
		p.prunedTo = head.Seq
	}
	p.buf[0] = RenderedEvent{} // release the rendered forms
	p.buf = p.buf[1:]
}

// scanSlowSubscribers terminates every subscriber lagging past the
// buffer allowance. It runs every slowScanEvery-th publish, outside the
// ring lock, walking only the registry — the entire cost a slow or
// stalled consumer can ever impose on the publish path.
func (h *Hub) scanSlowSubscribers(seq uint64) {
	allow := uint64(h.cfg.subscriberBuffer)
	h.subMu.Lock()
	for s := range h.subs {
		if c := s.cursor.Load(); c < seq && seq-c > allow {
			s.terminate()
			delete(h.subs, s)
			h.slowKills.Add(1)
		}
	}
	h.subMu.Unlock()
}

// chunkableLocked reports whether ev's body, too large for a single
// frame, can ride a chunk set instead: the chunk count within bounds,
// and the per-chunk envelope (index/total fields
// at their widest) within the wire limit — a chunk frame the
// subscriber must reject would poison the stream for nothing.
func (h *Hub) chunkableLocked(ev Event, chunkPayload int) bool {
	if !ev.HasBody || ev.Kind != KindUpdate {
		return false
	}
	if len(ev.DeltaBody) == 0 && ev.BaseDigest != "" {
		return false // the body IS a delta; chunking it is meaningless
	}
	if ev.Digest == "" {
		return false // no terminal check — nothing could verify reassembly
	}
	if len(ev.Body) > MaxAssembledBody {
		return false
	}
	n := (len(ev.Body) + chunkPayload - 1) / chunkPayload
	if n > MaxChunkTotal {
		return false
	}
	probe := ev
	probe.Body = nil
	probe.DeltaBody = nil
	probe.BaseDigest, probe.DeltaCodec = "", 0
	probe.ChunkIndex, probe.ChunkTotal = MaxChunkTotal-1, MaxChunkTotal
	return !probe.Oversized()
}

// Reset announces a mid-stream resynchronization: the hub's owner lost
// its own upstream (a relaying proxy's parent stream died or came back
// with a Reset hello), so the content of this stream has a hole even
// though its sequence numbers stay contiguous. Every live subscriber
// receives a mid-stream hello/Reset frame — driving its fallback sweep
// without dropping the connection — and the hole instant is recorded so
// a subscriber that was disconnected across it is told to Reset when it
// resumes (the replay ring cannot prove contiguity across the hole).
func (h *Hub) Reset() {
	h.mu.Lock()
	h.resets++
	h.resetSeq = h.seq
	if h.notify != nil {
		close(h.notify)
		h.notify = nil
	}
	h.mu.Unlock()
}

// getNotify returns the channel the next publish (or Reset) will close.
// The channel is lazily re-armed here, by waiters, so the publish path
// itself never allocates to wake anyone. The protocol is sound because
// a serve loop always fetches AFTER obtaining the channel: a publish
// landing after that fetch closes either this exact channel or one
// armed after this one was already closed — either way the waiter
// wakes.
func (h *Hub) getNotify() <-chan struct{} {
	h.mu.RLock()
	ch := h.notify
	h.mu.RUnlock()
	if ch != nil {
		return ch
	}
	h.mu.Lock()
	if h.notify == nil {
		h.notify = make(chan struct{})
	}
	ch = h.notify
	h.mu.Unlock()
	return ch
}

// subscribe registers a stream resuming from since and returns its
// hello frame. interest is its declared filter,
// which also decides which ring partitions can hole its resume: a gap
// made only of frames in partitions the stream never declared is NOT a
// hole, while a pruned frame inside a declared partition forces a
// Reset. Replay is not materialized here — the serve loop pulls it
// from the ring through the same batch path live frames use.
func (h *Hub) subscribe(since uint64, interest InterestSet, held map[string]heldVersion) (hello RenderedEvent, sub *hubSub, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.available {
		return RenderedEvent{}, nil, false
	}
	reset := false
	switch {
	case since == 0:
		// A fresh subscriber has no state to reconcile.
	case since > h.seq:
		// The subscriber claims a future position (e.g. the hub's owner
		// restarted and its sequence space reset): resync from scratch.
		reset = true
	case since <= h.resetSeq:
		// The resume point predates (or is exactly) the last announced
		// hole: events were irrecoverably missed upstream of this hub,
		// so a contiguous replay of the hub's own ring proves nothing.
		reset = true
	default:
		// The ring must cover every RELEVANT partition back to the
		// resume point: a partition pruned past since has lost a frame
		// the stream may have needed, while prunes confined to foreign
		// partitions prove nothing was missed. (An interest-filtered
		// subscriber that kept up heard its position in every heartbeat,
		// so only a gap in REAL wall-clock disconnection lands here.)
		for _, p := range h.parts {
			if p.prunedTo > since && interest.relevantToPartition(p.name) {
				reset = true
				break
			}
		}
	}
	hello = renderedHello(h.seq, reset)
	if reset && since > 0 {
		h.resumeHoles++
	}
	sub = &hubSub{
		done:     make(chan struct{}),
		interest: interest,
		held:     held,
		resetGen: h.resets,
	}
	// Seed the stream position: a resuming subscriber replays from
	// since, everyone else (fresh, reset) is handed the stream head by
	// the hello frame.
	if reset || since == 0 {
		sub.cursor.Store(h.seq)
	} else {
		sub.cursor.Store(since)
	}
	h.subMu.Lock()
	h.subs[sub] = struct{}{}
	h.subMu.Unlock()
	return hello, sub, true
}

// fetch pulls the next batch of frames for sub from the partitioned
// ring, appending deliverable frames to dst (a caller-owned scratch
// slice, reused across calls). It walks only the partitions relevant to
// the stream's interest, merging them in sequence order, and returns:
// the batch; the walk boundary (the position the stream has now proven
// up to — foreign-partition and non-matching frames are jumped, not
// delivered); the reset generation after the batch (a pending hub
// Reset appends a mid-stream hello/Reset frame once the walk reaches
// the hole barrier); and killed, set when a relevant partition pruned
// past the stream's position while it was connected — the stream can
// no longer be proven contiguous and must reconnect (counted as a slow
// kill: only a subscriber outrun by the ring lands here).
func (h *Hub) fetch(sub *hubSub, dst []RenderedEvent) (batch []RenderedEvent, boundary uint64, gen uint64, killed bool) {
	cursor := sub.cursor.Load()
	gen = sub.resetGen
	h.mu.RLock()
	defer h.mu.RUnlock()
	limit := h.seq
	pendingReset := h.resets != gen
	if pendingReset && h.resetSeq < limit {
		// Frames past the hole barrier are delivered only after the
		// stream has been handed the mid-stream Reset, preserving wire
		// order around the hole announcement.
		limit = h.resetSeq
	}
	var rel [maxRingPartitions + 1]*ringPartition
	var idx [maxRingPartitions + 1]int
	n := 0
	for _, p := range h.parts {
		if !sub.interest.relevantToPartition(p.name) {
			continue
		}
		if !pendingReset && p.prunedTo > cursor {
			// The ring outran this stream mid-connection: a frame it may
			// have needed is gone, so its stream cannot be proven
			// contiguous. (Under a pending Reset the hole announcement
			// itself covers anything pruned at or before the barrier.)
			h.slowKills.Add(1)
			return dst, cursor, gen, true
		}
		if len(p.buf) == 0 || p.buf[len(p.buf)-1].Seq <= cursor {
			continue
		}
		if n < len(rel) {
			rel[n] = p
			idx[n] = sort.Search(len(p.buf), func(i int) bool { return p.buf[i].Seq > cursor })
			n++
		}
	}
	boundary = cursor
	for examined := 0; examined < fetchBatchLimit; examined++ {
		best := -1
		var bestSeq uint64
		for k := 0; k < n; k++ {
			if idx[k] >= len(rel[k].buf) {
				continue
			}
			if s := rel[k].buf[idx[k]].Seq; s <= limit && (best == -1 || s < bestSeq) {
				best, bestSeq = k, s
			}
		}
		if best == -1 {
			// Every relevant partition is drained up to the limit: the
			// remaining gap is foreign-partition frames, jumped whole.
			boundary = limit
			break
		}
		re := rel[best].buf[idx[best]]
		idx[best]++
		boundary = re.Seq
		if sub.interest.matchesFrame(re) {
			dst = append(dst, re)
		}
	}
	if pendingReset && boundary == limit {
		dst = append(dst, renderedHello(h.resetSeq, true))
		gen = h.resets
	}
	return dst, boundary, gen, false
}

// maxHeldTerms bounds the connect-time ?held= declaration, mirroring
// maxInterestTerms: beyond it a hostile client is just burning its own
// delta eligibility.
const maxHeldTerms = 64

// parseHeld decodes the repeatable ?held=<key>:<digest> connect
// parameters into the stream's initial held-digest map. Each value is
// an object key (which may itself contain ':') and the DigestOf-style
// hex digest of the body the subscriber holds, split at the LAST
// colon. Malformed terms are silently ignored — held state is an
// optimization (it unlocks the delta rung), so parsing fails open to
// "holds nothing", never closed.
func parseHeld(terms []string) map[string]heldVersion {
	var held map[string]heldVersion
	for _, t := range terms {
		if len(held) >= maxHeldTerms {
			break
		}
		i := strings.LastIndexByte(t, ':')
		if i <= 0 || i == len(t)-1 {
			continue
		}
		key, digest := t[:i], t[i+1:]
		if len(key) > MaxFrameLen || !isHexDigest(digest) {
			continue
		}
		if held == nil {
			held = make(map[string]heldVersion, len(terms))
		}
		held[key] = heldVersion{digest: digest}
	}
	return held
}

func (h *Hub) unsubscribe(sub *hubSub) {
	h.subMu.Lock()
	delete(h.subs, sub)
	h.subMu.Unlock()
	sub.terminate()
}

// killAllLocked terminates and deregisters every stream. Callers hold
// h.mu exclusively (subMu nests inside it).
func (h *Hub) killAllLocked() {
	h.subMu.Lock()
	for s := range h.subs {
		s.terminate()
		delete(h.subs, s)
	}
	h.subMu.Unlock()
}

// KillAll terminates every connected stream (subscribers may reconnect
// immediately); it models a transient network cut.
func (h *Hub) KillAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.killAllLocked()
}

// SetAvailable toggles the endpoint; disabling also drops live streams
// and 503s new connections. Events published while down still enter the
// replay ring, so re-enabled subscribers catch up.
func (h *Hub) SetAvailable(up bool) {
	h.mu.Lock()
	h.available = up
	if !up {
		h.killAllLocked()
	}
	h.mu.Unlock()
}

// HubPartitionStats is one replay-ring partition's residency snapshot.
type HubPartitionStats struct {
	// Name is the partition's key prefix ("" is the catch-all).
	Name string
	// Bytes is the partition's resident wire bytes.
	Bytes int64
}

// HubStats is a point-in-time snapshot of a hub's backpressure state:
// how full the replay ring is and how far each subscriber trails the
// head of the stream. An operator watching MaxLag climb toward
// ReplayCap sees a proxy falling behind before it hits a Reset.
type HubStats struct {
	// Seq is the last assigned sequence number.
	Seq uint64 `metric:"gauge broadway_hub_seq" help:"Last assigned sequence number."`
	// Subscribers is the number of registered streams; ActiveStreams
	// counts their handler goroutines (a surplus of handlers over
	// subscribers is streams terminated but still unwinding).
	Subscribers   int `metric:"gauge broadway_hub_subscribers" help:"Registered streams."`
	ActiveStreams int `metric:"gauge broadway_hub_active_streams" help:"Stream handler goroutines (surplus over subscribers is unwinding handlers)."`
	// ReplayLen and ReplayCap are the replay ring's occupancy and
	// capacity in events; ReplayBytes and ReplayByteCap are the same in
	// resident bytes (payload bodies are what dominate). Both are
	// totals across partitions; Partitions breaks residency down per
	// key prefix. A subscriber whose lag exceeds the ring at reconnect
	// time gets a Reset instead of a replay.
	ReplayLen     int   `metric:"gauge broadway_hub_replay_events" help:"Replay ring occupancy in events."`
	ReplayCap     int   `metric:"gauge broadway_hub_replay_events_cap" help:"Replay ring capacity in events."`
	ReplayBytes   int64 `metric:"gauge broadway_hub_replay_bytes" help:"Replay ring resident wire bytes."`
	ReplayByteCap int64 `metric:"gauge broadway_hub_replay_bytes_cap" help:"Replay ring byte budget (-1 unbounded)."`
	// Partitions lists each replay-ring partition's resident bytes:
	// the per-subtree residency the byte budget apportions (the
	// fattest partition is trimmed first, so a narrow subtree's replay
	// window survives bursts elsewhere).
	Partitions []HubPartitionStats `metric:"-"` // internal/ops renders its two families by hand
	// Oversized counts update events dropped for exceeding the wire
	// envelope limit; Degraded counts payloads stripped at publish time
	// that no payload rung could carry (the event itself survived as
	// an invalidation); Resets counts hole announcements; ResumeHoles
	// counts Reset hellos served to resuming subscribers (each one is a
	// leaf that must run its fallback sweep); SlowKills counts
	// subscribers terminated for not draining their stream; Filtered
	// counts update frames skipped (never written) because they fell
	// outside a stream's declared interest set.
	Oversized   uint64 `metric:"counter broadway_hub_oversized_total" help:"Update events dropped for exceeding the wire envelope limit."`
	Degraded    uint64 `metric:"counter broadway_hub_degraded_total" help:"Payloads stripped at publish because no payload rung could carry them."`
	Resets      uint64 `metric:"counter broadway_hub_resets_total" help:"Hole announcements (mid-stream Resets) made."`
	ResumeHoles uint64 `metric:"counter broadway_hub_resume_holes_total" help:"Reset hellos served to resuming subscribers."`
	SlowKills   uint64 `metric:"counter broadway_hub_slow_kills_total" help:"Subscribers terminated for not draining their stream."`
	Filtered    uint64 `metric:"counter broadway_hub_filtered_total" help:"Update frames skipped by interest filtering."`
	// DeltaFrames counts updates delivered as a delta against the
	// stream's held digest; ChunkFrames counts updates delivered as a
	// chunk set (once per update, not per chunk). Both are the ladder's
	// savings ledger: frames that would otherwise have been a full body
	// or a degradation to invalidation.
	DeltaFrames uint64 `metric:"counter broadway_hub_delta_frames_total" help:"Update frames delivered on the delta rung (base matched a held digest)."`
	ChunkFrames uint64 `metric:"counter broadway_hub_chunk_frames_total" help:"Updates delivered as a chunk set (body over the payload cap), counted once per update."`
	// DuplicateFrames counts updates delivered on rung zero: the stream
	// already held the body (it was sent it once), so only the stripped
	// announcement crossed the link.
	DuplicateFrames uint64 `metric:"counter broadway_hub_duplicate_frames_total" help:"Updates written stripped because the stream already held the body (rung zero)."`
	// StreamRawBytes counts the frame bytes streams were sent, before
	// content coding; StreamBytes counts the bytes that crossed the wire
	// after it (gzip header, segments and trailer). On identity streams
	// the two advance together; their ratio is the coding's yield.
	StreamRawBytes uint64 `metric:"counter broadway_hub_stream_raw_bytes_total" help:"Frame bytes written to streams before content coding."`
	StreamBytes    uint64 `metric:"counter broadway_hub_stream_bytes_total" help:"Bytes written to streams after content coding."`
	// PublishWait is the cumulative time publishers spent waiting to
	// acquire the ring lock — the contention serve-side load inflicts
	// on the publish path (flat when the contention-free design holds).
	PublishWait time.Duration `metric:"counter broadway_hub_publish_wait_seconds" help:"Cumulative time publishers waited to acquire the ring lock."`
	// Available reports whether the endpoint is accepting streams (see
	// SetAvailable; a disabled hub 503s new connections).
	Available bool `metric:"gauge broadway_hub_available" help:"1 while the endpoint accepts streams."`
	// MaxLag is the largest per-subscriber lag (sequence distance
	// between the stream head and that subscriber's proven position);
	// Lags lists every subscriber's.
	MaxLag uint64   `metric:"gauge broadway_hub_max_lag" help:"Largest per-subscriber lag behind the stream head."`
	Lags   []uint64 `metric:"histogram broadway_hub_subscriber_lag" help:"Per-subscriber lag behind the stream head, one observation per subscriber per scrape."`
}

// Stats snapshots the hub's backpressure state. The ring snapshot rides
// a read lock (never contending another reader) and the per-subscriber
// lag walk runs outside the ring lock entirely — subscriber cursors are
// atomic and the registry has its own lock — so a metrics scraper polling
// Stats cannot stall Publish for the duration of the walk.
func (h *Hub) Stats() HubStats {
	h.mu.RLock()
	st := HubStats{
		Seq:           h.seq,
		ReplayCap:     h.cfg.replayLen,
		ReplayBytes:   h.bufBytes,
		ReplayByteCap: h.cfg.replayBytes,
		Oversized:     h.oversized,
		Degraded:      h.degraded,
		Resets:        h.resets,
		ResumeHoles:   h.resumeHoles,
		Available:     h.available,
	}
	if len(h.parts) > 0 {
		st.Partitions = make([]HubPartitionStats, 0, len(h.parts))
		for _, p := range h.parts {
			st.ReplayLen += len(p.buf)
			st.Partitions = append(st.Partitions, HubPartitionStats{Name: p.name, Bytes: p.bytes})
		}
	}
	h.mu.RUnlock()
	st.ActiveStreams = int(h.active.Load())
	st.SlowKills = h.slowKills.Load()
	st.Filtered = h.filtered.Load()
	st.DeltaFrames = h.deltaFrames.Load()
	st.ChunkFrames = h.chunkFrames.Load()
	st.DuplicateFrames = h.duplicateFrames.Load()
	st.StreamRawBytes = h.streamRawBytes.Load()
	st.StreamBytes = h.streamBytes.Load()
	st.PublishWait = time.Duration(h.publishWait.Load())
	h.subMu.Lock()
	for s := range h.subs {
		st.Subscribers++
		var lag uint64
		if c := s.cursor.Load(); c < st.Seq {
			lag = st.Seq - c
		}
		st.Lags = append(st.Lags, lag)
		if lag > st.MaxLag {
			st.MaxLag = lag
		}
	}
	h.subMu.Unlock()
	return st
}

// frameBufPool holds the serve loops' coalescing write buffers: each
// batch of frames (plus its trailing heartbeat) is assembled in one
// pooled buffer and hits the connection as one deadline-bounded write
// and one flush, instead of a write+flush per frame.
var frameBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// maxPooledFrameBuf bounds the buffers returned to frameBufPool; a
// batch that ballooned past it (huge chunked bodies) is left for the
// collector rather than pinned in the pool.
const maxPooledFrameBuf = 256 << 10

// putFrameBuf returns a buffer to frameBufPool unless it ballooned.
func putFrameBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledFrameBuf {
		*bp = (*bp)[:0]
		frameBufPool.Put(bp)
	}
}

// appendFrame appends one SSE frame ("id: <seq>\ndata: <wire>\n\n").
func appendFrame(b []byte, seq uint64, wire string) []byte {
	b = append(b, "id: "...)
	b = strconv.AppendUint(b, seq, 10)
	b = append(b, "\ndata: "...)
	b = append(b, wire...)
	b = append(b, '\n', '\n')
	return b
}

// ServeHTTP streams update events over SSE until the client
// disconnects or the hub terminates the stream. Streams are GET-only; a
// reconnecting subscriber resumes with ?since=<seq>, the bodies it holds
// are declared with repeatable ?held=<key>:<digest> parameters (see
// parseHeld), and an interest set is
// declared with repeatable ?prefix= parameters (declaring none, or one
// ParseInterest cannot honour, receives everything). Update frames
// outside the declared interest are skipped — never written — while the
// stream's resume position still advances past them: heartbeats carry
// the per-stream position (not the hub head), so a filtered subscriber
// that kept up resumes cleanly across holes it never wanted, and a
// Reset is earned only by a gap inside a partition the stream declared.
// Frames are delivered in batches coalesced into a single buffered
// write per ring walk; every batch write carries a deadline
// (DefaultWriteTimeout), so a client that stops reading is abandoned
// on that timescale instead of pinning the handler goroutine inside the
// write until the kernel buffer drains. A request whose Accept-Encoding
// lists gzip is answered gzip-coded, one self-contained segment per
// batch (see coding.go).
func (h *Hub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if _, ok := w.(http.Flusher); !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	query := r.URL.Query()
	var since uint64
	if raw := query.Get("since"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			http.Error(w, "bad since parameter", http.StatusBadRequest)
			return
		}
		since = v
	}
	interest := ParseInterest(query)
	hello, sub, ok := h.subscribe(since, interest, parseHeld(query["held"]))
	if !ok {
		http.Error(w, "event stream unavailable", http.StatusServiceUnavailable)
		return
	}
	defer h.unsubscribe(sub)
	h.active.Add(1)
	defer h.active.Add(-1)
	if h.cfg.OnSubscribe != nil {
		h.cfg.OnSubscribe(interest)
	}

	// A stream whose request accepts gzip is one gzip member, a segment
	// per batch (coding.go); any other stream carries the frames as they
	// are.
	var coder *streamCoder
	if acceptsGzip(r.Header) {
		coder = &streamCoder{}
		w.Header().Set("Content-Encoding", "gzip")
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	deadline := true
	bufp := frameBufPool.Get().(*[]byte)
	defer putFrameBuf(bufp)
	// write lands bytes on the wire under the deadline in force: one
	// write, one flush.
	write := func(b []byte) bool {
		if _, err := w.Write(b); err != nil {
			return false
		}
		if rc.Flush() != nil {
			return false
		}
		h.streamBytes.Add(uint64(len(b)))
		return true
	}
	// flush lands one assembled batch on the wire under a fresh deadline,
	// coded as one segment on a gzip stream (the first behind the member
	// header).
	head := gzipHeader
	flush := func(b []byte) bool {
		if deadline {
			if err := rc.SetWriteDeadline(time.Now().Add(h.cfg.writeTimeout)); err != nil {
				// The connection cannot carry deadlines (an exotic
				// wrapper); stop asking and stream without them.
				deadline = false
			}
		}
		out := b
		if coder != nil {
			outp := frameBufPool.Get().(*[]byte)
			defer putFrameBuf(outp)
			out = coder.appendSegment(append((*outp)[:0], head...), b)
			*outp, head = out, nil
		}
		if !write(out) {
			return false
		}
		h.streamRawBytes.Add(uint64(len(b)))
		return true
	}
	// end closes a gzip stream the hub ends (KillAll, SetAvailable(false),
	// a lag-scan kill) so the client reads a whole member to its end. The
	// trailer gets no deadline of its own: a client that stopped reading
	// holds the handler no longer than its last batch already could.
	end := func() {
		if coder != nil {
			write(coder.appendTrailer((*bufp)[:0]))
		}
	}
	// holdSet advances the hub's knowledge of what body this stream holds
	// for re's key — the state the delta rung and rung zero select
	// against — to the version re just delivered.
	holdSet := func(re RenderedEvent) {
		if re.digest == "" {
			delete(sub.held, re.Key)
			return
		}
		if sub.held == nil {
			sub.held = make(map[string]heldVersion)
		}
		sub.held[re.Key] = heldVersion{digest: re.digest, mod: re.mod}
	}
	// appendUpdate renders one update on the cheapest ladder rung this
	// stream can use: delta when the stream holds the delta's base,
	// nothing but the stripped announcement when it already holds the
	// body itself (rung zero), the full body in one frame when it fits
	// the cap, the chunk set when it does not, and the stripped
	// invalidation otherwise (the stream then confirms by polling — the
	// next rung down, never a dropped update). Every pick is a
	// pre-rendered byte-slice; the only per-subscriber work is one map
	// probe.
	appendUpdate := func(b []byte, re RenderedEvent) []byte {
		hv, known := sub.held[re.Key] // a nil map until a payload lands
		if known && re.digest != "" {
			if hv.digest == re.digest && re.mod != 0 && re.mod <= hv.mod {
				// Rung zero: the stream was already sent this version's
				// body (a replayed frame; a relay's poll that published the
				// version before the version's own event went down). It is
				// owed the announcement — delivery stays at-least-once, and
				// a receiver whose install failed polls on it — but never
				// the payload a second time. The held version stands: the
				// next delta still applies against it. (A NEWER version
				// with the same content is not a repeat: the stream must
				// install its modification instant, and takes the ordinary
				// rungs below.)
				h.duplicateFrames.Add(1)
				return appendFrame(b, re.Seq, re.stripped)
			}
			if re.delta != "" && hv.digest == re.baseDigest {
				holdSet(re)
				h.deltaFrames.Add(1)
				return appendFrame(b, re.Seq, re.delta)
			}
		}
		if re.full != "" && re.body {
			holdSet(re)
			return appendFrame(b, re.Seq, re.full)
		}
		if len(re.chunks) > 0 {
			// All chunk frames ride back to back under one sequence
			// number; the position advances once, past the whole set, so
			// a disconnect mid-set resumes before the set and replays it
			// whole.
			for _, c := range re.chunks {
				b = appendFrame(b, re.Seq, c)
			}
			holdSet(re)
			h.chunkFrames.Add(1)
			return b
		}
		if known && hv.digest != re.digest {
			// The stream confirms this update by polling, and the digest
			// announced is unknown or differs from the one held: the hub no
			// longer knows which body that poll will install. (An equal
			// digest stands — whatever the poll installs of this version is
			// the body already held, and the next delta applies to it.)
			delete(sub.held, re.Key)
		}
		return appendFrame(b, re.Seq, re.WireFor())
	}
	// writeBatch coalesces one fetched batch — frames, a mid-stream
	// Reset if one is due, and the position-bearing heartbeat that
	// covers any skipped tail — into a single buffered write. The
	// stream position advances to the walk boundary: frames the walk
	// jumped (foreign-partition or interest-filtered) are proven
	// positions the stream simply never needed on the wire.
	writeBatch := func(batch []RenderedEvent, boundary uint64) bool {
		b := (*bufp)[:0]
		prev := sub.cursor.Load()
		updates := 0
		lastSeq := prev
		for _, re := range batch {
			if re.Kind == KindUpdate {
				b = appendUpdate(b, re)
				updates++
				lastSeq = re.Seq
				continue
			}
			b = appendFrame(b, re.Seq, re.WireFor())
			if re.Kind == KindHello && re.Reset {
				// The stream's owner now revalidates by polling; every
				// held digest is stale knowledge.
				sub.held = nil
				lastSeq = re.Seq
			}
		}
		if boundary > lastSeq {
			// The walk ended past the last written frame (a skipped
			// tail): hand the subscriber its advanced position in the
			// same write instead of waiting a heartbeat interval, so a
			// reconnect in that window resumes past the skipped frames.
			b = appendFrame(b, boundary, Event{Kind: KindHeartbeat, Seq: boundary}.Encode())
		}
		if skipped := boundary - prev - uint64(updates); skipped > 0 && boundary > prev {
			h.filtered.Add(skipped)
		}
		sub.cursor.Store(boundary)
		*bufp = b
		return flush(b)
	}
	b := appendFrame((*bufp)[:0], hello.Seq, hello.WireFor())
	*bufp = b
	if !flush(b) {
		return
	}

	scratch := make([]RenderedEvent, 0, fetchBatchLimit+1)
	ticker := time.NewTicker(h.cfg.Heartbeat)
	defer ticker.Stop()
	for {
		// Arm the wake-up BEFORE walking the ring: a publish landing
		// after the walk closes this exact channel (or one armed after
		// it was closed), so no frame can slip between an empty walk and
		// the wait.
		ch := h.getNotify()
		batch, boundary, gen, killed := h.fetch(sub, scratch[:0])
		if killed {
			// Outrun by the ring: a slow reader, owed no trailer.
			return
		}
		if len(batch) > 0 || boundary > sub.cursor.Load() {
			sub.resetGen = gen
			if !writeBatch(batch, boundary) {
				return
			}
			continue
		}
		select {
		case <-r.Context().Done():
			return
		case <-sub.done:
			end()
			return
		case <-ch:
		case <-ticker.C:
			pos := sub.cursor.Load()
			b := appendFrame((*bufp)[:0], pos, Event{Kind: KindHeartbeat, Seq: pos}.Encode())
			*bufp = b
			if !flush(b) {
				return
			}
		}
	}
}
