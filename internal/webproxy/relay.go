package webproxy

import (
	"time"

	"broadway/internal/push"
)

// This file is the proxy's downstream face: the event relay that lets a
// hierarchy of proxies share one origin subscription. A relay-enabled
// proxy owns a push.Hub with its own sequence space, served at
// Config.RelayPath over the same SSE /events protocol the origin
// speaks, so a leaf proxy subscribes to a parent exactly as the parent
// subscribes to the origin — the fan-out cost of N edge proxies lands
// on the hierarchy, not on the origin.
//
// Three publication paths feed the relay hub:
//
//   - Pass-through: an update event arriving on the parent's own
//     upstream channel is republished immediately (before the parent's
//     own install or pushed poll runs), resident or not — a leaf may
//     well cache an object its parent does not.
//   - Confirmation: every locally confirmed update (a pushed install, or
//     a poll of any kind that observed a modification) is announced by
//     install after the body swap (relayInstalled). This closes the pass-through race — a leaf
//     that polls the parent on the pass-through event can catch the
//     parent still stale and learn nothing; the confirmation arrives
//     once the parent's copy is fresh and drives a second leaf poll —
//     and it is also what feeds leaves under a pure-polling parent
//     (relay on, upstream push off).
//   - Reset: when the parent's upstream stream dies, or resyncs with a
//     Reset hello, the parent's own view has a hole, so everything it
//     relays is suspect from that instant. Hub.Reset pushes a
//     mid-stream hello/Reset frame to every connected leaf (driving
//     their fallback sweeps, without dropping their connections) and
//     arms the hub's barrier so leaves that were disconnected across
//     the hole are Reset when they resume.
//
// One payload per version per link. With value push a frame is no
// longer a hundred bytes: it carries the body, base64-framed, and a
// body past the payload cap rides a chunk set a third larger than
// itself. Publishing a version's payload twice — once passed through,
// once confirmed — makes every hub down the chain render, ring-charge
// and send it twice, to streams that already hold it. So the payload of
// a version is published to the relay hub exactly once, by whichever
// path reaches it first (entry.relayedMod is the ledger of what went
// down, claimed by compare-and-swap):
//
//   - by the pass-through, when the upstream frame carried one. A delta
//     frame whose base this proxy holds is reconstructed first, so the
//     one publication carries every form a child could need — the
//     upstream's delta for children holding the same base, the full
//     body or its chunk set for a child that has never been sent the
//     object — and the install reuses the reconstruction;
//   - otherwise (a stripped upstream frame, a pure-polling parent, a
//     scheduled or triggered poll that found the change first) by the
//     confirmation, with a delta re-based to this proxy's own history.
//
// Everything else is an announcement: the confirmation of a payload
// already passed through goes out payload-free (its digest kept, so the
// hub leaves the streams' held digests — the delta chain — standing),
// and an upstream event for a version this proxy has already confirmed,
// or whose payload it has already passed on, is not re-relayed at all:
// the children heard of that version from here before. The hub's rung
// zero (push.HubStats.DuplicateFrames) holds the same line per stream
// for what this ledger cannot see — a replay across a resume, a
// timeless event. Delivery stays at-least-once: a child that installed
// the pass-through payload drops the confirmation on its version check
// (PushStats.Duplicates), for free; a polling child, or one whose
// install failed, polls on it and finds the parent fresh.

// claimRelay records that e's version mod (a non-zero instant) is going
// down to the children in full — its payload passed through, or the
// version confirmed after install — and reports whether the caller is
// the first to say so. Pass-throughs run on the subscriber goroutine and
// confirmations on poll workers; the compare-and-swap lets exactly one
// of them carry a version's payload however they interleave. The ledger
// records only what was PUBLISHED, never what is merely held: a version
// this proxy holds because a cold admission fetched it was announced to
// nobody, and its upstream event must still pass through.
func (e *entry) claimRelay(mod time.Time) bool {
	n := mod.UnixNano()
	for {
		cur := e.relayedMod.Load()
		if n <= cur {
			return false
		}
		if e.relayedMod.CompareAndSwap(cur, n) {
			return true
		}
	}
}

// relayUpstreamEvent republishes an update event received on the
// upstream channel into the relay hub (pass-through path), unless the
// children have already heard of its version from this proxy. e is the
// event's resident entry, nil when there is none — the event is then
// passed through untouched every time (nothing remembers it, and its
// repeats are announcements the upstream already stripped).
//
// It returns the event to queue for the local install: the same event,
// or — for a delta frame it could reconstruct — the full-bodied form it
// published, with the received delta moved to the DeltaBody sidecar (see
// isPureDelta), so the reconstruction is paid once.
func (p *Proxy) relayUpstreamEvent(e *entry, ev push.Event) push.Event {
	if e != nil {
		if !ev.ModTime.IsZero() {
			if ev.HasBody {
				if !e.claimRelay(ev.ModTime) {
					return ev // this version, or a newer one, already went down whole
				}
			} else if ev.ModTime.UnixNano() <= e.relayedMod.Load() {
				return ev // an announcement of a version the children already have
			}
		}
		if isPureDelta(&ev) {
			base, baseDigest := e.held()
			if full, ok := verifyPushed(&ev, base, baseDigest); ok {
				ev.DeltaBody, ev.Body = ev.Body, full
				p.pushDeltaRebased.Add(1)
			}
		}
	}
	p.relay.Publish(ev) // Publish re-assigns Seq into the relay's own space
	return ev
}

// relayDeltaFloor is the body size below which the confirmation relay
// does not bother computing a delta: the full payload of a tiny object
// costs about as much as the delta frame's envelope, and the encoder
// run is pure waste.
const relayDeltaFloor = 256

// relayInstalled announces the version install just swapped into e to
// downstream subscribers (confirmation path), published after the body
// swap. Whether the payload rides along is decided here, once:
//
//   - A poll that found the change carries the freshly installed body
//     (with value-carrying push enabled) — unless a pass-through already
//     carried this version's payload down — so even under a pure-polling
//     parent (relay on, upstream push off) the leaves install the update
//     with zero confirmation polls. A poll answered without Last-Modified
//     is announced at this proxy's clock instead, an instant that names
//     no version and so never enters the ledger (it always carries its
//     payload).
//   - A directly installed pushed payload (v.applied) is the announcement
//     alone, digest kept: the pass-through frame already carried the
//     payload. A polling (non-value) leaf that fetched on the
//     pass-through frame may have raced the parent's install and seen the
//     stale copy, and a value leaf's own install may have failed; this
//     confirmation is what closes that window. Leaves that did install
//     recognize it by its modification instant and do nothing. The
//     upstream event's ModTime is republished verbatim, zero included:
//     stamping this proxy's own clock onto a timeless event would poison
//     children whose origin's clock lags it — their duplicate check and
//     If-Modified-Since validators would then suppress genuinely newer
//     origin updates until real modification times caught up to the
//     fabricated one.
//
// prevBody/prevDigest are the body this update replaced: the base
// downstream subscribers still hold. When a delta against it pays, it
// rides the publication as a sidecar — re-based to THIS proxy's body
// history, which is what its children track — and the hub picks delta
// vs full vs chunked per subscriber.
func (p *Proxy) relayInstalled(e *entry, v version, prevBody []byte, prevDigest string) {
	if p.relay == nil {
		return
	}
	ev := push.Event{
		Kind:    push.KindUpdate,
		Key:     e.key,
		Group:   e.group,
		ModTime: v.lastMod,
	}
	var carry bool // whether this publication carries the payload
	switch {
	case v.applied:
		// The pass-through frame carried it; ModTime stays verbatim.
	case v.hasLastMod:
		carry = e.claimRelay(v.lastMod)
	default:
		ev.ModTime, carry = v.now, true // names no version: never enters the ledger
	}
	if p.cfg.PushValues {
		ev.Digest = v.digest
		if carry {
			ev.Body = v.body // replaced wholesale on refresh, never mutated: safe to share
			ev.HasBody = true
			e.mu.RLock()
			ev.ContentType = e.contentType
			e.mu.RUnlock()
			if len(prevBody) >= relayDeltaFloor && prevDigest != "" && prevDigest != ev.Digest {
				if d, ok := push.MakeDelta(prevBody, v.body); ok {
					ev.DeltaBody = d
					ev.BaseDigest = prevDigest
					ev.DeltaCodec = push.DeltaCodecBlock
					p.pushDeltaRebased.Add(1)
				}
			}
		}
	}
	p.relay.Publish(ev)
}

// relayReset propagates an upstream hole downstream: connected leaves
// get a mid-stream hello/Reset (their fallback sweeps bound the
// staleness the hole could hide), and leaves disconnected across it are
// Reset when they resume.
func (p *Proxy) relayReset() {
	if p.relay != nil {
		p.relay.Reset()
	}
}

// KillRelayStreams terminates every connected downstream stream without
// disabling the endpoint: children reconnect immediately and catch up
// from the relay's replay ring (or are Reset when the gap outran it).
// It is the chaos hook mirroring WebOrigin.KillPushStreams, used by the
// hierarchy soaks to model a transient parent→leaf network cut. A
// no-op when the relay is disabled.
func (p *Proxy) KillRelayStreams() {
	if p.relay != nil {
		p.relay.KillAll()
	}
}

// RelayStats reports the state of the downstream event relay.
type RelayStats struct {
	// Enabled reports whether the proxy was configured to relay events.
	Enabled bool
	// Path is the endpoint the relayed stream is served at.
	Path string
	// Hub is the relay hub's backpressure snapshot: sequence head,
	// replay occupancy, per-subscriber lag, resets announced.
	Hub push.HubStats
}

// RelayStats returns the downstream relay's counters (zero-valued when
// the relay is disabled).
func (p *Proxy) RelayStats() RelayStats {
	if p.relay == nil {
		return RelayStats{}
	}
	return RelayStats{
		Enabled: true,
		Path:    p.cfg.RelayPath,
		Hub:     p.relay.Stats(),
	}
}
