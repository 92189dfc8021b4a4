package webproxy

import "broadway/internal/push"

// This file is the proxy's downstream face: the event relay that lets a
// hierarchy of proxies share one origin subscription. A relay-enabled
// proxy owns a push.Hub with its own sequence space, served at
// Config.RelayPath over the same SSE /events protocol the origin
// speaks, so a leaf proxy subscribes to a parent exactly as the parent
// subscribes to the origin — the fan-out cost of N edge proxies lands
// on the hierarchy, not on the origin.
//
// The relay hub is told of each upstream update event once, and by
// one of two publishers:
//
//   - At receipt, for a key this proxy does not hold (demoted to disk,
//     its admission still in flight, or never cached — a child may well
//     cache what its parent does not): the event passes through as it
//     arrived (relayPassThrough).
//   - At the end of the key's pushed job, for a key it holds. That job
//     runs on the key's affinity worker, after the install its event
//     asked for, so a child that polls on the publication finds this
//     proxy fresh. A job that installed a version publishes that
//     version, its payload riding along (relayInstalled); one that
//     installed nothing — a refused payload whose fallback fetch failed,
//     an entry evicted before the job ran, a duplicate of a version this
//     proxy already holds — passes the event through as received. The
//     duplicate matters: a version a cold admission fetched before its
//     event arrived was announced to no child.
//
// Every other version a poll of this proxy finds — a scheduled or
// triggered poll, or any poll under a pure-polling parent (relay on,
// upstream push off) — is published by relayInstalled too. Between
// them, every upstream update event reaches each child at least once
// unless this proxy publishes a newer version of the same key, and a
// version is published once per hop: the install's own version check
// is the dedupe, so the relay keeps no ledger of what went down. Only a
// race or a replay sends one twice — a poll that found the version
// before its event's job ran, an event replayed across a resume — and a
// stream that already holds it is then sent the stripped announcement
// alone: the hub's rung zero (push.HubStats.DuplicateFrames).
//
// Reset: when the proxy's upstream stream dies, or resyncs with a Reset
// hello, its own view has a hole, so everything it relays is suspect
// from that instant. Hub.Reset pushes a mid-stream hello/Reset frame to
// every connected child (driving their fallback sweeps, without
// dropping their connections) and arms the hub's barrier so children
// that were disconnected across the hole are Reset when they resume.

// relayPassThrough republishes an upstream event into the relay hub as
// it was received: for a key this proxy does not hold, at receipt; for
// one it holds, when the key's pushed job installed nothing.
func (p *Proxy) relayPassThrough(ev push.Event) {
	if p.relay != nil {
		p.relay.Publish(ev) // Publish re-assigns Seq into the relay's own space
	}
}

// relayDeltaFloor is the body size below which relayInstalled does not
// bother computing a delta: the full payload of a tiny object costs
// about as much as the delta frame's envelope, and the encoder run is
// pure waste.
const relayDeltaFloor = 256

// relayInstalled publishes the version install just swapped into e to
// downstream subscribers, after the body swap and the ledger: a child
// that polls on it finds the fresh copy. The payload rides along, so a
// child installs it with zero polls against this proxy, under a
// pure-polling or invalidation-only upstream too.
//
// The version keeps the modification instant it arrived with. A pushed
// payload's instant is republished verbatim, zero included: stamping
// this proxy's own clock onto a timeless event would poison children
// whose origin's clock lags it — their duplicate check and
// If-Modified-Since validators would then suppress genuinely newer
// origin updates until real modification times caught up to the
// fabricated one. A poll answered without Last-Modified is announced at
// this proxy's clock.
//
// prevBody/prevDigest are the body this update replaced: the base
// downstream subscribers still hold. The delta sidecar is re-based to
// THIS proxy's body history, which is what its children track: the
// delta the payload arrived as, when its base is prevBody (one origin
// encoding then feeds the whole subtree), and otherwise one computed
// here when it pays. The hub picks delta vs full vs chunked per
// subscriber.
func (p *Proxy) relayInstalled(e *entry, v version, prevBody []byte, prevDigest string) {
	if p.relay == nil {
		return
	}
	ev := push.Event{
		Kind:    push.KindUpdate,
		Key:     e.key,
		ModTime: v.lastMod,
		Digest:  v.digest,
		Body:    v.body, // replaced wholesale on refresh, never mutated: safe to share
		HasBody: true,
	}
	if !v.hasLastMod && !v.applied {
		ev.ModTime = v.now
	}
	e.mu.RLock()
	ev.ContentType = e.contentType.String()
	ev.CacheControl = e.cacheControl.String()
	e.mu.RUnlock()
	switch {
	case v.delta != nil && v.deltaBase == prevDigest:
		ev.DeltaBody = v.delta
	case len(prevBody) >= relayDeltaFloor && prevDigest != "" && prevDigest != ev.Digest:
		if d, ok := push.MakeDelta(prevBody, v.body); ok {
			ev.DeltaBody = d
		}
	}
	if ev.DeltaBody != nil {
		ev.BaseDigest = prevDigest
		ev.DeltaCodec = push.DeltaCodecBlock
		p.pushDeltaRebased.Add(1)
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
	Enabled bool `metric:"gauge broadway_relay_enabled" help:"1 when the proxy relays events downstream."`
	// Path is the endpoint the relayed stream is served at.
	Path string `metric:"info broadway_relay_info path" help:"Constant 1; the path label names the relayed stream's endpoint."`
	// Hub is the relay hub's backpressure snapshot: sequence head,
	// replay occupancy, per-subscriber lag, resets announced.
	Hub push.HubStats `metric:"nested hub=relay"`
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
