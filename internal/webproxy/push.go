package webproxy

import (
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"broadway/internal/push"
)

// This file is the proxy side of the hybrid push–pull channel: the
// subscription manager that reconciles origin-driven invalidations with
// the TTR refresh schedule.
//
// The reconciliation rules are:
//
//   - A pushed invalidation for a resident object converts into an
//     immediate "pushed" job routed through the object's group-affinity
//     worker — the same path as a mutual-consistency triggered poll — so
//     MutualTimeController state stays single-threaded per group. With
//     Config.PushValues a payload-carrying event is installed directly
//     (digest-verified, byte-ledger-charged; see applyPushedValue) with
//     no origin request; otherwise — or when the payload cannot be
//     installed — the job polls: it revalidates via If-Modified-Since
//     and, when it confirms an update, runs the §3.2 group triggering
//     exactly as a scheduled poll would. Neither form disturbs the
//     object's regular TTR schedule or feeds its policy (pushes reveal
//     the origin's churn, not the polling frequency's fitness).
//   - While the channel is healthy a key it covers holds a lease: push
//     carries the key's freshness, and its regular poll becomes an audit
//     of the channel rather than of the object, run once per lease term
//     L = Config.PushStretch × Bounds.Max whatever TTR the policy has
//     learned. A key is covered when the origin can announce it at all
//     (see pushable) and the live interest declaration matches it (see
//     leaseCovers). The lease starts at install, not after a first poll:
//     admission and disk promotion place the first poll at a per-key hash
//     phase in (TTR, L] (see leasePhase), so keys warmed together poll at
//     the steady N/L rate instead of as a herd. Later polls run exactly L
//     apart. The paper-mode instant (validation + TTR) is remembered per
//     entry; the policy keeps learning from each poll's outcome.
//     Rehydrated entries are born suspect and validate immediately, lease
//     or not.
//   - A carried sibling needs no §3.2 poll: when a group member's update
//     runs the group triggering, a sibling the lease carries is current at
//     that instant — had it changed, its own event would have arrived — so
//     it counts as polled then, the paper's own "previous poll within δ"
//     exemption with the lease supplying the instant (see carriedLocked
//     and triggerGroup). A sibling outside the lease still polls.
//   - The lease outlives residency: a demoted key's disk record is kept
//     current by the same channel (see applyPushedToDisk), so a record
//     the channel has carried since its last validation is promoted with
//     no upstream request at all — the channel answers the validating
//     304 (see channelAnswer) — and its first audit lands within L of
//     that validation. An object demoted and promoted again under a live
//     lease costs its upstream nothing. Every path that handles an event
//     without landing it on the resident copy or the record voids the
//     record (see voidRecord).
//   - A lease epoch begins at every connect (a Bounce reconnects), Reset
//     and frame loss. Evidence gathered in an earlier epoch — a response
//     to a fetch sent before it began, an event received before it began
//     — may predate an update the hole swallowed, so it neither takes a
//     lease nor reaches the disk tier (see inEpoch).
//   - Everything that ends a lease runs the catch-up sweep, which pulls
//     every leased schedule entry back to its paper-mode instant
//     (immediately, if that instant already passed), so no object's Δt
//     guarantee is ever widened beyond what pure polling would have
//     delivered; each key re-enters the lease only at its own next
//     regular poll on a healthy channel. The staleness a covered key can
//     accumulate is therefore bounded per failure:
//       - link death (disconnect, or no frame for PushHeartbeatTimeout):
//         detection plus one sweep, then pure paper-mode polling until a
//         reconnect;
//       - a reconnect whose replay gap exceeded the upstream's buffer
//         (hello Reset), a mid-stream Reset, or a lost frame: one sweep —
//         events were irrecoverably missed while the proxy believed the
//         channel healthy;
//       - a deliberate Bounce (interest renegotiation): one sweep, as a
//         disconnect;
//       - an upstream that silently fails to announce an update over a
//         live stream: L, the audit this poll exists for;
//       - a changed Cache-Control tolerance, which no event carries:
//         the key's next lease poll, at most L;
//       - an update announced while the key's admission or promotion is
//         in flight (the fetch and the stream are separate connections,
//         so the event can be handled, and find nothing resident, before
//         a response built ahead of the update is installed): that
//         admission takes no lease and polls at validation + TTR, as in
//         paper mode (see handlePushEvent and installEntry);
//       - a demoted key's record: nothing beyond what the resident key
//         would have had — a record is promoted without a fetch only
//         while every premise of the lease above holds for it, and its
//         first audit lands within L of its validation.

// newPushSubscriber wires the proxy's callbacks into a subscriber for
// cfg.PushURL.
func (p *Proxy) newPushSubscriber() (*push.Subscriber, error) {
	payloadCap := 0
	if p.cfg.PushValues {
		payloadCap = p.cfg.PushPayloadCap
	}
	scfg := push.SubscriberConfig{
		URL: p.cfg.PushURL.String(),
		// The proxy's upstream client is unusable here: its global
		// Timeout would kill the long-lived stream.
		Client:           &http.Client{},
		OnEvent:          p.handlePushEvent,
		OnConnect:        p.handlePushConnect,
		OnDisconnect:     p.handlePushDisconnect,
		OnFrameLoss:      p.handlePushFrameLoss,
		BackoffMin:       p.cfg.PushBackoffMin,
		BackoffMax:       p.cfg.PushBackoffMax,
		HeartbeatTimeout: p.cfg.PushHeartbeatTimeout,
		PayloadCap:       payloadCap,
	}
	if p.cfg.PushInterest {
		scfg.Interest = p.declaredInterest
	}
	if p.cfg.PushValues {
		scfg.Held = p.heldDigests
	}
	return push.NewSubscriber(scfg)
}

// heldAdvertiseMax bounds the held-digest terms advertised on connect
// (mirroring the server-side per-stream cap): the largest bodies are
// the ones whose deltas save the most, so the advertisement is the
// top residents by size, not an arbitrary slice of the store.
const heldAdvertiseMax = 64

// heldDigests is the Held hook: the body digests this proxy holds,
// advertised at (re)connect so the upstream can open matching updates
// on the delta rung. Evaluated per connection attempt — a reconnect
// after churn advertises the current residency, never a stale snapshot.
func (p *Proxy) heldDigests() []push.HeldDigest {
	var cands []*entry
	for i := range p.store.shards {
		sh := &p.store.shards[i]
		sh.mu.RLock()
		for _, e := range sh.entries {
			cands = append(cands, e)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(cands, func(i, j int) bool {
		return cands[i].size.Load() > cands[j].size.Load()
	})
	if len(cands) > heldAdvertiseMax {
		cands = cands[:heldAdvertiseMax]
	}
	held := make([]push.HeldDigest, 0, len(cands))
	for _, e := range cands {
		if e.evicted.Load() || e.unpushable {
			continue
		}
		if _, d := e.held(); d != "" {
			held = append(held, push.HeldDigest{Key: e.key, Digest: d})
		}
	}
	return held
}

// declaredInterest computes the interest set the subscriber declares on
// its next (re)connect: the configured static seeds, one first-path-
// segment prefix per resident object, and the sticky union of every
// downstream subscriber's own declaration. The closure runs per
// connection attempt, so a bounce (see Bounce) is all it takes to
// renegotiate. An empty result encodes as no query constraints — the
// upstream delivers everything — so filtering fails open, never closed.
func (p *Proxy) declaredInterest() push.InterestSet {
	prefixes := append([]string(nil), p.cfg.PushPrefixes...)
	for i := range p.store.shards {
		sh := &p.store.shards[i]
		sh.mu.RLock()
		for key := range sh.entries {
			prefixes = append(prefixes, residentPrefix(key))
		}
		sh.mu.RUnlock()
	}
	set := push.NewInterest(prefixes, p.cfg.PushGroups)
	p.downMu.Lock()
	down := p.downstream
	p.downMu.Unlock()
	return set.Union(down)
}

// residentPrefix maps a cache key to the interest prefix declared for
// it: its first path segment (slash included, so "/news/" never drags
// in "/newsy"). Folding siblings under one term keeps a large cache
// from exploding the declaration past the term bounds — overflow would
// widen it to match-all and forfeit filtering entirely. Query-bearing
// keys declare their path part; such objects are unpushable anyway
// (events are path-granular), so the term is only ever harmlessly wide.
func residentPrefix(key string) string {
	if len(key) > 1 && key[0] == '/' {
		if i := strings.IndexByte(key[1:], '/'); i >= 0 {
			return key[:i+2]
		}
	}
	if i := strings.IndexByte(key, '?'); i >= 0 {
		return key[:i]
	}
	return key
}

// noteDownstreamInterest folds a downstream subscriber's declared
// interest into the sticky union this proxy declares upstream (it is
// the relay hub's OnSubscribe hook). When the live upstream declaration
// does not cover the newcomer, the stream is bounced: the reconnect
// re-runs declaredInterest with the union folded in, so the subtree's
// objects are announced through this proxy from then on. Until that
// reconnect lands the child is no worse off than under a disconnected
// parent — its own lease gate keeps uncovered objects polling.
func (p *Proxy) noteDownstreamInterest(is push.InterestSet) {
	if p.sub == nil || is.IsEmpty() {
		return
	}
	p.downMu.Lock()
	p.downstream = p.downstream.Union(is)
	p.downMu.Unlock()
	if !p.sub.DeclaredInterest().Covers(is) {
		p.sub.Bounce()
	}
}

// handlePushEvent converts an update notification into an immediate
// pushed job for the named object, if it is resident: a value-carrying
// event installs its payload directly on the object's affinity worker
// (see applyPushedValue), anything else runs today's pushed poll.
// Events for non-resident objects are dropped — the proxy only ever
// pays refresh traffic for objects it actually caches — except that an
// admission of the key still in flight is told it raced an update.
// Back-to-back events for one object coalesce onto a single queued job:
// the entry's pendingPush slot is the queued-job flag, and it holds the
// newest version's most installable event (see supersedes), so a
// coalesced burst installs the latest body, never a dropped
// predecessor's, and a stripped repeat of a version cannot displace the
// payload queued a moment earlier.
func (p *Proxy) handlePushEvent(ev push.Event) {
	p.pushEvents.Add(1)
	// The seq store is deferred so the job is enqueued (and counted in
	// InFlightPolls) before an observer waiting on PushStats().LastSeq
	// can conclude the event was handled.
	defer p.pushSeq.Store(ev.Seq)
	if ev.Kind != push.KindUpdate || ev.Key == "" {
		return
	}
	e := p.lookup(ev.Key)
	if e != nil && e.evicted.Load() {
		e = nil
	}
	if e == nil {
		// Not resident — but an admission or promotion of the key may be
		// in flight, its upstream response built before this update and
		// its entry not yet in the store. The stream and the fetch travel
		// on separate connections, so nothing orders them: tell the
		// admission (installEntry then refuses the lease and polls at the
		// paper-mode instant), and look again, because an install that
		// read the mark before it was set has published its entry by now.
		ck := canonicalize(ev.Key)
		p.flight.Mark(ck)
		if e = p.store.get(ck); e != nil && e.evicted.Load() {
			e = nil
		}
	}
	// Pass-through relay before the install, and whether or not the
	// object is resident: a child proxy may cache objects this proxy
	// does not. The payload rides along, so a value-negotiated leaf
	// installs it with zero polls against us.
	if p.relay != nil {
		ev = p.relayUpstreamEvent(e, ev)
	}
	if e == nil {
		if p.applyPushedToDisk(ev) {
			return // demoted object: its disk record absorbed the update
		}
		// Nothing held the update, so a record it could not land on must
		// not pass for current (see channelAnswer).
		p.voidRecord(canonicalize(ev.Key))
		p.pushDropped.Add(1)
		return
	}
	// The slot is the coalescing flag as well as the payload: the job
	// empties it in one swap when it starts, so whoever fills an empty
	// slot owes the enqueue, and an event that finds it full joins the
	// job already queued — replacing its event, or, when the slot holds
	// something better, just riding along: that job runs after this
	// announcement, so its fallback poll, if it needs one, finds the
	// parent as fresh as the announcement promised.
	pe := &pushedEvent{Event: ev, epoch: p.leaseEpoch.Load()}
	for {
		cur := e.pendingPush.Load()
		if cur != nil && !supersedes(&ev, &cur.Event) {
			return
		}
		if e.pendingPush.CompareAndSwap(cur, pe) {
			if cur != nil {
				return
			}
			break
		}
	}
	p.pushPolls.Add(1)
	p.pending.Add(1)
	p.workerFor(e).enqueue(job{e: e, kind: pollPushed})
}

// pushedEvent is an event waiting in an entry's coalescing slot, with the
// lease epoch it arrived in: a payload it delivers is evidence from that
// epoch, however late its job runs.
type pushedEvent struct {
	push.Event
	epoch *time.Time
}

// supersedes reports whether ev should replace cur in an entry's
// coalescing slot: a newer version always does; among frames for the
// same version only a more installable one (full body over a delta that
// needs its base, either over no payload at all) — so a stripped
// confirmation, or a delta against a base this proxy may not hold,
// never costs the job the payload it already has. Timeless events carry
// no version to compare, so the later arrival wins.
func supersedes(ev, cur *push.Event) bool {
	if ev.ModTime.IsZero() || cur.ModTime.IsZero() {
		return true
	}
	if !ev.ModTime.Equal(cur.ModTime) {
		return ev.ModTime.After(cur.ModTime)
	}
	return installRank(ev) > installRank(cur)
}

// installRank orders the forms one version can arrive in by how surely
// they install: 0 carries no payload, 1 is a delta that still needs its
// base, 2 is the whole body (received whole or already reconstructed).
func installRank(ev *push.Event) int {
	switch {
	case !ev.HasBody:
		return 0
	case isPureDelta(ev):
		return 1
	}
	return 2
}

// isPureDelta reports whether ev's Body is a delta still to be applied
// against its base. A delta frame this proxy reconstructed on receipt
// (relayUpstreamEvent) keeps its BaseDigest but carries the full body,
// with the received delta moved to the DeltaBody sidecar — a field
// Decode never populates, so its presence marks a body already verified
// here.
func isPureDelta(ev *push.Event) bool {
	return ev.HasBody && ev.BaseDigest != "" && ev.DeltaCodec != 0 && len(ev.DeltaBody) == 0
}

// versionHeld reports whether a copy whose modification instant is held
// (has says whether it has one) already carries the version announced at
// mod, or a later one. Origins guarantee strictly increasing modification
// times, so an announcement at or before the held instant is a relay
// duplicate, a replayed frame, or a push that lost the race to a poll:
// nothing to install, nothing to poll. A timeless announcement can never
// be recognized. It is the version check of both tiers — the resident
// entry and the disk record.
func versionHeld(has bool, held, mod time.Time) bool {
	return has && !mod.IsZero() && !mod.After(held)
}

// holdsVersion is versionHeld against the cached copy.
func (e *entry) holdsVersion(mod time.Time) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return versionHeld(e.hasLastMod, e.lastMod, mod)
}

// held returns the cached body and its digest (empty without
// value-carrying push) — the base a pushed delta must name.
func (e *entry) held() ([]byte, string) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.body, e.bodyDigest
}

// verifyPushed returns the full body a pushed event delivers, verified:
// whichever tier installs it, and the relay reconstructing it for the
// children, nothing is accepted that does not hash to the frame's
// digest. A delta frame is applied against base, and only when
// baseDigest — the digest of the bytes actually in hand (kept with the
// resident body at every swap, hashed from the blob read back from
// disk), never bookkeeping that could have gone stale — is the base the
// frame names: that is the invariant keeping a demoted or raced body
// from ever serving as a silent wrong base. A forged or stale base, a
// hostile delta stream, a result or a full body with the wrong digest,
// or no payload at all (a stripped or pure-invalidation frame) reports
// ok=false, and the caller degrades to the next rung of the ladder. A
// frame this proxy already reconstructed on receipt (see isPureDelta)
// was verified then. base and baseDigest are read only for a pure delta.
func verifyPushed(ev *push.Event, base []byte, baseDigest string) (body []byte, ok bool) {
	switch {
	case !ev.HasBody:
		return nil, false
	case isPureDelta(ev):
		if baseDigest != ev.BaseDigest {
			return nil, false
		}
		full, err := push.ApplyDelta(ev.DeltaCodec, base, ev.Body, 0)
		return full, err == nil && push.DigestOf(full) == ev.Digest
	case len(ev.DeltaBody) > 0:
		return ev.Body, true
	}
	return ev.Body, push.DigestOf(ev.Body) == ev.Digest
}

// applyPushedValue installs a pushed event's payload directly into the
// cache — the value-carrying fast path: one message from the origin,
// zero confirmation polls. It runs on the entry's affinity worker (the
// same serialization domain as every poll of the object and its group),
// so body swaps, controller observations, and §3.2 triggering stay
// single-threaded exactly as they are for polls.
//
// The version check runs first: an event for a version the cached copy
// already carries (a relay's pass-through plus its confirmation, a
// replayed frame, a push that lost the race to a §3.2 triggered poll) is
// dropped for free — true with no work done — whatever form it arrived
// in. A stripped or wrong-base duplicate must not cost a poll.
//
// It returns false when the payload cannot be installed — verifyPushed
// refused it, or the body alone overflows MaxBytes (installing it would
// immediately evict the object) — and the caller degrades to the pushed
// confirmation poll, the next rung of the ladder. The Δ guarantee never
// rests on this path. epoch is the lease epoch the event arrived in.
func (p *Proxy) applyPushedValue(e *entry, ev *push.Event, epoch *time.Time) bool {
	if !p.cfg.PushValues || e.evicted.Load() {
		// Nothing may be installed for an evicted entry; the poll path's
		// own eviction check disposes of the job.
		return false
	}
	if e.holdsVersion(ev.ModTime) {
		// Every write of lastMod runs on this worker, so the answer holds
		// for the rest of the job.
		p.pushDuplicates.Add(1)
		return true
	}
	base, baseDigest := e.held()
	body, ok := verifyPushed(ev, base, baseDigest)
	if !ok {
		if isPureDelta(ev) {
			p.pushDeltaBaseMiss.Add(1)
		}
		return false
	}
	if p.cfg.MaxBytes >= 0 && entrySize(e.key, body) > p.cfg.MaxBytes {
		// An object this size is refused at admission and self-evicts on
		// refresh growth; let the pushed poll run those established
		// unwind rules rather than duplicating them here.
		return false
	}
	// pollPushed leaves the regular schedule untouched; the downstream
	// confirmation install publishes is payload-free — the pass-through
	// frame already carried it (see relayInstalled).
	p.install(e, pollPushed, version{
		now:         p.cfg.Clock(),
		modified:    true,
		body:        body,
		digest:      ev.Digest,
		contentType: ev.ContentType,
		lastMod:     ev.ModTime,
		hasLastMod:  !ev.ModTime.IsZero(),
		applied:     true,
		delta:       ev.BaseDigest != "",
		epoch:       epoch,
	})
	return true
}

// applyPushedToDisk lands a pushed payload on the disk record of an
// object that is no longer (or not yet again) resident — a CLOCK
// demotion whose record survives in the persistent tier. With it, the
// record tracks the origin: under a live lease the next promotion needs
// no upstream request at all (see channelAnswer), and outside one its
// conditional fetch answers 304 against fresh state. The version check
// and the verification are the resident path's (versionHeld,
// verifyPushed), run against the record and — for a delta — the blob
// read back from disk. It reports whether the event was fully handled
// (installed, or recognized as a duplicate); one it could not absorb
// voids the record (see handlePushEvent). It runs only on the
// subscriber's goroutine, so records take events in stream order.
func (p *Proxy) applyPushedToDisk(ev push.Event) bool {
	if !p.cfg.PushValues || p.disk == nil {
		return false
	}
	ck := canonicalize(ev.Key)
	// The version check needs only the record; the body is read back
	// (and re-verified by the content-addressed store) only when a delta
	// needs its base.
	rec, ok := p.disk.Meta(ck)
	if !ok {
		return false
	}
	if versionHeld(rec.HasLastMod, rec.LastMod, ev.ModTime) {
		p.pushDuplicates.Add(1)
		return true
	}
	var base []byte
	var baseDigest string
	if isPureDelta(&ev) {
		if _, base, ok = p.disk.Get(ck); !ok {
			return false
		}
		baseDigest = push.DigestOf(base)
	}
	body, ok := verifyPushed(&ev, base, baseDigest)
	if !ok {
		if isPureDelta(&ev) {
			p.pushDeltaBaseMiss.Add(1)
		}
		return false
	}
	if ev.BaseDigest != "" {
		p.pushDeltaApplied.Add(1)
	}
	rec.ValidatedAt = p.cfg.Clock()
	if ev.ContentType != "" {
		rec.ContentType = ev.ContentType
	}
	if !ev.ModTime.IsZero() {
		rec.LastMod, rec.HasLastMod = ev.ModTime, true
	}
	p.disk.Put(rec, body)
	p.pushDiskApplied.Add(1)
	return true
}

// eventKeyResolvesTo reports whether an origin invalidation event for
// the object cached under key would resolve back to that entry through
// handlePushEvent's lookup. The origin publishes events at path
// granularity with the decoded path as the key (its objects are keyed
// by r.URL.Path), so a cache key carrying a query string can never
// match one, and a key whose decoded path does not canonicalize back
// to it (e.g. a path containing a literal '?', cached as %3F) is
// unreachable too. Entries failing this test are marked unpushable and
// keep pure-polling freshness — leasing them would widen their Δt
// bound with nothing covering the gap.
func (p *Proxy) eventKeyResolvesTo(key string) bool {
	if strings.Contains(key, "?") {
		return false // canonical keys carry queries after a raw '?'
	}
	decoded, err := url.PathUnescape(key)
	if err != nil {
		return false
	}
	if decoded == key {
		return true // verbatim store lookup finds the entry
	}
	return canonicalize(decoded) == key
}

// pushable reports whether the origin can announce the object cached
// under key in group at all: its events resolve back to the key (see
// eventKeyResolvesTo) and fit a wire frame. An entry keeps the answer as
// !unpushable; a disk record is asked afresh (see channelAnswer).
func (p *Proxy) pushable(key, group string) bool {
	return p.eventKeyResolvesTo(key) && !push.Event{Kind: push.KindUpdate, Key: key, Group: group}.Oversized()
}

// startEpoch begins a new lease epoch (see Proxy.leaseEpoch). The
// subscriber's callbacks run on one goroutine, so epochs begin in stream
// order.
func (p *Proxy) startEpoch() {
	if p.leaseTerm > 0 {
		now := p.cfg.Clock()
		p.leaseEpoch.Store(&now)
	}
}

// inEpoch reports whether evidence gathered in lease epoch epoch still
// speaks for the current one. Always true with leases off: no epoch is
// ever started.
func (p *Proxy) inEpoch(epoch *time.Time) bool {
	return p.leaseEpoch.Load() == epoch
}

// handlePushConnect marks the channel healthy, in a new lease epoch. A
// resumed connection whose gap outran the origin's replay buffer
// (hello.Reset) ran blind while leased, so the catch-up sweep
// revalidates on the paper-mode schedule before any key is leased again.
func (p *Proxy) handlePushConnect(hello push.Event, resumed bool) {
	p.startEpoch()
	p.pushHealthy.Store(true)
	if hello.Reset && resumed {
		// Events were irrecoverably missed (a reconnect gap that outran
		// the upstream's replay buffer, or a mid-stream Reset from a
		// relaying upstream that lost its own upstream): revalidate on
		// the paper-mode schedule, and hand the hole on to any children
		// of this proxy — everything relayed before this instant is
		// suspect for them exactly as the upstream's stream is for us.
		p.fallbackSweep()
		p.relayReset()
	}
}

// handlePushFrameLoss reconciles a dropped stream line (oversized or
// undecodable): its content is unknown — possibly an update this proxy
// and its children will never see, possibly a mid-stream Reset — so the
// catch-up sweep restores paper-mode schedules and the relay announces
// the hole downstream, exactly as a Reset would. The channel stays
// healthy, in a new lease epoch: each key's next poll leases it again,
// and a well-behaved upstream never triggers this at all.
func (p *Proxy) handlePushFrameLoss() {
	p.startEpoch()
	p.fallbackSweep()
	p.relayReset()
}

// handlePushDisconnect falls back to pure polling: every lease ends and
// the catch-up sweep bounds the staleness the dead channel left behind.
// Children are told too (mid-stream Reset): while this proxy is blind,
// its relay announces nothing, so their leased schedules must not
// outlive the guarantee that backed them.
func (p *Proxy) handlePushDisconnect(error) {
	if p.pushHealthy.Swap(false) {
		p.pushFallbacks.Add(1)
		p.fallbackSweep()
		p.relayReset()
	}
}

// fallbackSweep pulls every schedule entry whose poll a lease placed
// beyond its paper-mode instant back to that instant (or to now, when
// it already passed). After the sweep the schedule is exactly what pure
// paper-mode polling would have produced, so the Δt guarantee holds
// with no help from the channel.
//
// The whole sweep runs inside one schedMu critical section, paired with
// rescheduleHybrid making its lease decision under the same lock:
// pushHealthy is cleared — or, for a Reset or frame loss, a new lease
// epoch stored — before the sweep acquires schedMu, so a racing poll
// either reschedules first (its item is on the heap and gets swept) or
// takes the lock after the sweep and reads the channel as unhealthy or
// its evidence's epoch as superseded (no lease). Entries that are
// mid-poll (item == nil) reschedule through the same gate when they
// finish. The single hold is a latency spike proportional to the cache
// size, but a channel death is rare and correctness of the Δt bound wins.
func (p *Proxy) fallbackSweep() {
	if p.leaseTerm <= 0 {
		// Leases disabled: every baseNextAt equals its nextAt, so
		// the sweep is a guaranteed no-op — skip the O(cache) walk and
		// the schedMu hold it would cost on every disconnect.
		return
	}
	now := p.cfg.Clock()
	var batch []*entry
	for i := range p.store.shards {
		sh := &p.store.shards[i]
		sh.mu.RLock()
		for _, e := range sh.entries {
			batch = append(batch, e)
		}
		sh.mu.RUnlock()
	}
	pulled := false
	p.schedMu.Lock()
	for _, e := range batch {
		if e.item == nil || !e.baseNextAt.Before(e.nextAt) {
			continue // unscheduled (queued, in flight, or evicted) or unleased
		}
		at := e.baseNextAt
		if at.Before(now) {
			at = now
		}
		e.nextAt = at
		e.baseNextAt = at
		p.schedule.Reschedule(e.item, at)
		pulled = true
	}
	p.schedMu.Unlock()
	if pulled {
		p.kick()
	}
}

// leaseCovers reports whether the push channel currently carries the
// freshness of the object cached under key in group, given that the
// origin can announce it at all (see pushable; callers check that — not
// a query-bearing cache key, events are path-granular, nor a key
// exceeding the wire frame limit): leases are enabled, the stream is
// healthy, and the live interest declaration matches the object.
// Anything else keeps pure-polling freshness. A resident entry's lease
// is decided under schedMu (see rescheduleHybrid for why).
func (p *Proxy) leaseCovers(key, group string) bool {
	if p.leaseTerm <= 0 || !p.pushHealthy.Load() {
		return false
	}
	// An object outside the live upstream declaration has its updates
	// filtered away before they reach us, so the channel cannot carry its
	// freshness burden: pure-polling TTR until a bounce widens the
	// declaration. Checked dynamically — not marked at admission —
	// because the declaration this object missed is itself refreshed by
	// the admission-time bounce. Sound against a racing reconnect: a
	// lease requires pushHealthy, which flips only after the attempt's
	// declaration (stored before its request goes out) is in place.
	return !p.cfg.PushInterest || p.sub.DeclaredInterest().Matches(key, group)
}

// carriedLocked reports whether the live lease carries the resident entry
// e right now: any update to it would have been announced, so it is
// current without a poll. Every premise must hold:
//
//   - the channel covers it: leases are on, the stream is healthy, and the
//     key is pushable and inside the live declaration (see leaseCovers);
//   - its schedule is leased — its poll sits past its paper-mode instant —
//     and on the heap. rescheduleHybrid leases a schedule only for
//     evidence from the current epoch, and every epoch change sweeps it
//     back, so a raced admission, a straddled fetch, and any key after a
//     disconnect, Reset, frame loss or Bounce read as not carried until
//     the key's own next poll leases it again; a key whose poll is queued
//     or in flight is off the heap;
//   - no pushed poll of it has failed since: deferRetry ends the lease.
//
// A pushed job merely queued for it does not disqualify it: that job runs
// on the key's affinity worker ahead of anything queued after it. The
// caller holds schedMu, which orders the answer against the sweep and
// every lease decision.
func (p *Proxy) carriedLocked(e *entry) bool {
	return e.item != nil && e.baseNextAt.Before(e.nextAt) &&
		!e.unpushable && p.leaseCovers(e.key, e.group)
}

// resolveLeaseTerm computes the lease term L = PushStretch × Bounds.Max
// for a push-enabled configuration, or zero when leases are off (no
// PushURL, or PushStretch ≤ 1). The product is capped so an absurd
// factor cannot overflow a Duration or a schedule instant.
func (p *Proxy) resolveLeaseTerm() time.Duration {
	if p.cfg.PushURL == nil || p.cfg.PushStretch <= 1 {
		return 0
	}
	const ceiling = 100 * 365 * 24 * time.Hour
	if l := float64(p.maxBackoff()) * p.cfg.PushStretch; l < float64(ceiling) {
		return time.Duration(l)
	}
	return ceiling
}

// leasePhase places a covered key's first poll inside its first lease
// term: an instant in (ttr, L] after admission, fixed by the key's hash.
// Keys admitted together therefore poll at the steady N/L rate from the
// first second instead of as a herd every L, and a key's phase survives
// eviction and re-admission.
func (p *Proxy) leasePhase(key string, ttr time.Duration) time.Duration {
	span := p.leaseTerm - ttr
	// fnv32 alone clusters keys that differ only in their last bytes;
	// the multiply-xorshift finalizer spreads them over the whole range.
	h := fnv32(key)
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return ttr + time.Duration((float64(h)+1)/(1<<32)*float64(span))
}

// PushStats reports the state of the invalidation channel.
type PushStats struct {
	// Enabled reports whether the proxy was configured with a push URL.
	Enabled bool
	// Connected reports whether the channel is currently healthy
	// (leases in effect for the keys it covers).
	Connected bool
	// LeaseTerm is the resolved lease term L = PushStretch × Bounds.Max:
	// how often a covered key's regular poll runs while Connected. Zero
	// when leases are off (PushStretch ≤ 1 or no push URL).
	LeaseTerm time.Duration
	// Events counts update notifications received.
	Events uint64
	// Polls counts pushed jobs enqueued (coalesced bursts enqueue one).
	// With PushValues each job first tries to install the event's
	// payload and only polls when that fails.
	Polls uint64
	// Dropped counts events for objects that were not resident.
	Dropped uint64
	// ValueApplied counts pushed payloads installed directly — one
	// message, zero origin polls. ValueFallbacks counts pushed jobs
	// that degraded to a confirmation poll while value application was
	// enabled (digest mismatch, missing or over-cap payload, byte-budget
	// refusal).
	ValueApplied   uint64
	ValueFallbacks uint64
	// Duplicates counts pushed events dropped by the version check: the
	// cached copy (or disk record) already carried the announced
	// modification instant — a relay's payload-free confirmation of a
	// frame already installed, a replay, a push that lost the race to a
	// poll — so nothing was installed and nothing polled.
	Duplicates uint64
	// DeltaApplied counts pushed delta frames reconstructed, verified,
	// and installed (resident or disk tier). DeltaBaseMisses counts
	// deltas refused because the advertised base digest did not match
	// the body actually held (forged, stale, or raced base) — each one
	// degraded down the ladder instead of installing blind.
	// DeltaRebased counts relay publications that carried a delta form
	// for this proxy's own downstream (the upstream's delta reused when
	// the base matched, or one computed locally after a poll).
	// DiskApplied counts pushed payloads landed directly on a demoted
	// object's disk record while nothing was resident.
	DeltaApplied    uint64
	DeltaBaseMisses uint64
	DeltaRebased    uint64
	DiskApplied     uint64
	// ChunksAssembled counts chunked bodies the subscriber reassembled
	// and delivered whole; ChunksBroken counts chunk sets it abandoned
	// (hole, out-of-order frame, over-budget reassembly, or terminal
	// digest mismatch), each degraded to a confirmation poll.
	ChunksAssembled uint64
	ChunksBroken    uint64
	// Fallbacks counts healthy→disconnected transitions (each one ran a
	// catch-up sweep).
	Fallbacks uint64
	// Connects counts successful stream establishments (a mid-stream
	// Reset reconciliation is not one: the stream stayed up).
	Connects uint64
	// Bounces counts deliberate stream drops forcing an interest
	// renegotiation (an admission or a downstream subscriber outside
	// the live declaration).
	Bounces uint64
	// Resets counts mid-stream hello/Reset frames received (a relaying
	// upstream announcing a hole without dropping the connection); each
	// one ran the same reconciliation as a Reset at connect time.
	Resets uint64
	// SkippedFrames counts oversized stream lines the subscriber
	// dropped in place of dying and livelocking on reconnect replay.
	SkippedFrames uint64
	// LastSeq is the last fully processed stream position: the highest
	// of the last event handled and the stream position heartbeats have
	// advanced past frames the upstream withheld under this proxy's
	// declared interest (a filtered frame is processed by definition —
	// nobody here wanted it).
	LastSeq uint64
	// LastFrameAt is the wall-clock instant the last stream frame of
	// any kind arrived (zero before the first); HeartbeatTimeout is the
	// resolved watchdog interval. Together they bound how stale a
	// Connected reading can be — a health probe flags a connected
	// channel whose LastFrameAt trails now by more than the timeout.
	LastFrameAt      time.Time
	HeartbeatTimeout time.Duration
}

// PushStats returns the invalidation-channel counters.
func (p *Proxy) PushStats() PushStats {
	st := PushStats{
		Enabled:         p.sub != nil,
		Connected:       p.pushHealthy.Load(),
		LeaseTerm:       p.leaseTerm,
		Events:          p.pushEvents.Load(),
		Polls:           p.pushPolls.Load(),
		Dropped:         p.pushDropped.Load(),
		Fallbacks:       p.pushFallbacks.Load(),
		ValueApplied:    p.pushApplied.Load(),
		ValueFallbacks:  p.pushValueFallback.Load(),
		Duplicates:      p.pushDuplicates.Load(),
		DeltaApplied:    p.pushDeltaApplied.Load(),
		DeltaBaseMisses: p.pushDeltaBaseMiss.Load(),
		DeltaRebased:    p.pushDeltaRebased.Load(),
		DiskApplied:     p.pushDiskApplied.Load(),
		LastSeq:         p.pushSeq.Load(),
	}
	if p.sub != nil {
		st.Connects = p.sub.Connects()
		st.ChunksAssembled = p.sub.ChunksAssembled()
		st.ChunksBroken = p.sub.ChunksBroken()
		st.Bounces = p.sub.Bounces()
		st.Resets = p.sub.Resets()
		st.SkippedFrames = p.sub.SkippedFrames()
		st.LastFrameAt = p.sub.LastFrameAt()
		st.HeartbeatTimeout = p.sub.HeartbeatTimeout()
		// An event's seq is stored after its poll is enqueued, and the
		// subscriber advances only after the handler returns, so taking
		// the max preserves the quiescence invariant "LastSeq advances
		// only once the matching work is in flight".
		if ls := p.sub.LastSeq(); ls > st.LastSeq {
			st.LastSeq = ls
		}
	}
	return st
}
