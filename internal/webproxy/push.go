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
//     MutualTimeController state stays single-threaded per group. A
//     payload-carrying event is installed directly (digest-verified,
//     byte-ledger-charged; see applyPushedValue) with no origin request;
//     an event without one — or whose payload cannot be installed — makes
//     the job poll: it revalidates via If-Modified-Since and, when it
//     confirms an update, runs the §3.2 group triggering exactly as a
//     scheduled poll would. Neither form feeds the object's
//     policy or moves its paper-mode instant (pushes reveal the origin's
//     churn, not the polling frequency's fitness).
//   - While the channel is healthy a key it carries holds a lease: its
//     regular poll is an audit run a lease term after its last
//     validation — a poll's or a pushed install's, so a key pushed more
//     often than that is never audited — and what the lease carries
//     needs no poll. What a lease rests on, what ends it, and the
//     staleness each failure can cost are lease.go's.

// newPushSubscriber wires the proxy's callbacks into a subscriber for
// cfg.PushURL. It advertises the digests it holds, so the upstream can
// send an update as a delta against them.
func (p *Proxy) newPushSubscriber() (*push.Subscriber, error) {
	scfg := push.SubscriberConfig{
		URL: p.cfg.PushURL.String(),
		// The stream travels the upstream client's Transport (its TLS
		// roots, its forward proxy) but not its global Timeout, which
		// would kill the long-lived stream.
		Client:           &http.Client{Transport: p.cfg.Client.Transport},
		OnEvent:          p.handlePushEvent,
		OnConnect:        p.handlePushConnect,
		OnDisconnect:     p.handlePushDisconnect,
		OnFrameLoss:      p.handlePushFrameLoss,
		BackoffMin:       p.cfg.PushBackoffMin,
		BackoffMax:       p.cfg.PushBackoffMax,
		HeartbeatTimeout: p.cfg.PushHeartbeatTimeout,
		Held:             p.heldDigests,
	}
	if p.cfg.PushInterest {
		scfg.Interest = p.declaredInterest
	}
	return push.NewSubscriber(scfg)
}

// carriesValues reports whether bodies travel this proxy's push
// channels — it subscribes (PushURL) or relays (RelayEvents) — and so
// whether entries keep their body's digest. A pull-only proxy hashes
// and stores none.
func (p *Proxy) carriesValues() bool {
	return p.sub != nil || p.relay != nil
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
// Entries that cannot be advertised (evicted, unpushable, or holding no
// digest) are dropped before the cap, so they never crowd out one that
// can.
func (p *Proxy) heldDigests() []push.HeldDigest {
	type cand struct {
		held push.HeldDigest
		size int64
	}
	var cands []cand
	for _, e := range p.store.all() {
		if e.evicted() || e.unpushable {
			continue
		}
		if _, d := e.held(); d != "" {
			cands = append(cands, cand{push.HeldDigest{Key: e.key, Digest: d}, e.size.Load()})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].size > cands[j].size })
	held := make([]push.HeldDigest, 0, min(len(cands), heldAdvertiseMax))
	for _, c := range cands[:min(len(cands), heldAdvertiseMax)] {
		held = append(held, c.held)
	}
	return held
}

// declaredInterest computes the interest set the subscriber declares on
// its next (re)connect: the configured static prefixes, each resident
// object's ring partition (push.PartitionName: its first path segment,
// slash included, so "/news/" never drags in "/newsy"), and the sticky
// union of every downstream subscriber's own declaration. Folding
// siblings under one term keeps a large cache from exploding the
// declaration past the term bounds — overflow would widen it to
// match-all and forfeit filtering entirely. The closure runs per
// connection attempt, so a bounce (see Bounce) is all it takes to
// renegotiate. An empty result encodes as no query constraints — the
// upstream delivers everything — so filtering fails open, never closed.
func (p *Proxy) declaredInterest() push.InterestSet {
	prefixes := append([]string(nil), p.cfg.PushPrefixes...)
	for _, e := range p.store.all() {
		prefixes = append(prefixes, push.PartitionName(e.key))
	}
	set := push.NewInterest(prefixes)
	p.downMu.Lock()
	down := p.downstream
	p.downMu.Unlock()
	return set.Union(down)
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
	if ev.Kind != push.KindUpdate || ev.Key == "" {
		return
	}
	e := p.lookup(ev.Key)
	if e != nil && e.evicted() {
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
		if e = p.store.get(ck); e != nil && e.evicted() {
			e = nil
		}
	}
	if e == nil {
		// A child proxy may cache objects this proxy does not: the event
		// goes down now, payload and all, so a value-negotiated child
		// installs it with zero polls against us. (A resident key's event
		// goes down when its pushed job ends; see relay.go.)
		p.relayPassThrough(ev)
		if p.applyPushedToDisk(ev) {
			return // demoted object: its disk record absorbed the update
		}
		// Nothing held the update: the void transition (see lease.go).
		p.lease.void(canonicalize(ev.Key))
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
	pe := &pushedEvent{Event: ev, epoch: p.lease.epoch.Load(), at: p.cfg.Clock()}
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
// lease epoch it arrived in and the instant it arrived: a payload it
// delivers is evidence from that epoch and that instant, however late
// its job runs.
type pushedEvent struct {
	push.Event
	epoch *time.Time
	at    time.Time
}

// supersedes reports whether ev should replace cur in an entry's
// coalescing slot: a newer version always does; among frames for the
// same version only a more installable one (full body over a delta that
// needs its base, either over no payload at all) — so a stripped
// repeat, or a delta against a base this proxy may not hold,
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
// base, 2 is the whole body.
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
// against its base.
func isPureDelta(ev *push.Event) bool {
	return ev.HasBody && ev.BaseDigest != "" && ev.DeltaCodec != 0
}

// held returns the cached body and its digest (empty on a pull-only
// proxy, see carriesValues) — the base a pushed delta must name.
func (e *entry) held() ([]byte, string) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.body, e.bodyDigest
}

// verifyPushed returns the full body a pushed event delivers, verified:
// whichever tier installs it, nothing is accepted that does not hash to
// the frame's digest. A delta frame is applied against base, and only when
// baseDigest — the digest of the bytes actually in hand (kept with the
// resident body at every swap, hashed from the blob read back from
// disk), never bookkeeping that could have gone stale — is the base the
// frame names: that is the invariant keeping a demoted or raced body
// from ever serving as a silent wrong base. A forged or stale base, a
// hostile delta stream, a result or a full body with the wrong digest,
// or no payload at all (a stripped or pure-invalidation frame) reports
// ok=false, and the caller degrades to the next rung of the ladder.
// base and baseDigest are read only for a pure delta.
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
	}
	return ev.Body, push.DigestOf(ev.Body) == ev.Digest
}

// acceptPushed is the acceptance step a pushed payload passes before it
// lands on either tier — the resident entry (applyPushedValue) or a
// demoted object's disk record (applyPushedToDisk): the version check
// against the copy's modification instant (held; has says whether it has
// one), then verifyPushed against the copy's body, which base reads only
// for a pure delta. ok reports a verified version to land, validated with
// no origin request; dup, that the copy already carries the announced
// version or a later one, so there is nothing to land and nothing to
// poll — whatever form the event arrived in, since a stripped or
// wrong-base duplicate must not cost a poll. Origins guarantee strictly
// increasing modification times, so an announcement at or before the
// held instant is a replayed frame, or a push that lost the race to a
// poll or a cold admission; a timeless one can never be recognized.
// A verified payload whose Cache-Control forbids storing it (see
// unstorable) evicts the copy held under key, disk record included, as
// pollEntry does for the same answer, and is reported as dup: there is
// nothing to land and nothing to poll. Neither ok nor dup means the
// payload cannot land, and the caller degrades to the next rung of the
// ladder.
func (p *Proxy) acceptPushed(key string, ev *push.Event, held time.Time, has bool, base func() ([]byte, string)) (v version, dup, ok bool) {
	if has && !ev.ModTime.IsZero() && !ev.ModTime.After(held) {
		p.pushDuplicates.Add(1)
		return version{}, true, false
	}
	var b []byte
	var digest string
	delta := isPureDelta(ev)
	if delta {
		b, digest = base()
	}
	body, ok := verifyPushed(ev, b, digest)
	if !ok {
		if delta {
			p.pushDeltaBaseMiss.Add(1)
		}
		return version{}, false, false
	}
	if unstorable(ev.CacheControl) {
		p.Evict(key)
		return version{}, true, false
	}
	v = version{
		modified:     true,
		body:         body,
		digest:       ev.Digest,
		contentType:  ev.ContentType,
		cacheControl: ev.CacheControl,
		lastMod:      ev.ModTime,
		hasLastMod:   !ev.ModTime.IsZero(),
		applied:      true,
	}
	if delta {
		v.delta, v.deltaBase = ev.Body, ev.BaseDigest
	}
	return v, false, true
}

// applyPushedValue installs a pushed event's payload directly into the
// cache — the value-carrying fast path: one message from the origin,
// zero confirmation polls. It runs on the entry's affinity worker (the
// same serialization domain as every poll of the object and its group),
// so body swaps, controller observations, and §3.2 triggering stay
// single-threaded exactly as they are for polls. The install is a
// validation: the payload's body and headers replace the cached ones
// (see headersOver), and a carried key's audit moves to a lease term
// after the event arrived, in the epoch it arrived in (see deferAudit).
//
// It reports whether the payload was installed, or else recognized as a
// duplicate or evicted as unstorable (see acceptPushed). Neither means the payload cannot be
// installed — acceptPushed refused it, or the body alone overflows
// MaxBytes (installing it would immediately evict the object) — and the
// caller degrades to the pushed confirmation poll, the next rung of the
// ladder. The Δ guarantee never rests on this path.
func (p *Proxy) applyPushedValue(e *entry, pe *pushedEvent) (installed, dup bool) {
	if e.evicted() {
		// Nothing may be installed for an evicted entry; the poll path's
		// own eviction check disposes of the job.
		return false, false
	}
	// Every write of lastMod runs on this worker, so the version check
	// holds for the rest of the job.
	e.mu.RLock()
	held, has := e.lastModified()
	e.mu.RUnlock()
	v, dup, ok := p.acceptPushed(e.key, &pe.Event, held, has, e.held)
	if !ok || p.cfg.MaxBytes >= 0 && entrySize(e.key, v.body) > p.cfg.MaxBytes {
		// A body too large for the budget is refused at admission and
		// self-evicts on refresh growth; the pushed poll runs those
		// established unwind rules rather than duplicating them here.
		return false, dup
	}
	// The install validates a carried key, so its audit moves to a term
	// after the event arrived (see deferAudit), and it publishes the
	// version downstream, payload and all (see relayInstalled).
	v.now, v.epoch, v.arrived = p.cfg.Clock(), pe.epoch, pe.at
	p.install(e, pollPushed, v)
	return true, false
}

// applyPushedToDisk lands a pushed payload on the disk record of an
// object that is no longer (or not yet again) resident — a CLOCK
// demotion whose record survives in the persistent tier. With it, the
// record tracks the origin: under a live lease the next promotion needs
// no upstream request at all (see channelAnswer), and outside one its
// conditional fetch answers 304 against fresh state. It accepts the
// payload as the resident path does (acceptPushed), against the record
// and — for a delta — the blob read back from disk, and lands its
// headers by the same rule (headersOver). It reports whether the event
// was fully handled (installed, recognized as a duplicate, or evicted as
// unstorable); one it
// could not absorb is voided (see handlePushEvent). It runs only on the
// subscriber's goroutine, so records take events in stream order.
func (p *Proxy) applyPushedToDisk(ev push.Event) bool {
	if p.disk == nil {
		return false
	}
	ck := canonicalize(ev.Key)
	// The version check needs only the record; the body is read back (and
	// re-verified by the content-addressed store) only when a delta needs
	// its base, and an unreadable one is a base this tier does not hold.
	rec, ok := p.disk.Meta(ck)
	if !ok {
		return false
	}
	v, dup, ok := p.acceptPushed(ck, &ev, rec.LastMod, rec.HasLastMod, func() ([]byte, string) {
		if _, body, ok := p.disk.Get(ck); ok {
			return body, push.DigestOf(body)
		}
		return nil, ""
	})
	if !ok {
		return dup
	}
	if v.delta != nil {
		p.pushDeltaApplied.Add(1)
	}
	rec.ValidatedAt = p.cfg.Clock()
	rec.ContentType, rec.CacheControl = v.headersOver(rec.ContentType, rec.CacheControl)
	if v.hasLastMod {
		rec.LastMod, rec.HasLastMod = v.lastMod, true
	}
	p.disk.Put(rec, v.body)
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
// under key at all: its events resolve back to the key (see
// eventKeyResolvesTo) and fit a wire frame. An entry keeps the answer as
// !unpushable; a disk record is asked afresh (see channelAnswer).
func (p *Proxy) pushable(key string) bool {
	return p.eventKeyResolvesTo(key) && !push.Event{Kind: push.KindUpdate, Key: key}.Oversized()
}

// handlePushConnect marks the channel healthy, in a new lease epoch. A
// resumed connection whose gap outran the origin's replay buffer
// (hello.Reset) ran blind while leased, so the catch-up sweep
// revalidates on the paper-mode schedule before any key is leased again.
func (p *Proxy) handlePushConnect(hello push.Event, resumed bool) {
	p.auditRefused.Store(nil) // the upstream may speak the batch grammar now
	p.lease.connect()
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
	p.lease.begin()
	p.fallbackSweep()
	p.relayReset()
}

// handlePushDisconnect falls back to pure polling: every lease ends and
// the catch-up sweep bounds the staleness the dead channel left behind.
// Children are told too (mid-stream Reset): while this proxy is blind,
// its relay announces nothing, so their leased schedules must not
// outlive the guarantee that backed them.
func (p *Proxy) handlePushDisconnect(error) {
	if p.lease.healthy.Swap(false) {
		p.pushFallbacks.Add(1)
		p.fallbackSweep()
		p.relayReset()
	}
}

// PushStats reports the state of the invalidation channel.
type PushStats struct {
	// Enabled reports whether the proxy was configured with a push URL.
	Enabled bool `metric:"gauge broadway_push_enabled" help:"1 when the proxy subscribes to an invalidation channel."`
	// Connected reports whether the channel is currently healthy
	// (leases in effect for the keys it covers).
	Connected bool `metric:"gauge broadway_push_connected" help:"1 while the invalidation channel is healthy."`
	// LeaseTerm is the resolved lease term L = PushStretch × Bounds.Max:
	// how long after its last validation — a poll, or a pushed install —
	// a covered key is audited while Connected. Zero when leases are off
	// (PushStretch ≤ 1 or no push URL).
	LeaseTerm time.Duration `metric:"gauge broadway_push_lease_term_seconds" help:"Interval from a covered key's last validation to its audit while the channel is healthy (0 when leases are off)."`
	// AuditsDeferred counts pushed installs — a verified payload, or a
	// pushed poll's answer — that moved a carried key's audit later, to a
	// lease term after the evidence arrived.
	AuditsDeferred uint64 `metric:"counter broadway_push_audits_deferred_total" help:"Pushed installs that moved a carried key's audit later."`
	// Events counts update notifications received.
	Events uint64 `metric:"counter broadway_push_events_total" help:"Update notifications received on the channel."`
	// Polls counts pushed jobs enqueued (coalesced bursts enqueue one).
	// Each job first tries to install the event's payload and only polls
	// when that fails.
	Polls uint64 `metric:"counter broadway_push_polls_total" help:"Pushed jobs enqueued from events."`
	// Dropped counts events for objects that were not resident.
	Dropped uint64 `metric:"counter broadway_push_dropped_total" help:"Events dropped for non-resident objects."`
	// ValueApplied counts pushed payloads installed directly — one
	// message, zero origin polls. ValueFallbacks counts pushed jobs
	// that degraded to a confirmation poll. Every event an origin
	// publishes carries its body, so each one is a degraded rung: a
	// frame stripped because no rung could carry its body, a digest
	// mismatch, a delta whose base this proxy does not hold, a broken
	// chunk set, or a byte-budget refusal. On a healthy ladder it reads
	// 0.
	ValueApplied   uint64 `metric:"counter broadway_push_value_applied_total" help:"Pushed payloads installed directly, zero origin polls."`
	ValueFallbacks uint64 `metric:"counter broadway_push_value_fallbacks_total" help:"Pushed jobs degraded to a confirmation poll."`
	// Duplicates counts pushed events dropped by the version check: the
	// cached copy (or disk record) already carried the announced
	// modification instant — a replay, a push that lost the race to a
	// poll or a cold admission — so nothing was installed and nothing
	// polled. A relay passes such an event on as received: its children
	// may not have heard of the version.
	Duplicates uint64 `metric:"counter broadway_push_duplicates_total" help:"Pushed events dropped by the version check (cached copy already at that version)."`
	// DeltaApplied counts pushed delta frames reconstructed, verified,
	// and installed (resident or disk tier). DeltaBaseMisses counts
	// deltas refused because the advertised base digest did not match
	// the body actually held (forged, stale, or raced base) — each one
	// degraded down the ladder instead of installing blind.
	// DeltaRebased counts relay publications that carried a delta form
	// for this proxy's own downstream (the delta a payload arrived as,
	// reused when its base is the body the install replaced, or one
	// computed here).
	// DiskApplied counts pushed payloads landed directly on a demoted
	// object's disk record while nothing was resident.
	DeltaApplied    uint64 `metric:"counter broadway_push_delta_applied_total" help:"Pushed delta frames reconstructed, verified, and installed."`
	DeltaBaseMisses uint64 `metric:"counter broadway_push_delta_base_misses_total" help:"Pushed deltas refused for a base digest mismatch, degraded down the ladder."`
	DeltaRebased    uint64 `metric:"counter broadway_push_delta_rebased_total" help:"Relay publications carrying a delta form for this proxy's downstream."`
	DiskApplied     uint64 `metric:"counter broadway_push_disk_applied_total" help:"Pushed payloads landed on demoted objects' disk records."`
	// ChunksAssembled counts chunked bodies the subscriber reassembled
	// and delivered whole; ChunksBroken counts chunk sets it abandoned
	// (hole, out-of-order frame, over-budget reassembly, or terminal
	// digest mismatch), each degraded to a confirmation poll.
	ChunksAssembled uint64 `metric:"counter broadway_push_chunks_assembled_total" help:"Chunked bodies reassembled and delivered whole."`
	ChunksBroken    uint64 `metric:"counter broadway_push_chunks_broken_total" help:"Chunk sets abandoned and degraded to a confirmation poll."`
	// Fallbacks counts healthy→disconnected transitions (each one ran a
	// catch-up sweep).
	Fallbacks uint64 `metric:"counter broadway_push_fallbacks_total" help:"Healthy-to-disconnected transitions, each running a catch-up sweep."`
	// Connects counts successful stream establishments (a mid-stream
	// Reset reconciliation is not one: the stream stayed up).
	Connects uint64 `metric:"counter broadway_push_connects_total" help:"Successful stream establishments."`
	// Bounces counts deliberate stream drops forcing an interest
	// renegotiation (an admission or a downstream subscriber outside
	// the live declaration).
	Bounces uint64 `metric:"counter broadway_push_bounces_total" help:"Deliberate stream drops forcing interest renegotiation."`
	// Resets counts mid-stream hello/Reset frames received (a relaying
	// upstream announcing a hole without dropping the connection); each
	// one ran the same reconciliation as a Reset at connect time.
	Resets uint64 `metric:"counter broadway_push_stream_resets_total" help:"Mid-stream hello/Reset frames received."`
	// SkippedFrames counts oversized stream lines the subscriber
	// dropped in place of dying and livelocking on reconnect replay.
	SkippedFrames uint64 `metric:"counter broadway_push_skipped_frames_total" help:"Oversized or undecodable stream lines dropped in place."`
	// LastSeq is the subscriber's stream position (Subscriber.LastSeq):
	// the last event whose handler has returned, so its job is already
	// counted in InFlightPolls, moved past frames the upstream withheld
	// under this proxy's declared interest by heartbeats (a filtered
	// frame is processed by definition — nobody here wanted it).
	LastSeq uint64 `metric:"gauge broadway_push_last_seq" help:"Last fully processed stream position."`
	// LastFrameAt is the wall-clock instant the last stream frame of
	// any kind arrived (zero before the first); HeartbeatTimeout is the
	// resolved watchdog interval. Together they bound how stale a
	// Connected reading can be — a health probe flags a connected
	// channel whose LastFrameAt trails now by more than the timeout.
	LastFrameAt      time.Time     `metric:"gauge broadway_push_last_frame_timestamp_seconds" help:"Unix time of the last stream frame of any kind (0 before any)."`
	HeartbeatTimeout time.Duration `metric:"gauge broadway_push_heartbeat_timeout_seconds" help:"Watchdog interval declaring the stream dead without frames."`
}

// PushStats returns the invalidation-channel counters.
func (p *Proxy) PushStats() PushStats {
	st := PushStats{
		Enabled:         p.sub != nil,
		Connected:       p.lease.healthy.Load(),
		LeaseTerm:       p.lease.term,
		AuditsDeferred:  p.auditsDeferred.Load(),
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
	}
	if p.sub != nil {
		ss := p.sub.Stats()
		st.Connects, st.Bounces, st.Resets, st.SkippedFrames = ss.Connects, ss.Bounces, ss.Resets, ss.SkippedFrames
		st.ChunksAssembled, st.ChunksBroken, st.LastFrameAt = ss.ChunksAssembled, ss.ChunksBroken, ss.LastFrameAt
		st.HeartbeatTimeout = p.sub.HeartbeatTimeout()
		st.LastSeq = p.sub.LastSeq()
	}
	return st
}
