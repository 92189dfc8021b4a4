package webproxy

import (
	"cmp"
	"errors"
	"strings"
	"sync"
	"time"

	"broadway/internal/core"
	"broadway/internal/push"
	"broadway/internal/sched"
)

// This file is the refresh engine: a dispatcher goroutine that pops due
// entries off the min-heap schedule and a bounded pool of poll workers
// that perform the origin fetches. Work is routed to workers by the
// FNV hash of the entry's serialization key (its consistency group when
// it has one, else its cache key), so polls of one object — and of all
// objects sharing a group — always execute on the same worker in order.
// That affinity is what keeps the per-group MutualTimeController and the
// shared state of partitioned M_v policy pairs single-threaded while
// unrelated objects refresh fully in parallel.

// pollKind distinguishes why a poll was requested. Regular polls come
// off the TTR schedule and feed the policy; triggered polls are demanded
// by a mutual-consistency controller; pushed polls are demanded by the
// origin's invalidation channel. Neither feeds the policy's learned TTR
// or moves the paper-mode instant; a pushed poll's answer only moves a
// carried key's audit later (see deferAudit), and one that confirms an
// update runs the §3.2 group triggering exactly as a regular poll would —
// the channel must not weaken mutual consistency.
type pollKind uint8

const (
	pollRegular pollKind = iota
	pollTriggered
	pollPushed
	pollKinds // number of kinds
)

// job is one unit of poll work routed to a worker. A regular job whose
// poll a batch already answered carries that answer: a 304, or the 200
// or 226 its GET would have returned (see audit.go).
type job struct {
	e        *entry
	kind     pollKind
	answered *version
}

// worker is one poll worker with an unbounded mailbox. The mailbox must
// be unbounded: a worker enqueues triggered polls for its own group
// (i.e. to itself) mid-poll, which would deadlock on a bounded channel.
type worker struct {
	mu    sync.Mutex
	queue []job
	head  int // index of the next job; consumed prefix is compacted lazily
	wake  chan struct{}
}

func (w *worker) enqueue(j job) {
	w.mu.Lock()
	w.queue = append(w.queue, j)
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

func (w *worker) dequeue() (job, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.head == len(w.queue) {
		if w.head != 0 {
			w.queue = w.queue[:0]
			w.head = 0
		}
		return job{}, false
	}
	j := w.queue[w.head]
	w.queue[w.head] = job{}
	w.head++
	// Compact once the consumed prefix dominates, keeping pops O(1)
	// amortized while bounding memory held by drained bursts.
	if w.head > 64 && w.head*2 >= len(w.queue) {
		n := copy(w.queue, w.queue[w.head:])
		w.queue = w.queue[:n]
		w.head = 0
	}
	return j, true
}

// workerFor routes e to its affinity worker.
func (p *Proxy) workerFor(e *entry) *worker {
	k := e.group.String()
	if k == "" {
		k = e.key
	}
	return p.workers[fnv32(k)%uint32(len(p.workers))]
}

// workerLoop drains one worker's mailbox until the proxy closes.
func (p *Proxy) workerLoop(w *worker) {
	defer p.wg.Done()
	for {
		select {
		case <-p.done:
			return
		default:
		}
		if j, ok := w.dequeue(); ok {
			if j.answered != nil {
				p.installAnswered(j.e, j.answered)
			} else {
				p.pollEntry(j.e, j.kind)
			}
			p.pending.Add(-1)
			continue
		}
		select {
		case <-p.done:
			return
		case <-w.wake:
		}
	}
}

// dispatchLoop pops due entries off the schedule and hands them to their
// affinity workers, or — while the upstream takes batches — to
// sendAudits, with the pull-mode polls piggybacked on the pass (see
// popLocked). It sleeps until the heap's earliest instant, waking early
// when the schedule changes.
func (p *Proxy) dispatchLoop() {
	defer p.wg.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		now := p.cfg.Clock()
		batching := p.batching(now)
		var due []*entry
		pulls := false // the pass popped an unleased poll
		p.schedMu.Lock()
		for it := p.popLocked(now, false); it != nil; it = p.popLocked(now, batching && pulls) {
			e := it.Payload.(*entry)
			leased := p.leasedLocked(e)
			if e.evicted() {
				continue // unwound between Remove and this pop; drop it
			}
			// Count the job before the heap stops covering it, still
			// under schedMu: quiescence probes (InFlightPolls +
			// NextRefreshAt) must never observe the gap between pop and
			// enqueue.
			p.pending.Add(1)
			pulls = pulls || !leased
			due = append(due, e)
		}
		wait := time.Hour
		if it := p.schedule.Peek(); it != nil {
			wait = it.At.Sub(now)
			if wait < 0 {
				wait = 0
			}
		}
		p.schedMu.Unlock()
		if batching {
			p.sendAudits(due)
		} else {
			p.pollEach(due)
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-p.done:
			return
		case <-p.wake:
		case <-timer.C:
		}
	}
}

// popLocked pops the schedule's next item for a dispatcher pass at now:
// one due by now, or, when early is set, the earliest item when it is an
// unleased poll due within piggybackWindow of now. A leased audit is
// never popped early — its bucket is its batch — and the early pops stop
// at the first one. The caller holds schedMu.
func (p *Proxy) popLocked(now time.Time, early bool) *sched.Item {
	if it := p.schedule.PopDue(now); it != nil || !early {
		return it
	}
	it := p.schedule.Peek()
	if it == nil || it.At.After(now.Add(p.piggybackWindow())) || p.carriedLocked(it.Payload.(*entry)) {
		return nil
	}
	return p.schedule.Pop()
}

// kick wakes the dispatcher after schedule changes.
func (p *Proxy) kick() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// reschedule sets e's next regular poll instant (never leased: the
// instant doubles as its own paper-mode baseline). An evicted entry is
// never (re)scheduled: the eviction token is set before unschedule takes
// schedMu, so checking it under schedMu closes the race with a poll
// finishing while its entry is being evicted — whichever side runs
// second leaves the entry off the heap.
func (p *Proxy) reschedule(e *entry, at time.Time) {
	p.schedMu.Lock()
	if e.evicted() {
		p.schedMu.Unlock()
		return
	}
	p.placeLocked(e, at, at)
	p.schedMu.Unlock()
	p.kick()
}

// placeLocked puts e on the refresh heap at instant at, with base as its
// paper-mode instant. The caller holds schedMu and has checked the
// eviction token.
func (p *Proxy) placeLocked(e *entry, at, base time.Time) {
	e.leased = at.Sub(base)
	if e.item.Pending() {
		p.schedule.Reschedule(&e.item, at)
	} else {
		e.item.Payload = e
		p.schedule.Add(&e.item, at)
	}
}

// unschedule removes e's pending poll, if any, from the refresh heap.
func (p *Proxy) unschedule(e *entry) {
	p.schedMu.Lock()
	p.schedule.Remove(&e.item)
	e.item.At, e.leased = time.Time{}, 0
	p.schedMu.Unlock()
}

// leaveGroup detaches an evicted entry from its consistency group: it is
// dropped from the member list (no more triggered polls target it) and
// the controller forgets its learned update rate. Evicting half of a
// partitioned M_v pair widows the survivor, which is unpaired and
// returned to an individual AdaptiveTTR policy over its own Δv — its
// tightened tolerance share would otherwise poll forever for a partner
// that no longer exists — leaving it free to re-pair with the next
// value member admitted to the group.
func (p *Proxy) leaveGroup(e *entry) {
	group := e.group.String()
	if group == "" {
		return
	}
	// groupMu is held for the whole removal (lock order groupMu →
	// gs.mu, matching groupStateOrCreate → joinGroup) so that a group
	// emptied here can be retired from the map atomically with marking
	// it dead — a concurrent joinGroup then either sees the dead state
	// and retries, or the removal sees its member and keeps the group.
	p.groupMu.Lock()
	defer p.groupMu.Unlock()
	gs := p.groups[group]
	if gs == nil {
		return
	}
	gs.mu.Lock()
	defer gs.mu.Unlock()
	for i, m := range gs.members {
		if m == e {
			gs.members = append(gs.members[:i], gs.members[i+1:]...)
			break
		}
	}
	if e.vx != nil {
		if other := e.vx.partner; other != nil {
			e.vx.partner = nil
			p.widow(other, e)
		}
	}
	gs.ctrl.Forget(core.ObjectID(e.key))
	if len(gs.members) == 0 {
		// Last member gone: retire the group so churn over distinct
		// group names cannot leak controllers.
		gs.dead = true
		delete(p.groups, group)
	}
}

// widow returns other, the partner e just left, to an individual
// AdaptiveTTR policy over its own Δv, unless it has re-paired since. The
// caller holds the group's mu.
func (p *Proxy) widow(other, e *entry) {
	if other.vx.partner != e {
		return
	}
	other.vx.partner = nil
	other.mu.Lock()
	other.vx.paired = false
	other.policy = p.newPolicy(0, other.vx.valueDelta, 0)
	other.mu.Unlock()
}

// scheduledNextAt reads e's next regular poll instant.
func (p *Proxy) scheduledNextAt(e *entry) time.Time {
	p.schedMu.Lock()
	defer p.schedMu.Unlock()
	return e.item.At
}

// pollEntry performs one refresh of e against the origin. A pushed job
// first tries to install the event's payload directly (the
// value-carrying fast path) and only reaches the origin when that is
// impossible — always, for an event that carries no payload. A pushed
// job is also its event's one publication to this proxy's children (see
// relay.go): install publishes a version the job lands, and a job that
// lands none passes the event on as received when it ends. An answer
// that the object is gone (404 or 410) or elsewhere (a redirect), or that
// it must not be stored (see unstorable), evicts the copy as Evict does,
// disk record included: kept, it would be polled with backoff and served
// STALE, or held against the origin's word. The next request hears the
// origin, and a relay's children learn of it at their next poll.
func (p *Proxy) pollEntry(e *entry, kind pollKind) {
	landed := false
	if kind == pollPushed {
		// Empty the coalescing slot before anything else: an event arriving
		// mid-job must enqueue a fresh job (this one may already have read
		// an older version).
		pe := e.pendingPush.Swap(nil)
		defer func() {
			if !landed {
				p.relayPassThrough(pe.Event)
			}
		}()
		var dup bool
		if landed, dup = p.applyPushedValue(e, pe); landed || dup {
			return // no origin request
		}
		p.pushValueFallback.Add(1)
	}
	// An entry evicted after being popped off the schedule (or while
	// queued on its worker) must not poll the origin: eviction promises
	// the object never causes another upstream request.
	if e.evicted() {
		if kind == pollPushed {
			// Demoted between the event and this job: the update landed
			// nowhere (the void transition, see lease.go).
			p.lease.void(e.key)
		}
		return
	}
	// A copy with a Last-Modified holds the body that instant names: the
	// base of a delta-encoded answer.
	e.mu.RLock()
	since := e.since()
	var base []byte
	if e.hasLastMod {
		base = e.body
	}
	e.mu.RUnlock()

	v, err := p.fetch(e.key, since, base)
	var gone *originAnswer
	if errors.As(err, &gone) || err == nil && unstorable(v.cacheControl) {
		p.Evict(e.key)
		return
	}
	if err != nil {
		p.deferRetry(e, p.cfg.Clock(), kind)
		if kind == pollPushed {
			// The announced update has not landed: the void transition,
			// after deferRetry ended the lease (see lease.go).
			p.lease.void(e.key)
		}
		return
	}
	landed = v.modified // install publishes a new version downstream
	p.install(e, kind, *v)
}

// version is one validated version of an object as its source delivered
// it: the answer to an upstream request, a GET's or a batch's (a 200 or
// 226 carrying a body, or a 304 carrying none; see answerVersion), a
// pushed payload (see acceptPushed), or the 304 a live lease answers for a
// promotion (see channelAnswer).
type version struct {
	now time.Time // validation instant on the proxy's clock
	// modified marks a new body; false is a 304, which revalidates the
	// copy and may still refresh its headers (see headersOver).
	modified bool
	body     []byte
	// digest is push.DigestOf(body) when the source has verified it (a
	// pushed payload); empty otherwise, and install hashes the body
	// itself where digests are kept.
	digest string
	// contentType and cacheControl are the headers the source stated;
	// headersOver lands them on a stored copy.
	contentType  string
	cacheControl string
	// lastMod is the origin's modification instant, when it stated one.
	lastMod    time.Time
	hasLastMod bool
	history    []time.Time
	// applied marks a version the push channel supplied with no origin
	// request: a pushed payload installed directly, or the 304 a live
	// lease answers for a promotion.
	applied bool
	// delta is the delta the version arrived as — a pushed payload's, or
	// a verified 226's, to a GET or inline — against the body digested
	// deltaBase; nil for a body that arrived whole. The relay passes it on
	// when that base is the body the install replaced (see relayInstalled).
	delta     []byte
	deltaBase string
	// epoch is the lease epoch the version's evidence was gathered in:
	// the request sent, or the pushed event received; arrived is the
	// instant that evidence reached this proxy — the response, or the
	// event.
	epoch   *time.Time
	arrived time.Time
}

// headersOver returns the Content-Type and Cache-Control a stored copy
// holding ct and cc keeps once v lands on it — an entry (install,
// admitFrom) or a disk record (applyPushedToDisk). A version carrying a
// body states the whole representation, so both headers are replaced
// wholesale, empty included: an origin that clears an object's §5.1
// tolerances clears them with its next 200 or pushed payload. A 304
// updates only the headers it states (RFC 9111 §4.3.4), so it cannot
// clear one.
func (v *version) headersOver(ct, cc string) (string, string) {
	if v.modified {
		return v.contentType, v.cacheControl
	}
	return cmp.Or(v.contentType, ct), cmp.Or(v.cacheControl, cc)
}

// unstorable reports whether a Cache-Control forbids a shared cache to
// store the response: it carries no-store, or private with or without
// field names (RFC 9111 §5.2.2.5 and §5.2.2.7).
func unstorable(cc string) bool {
	for cc != "" {
		var d string
		d, cc, _ = strings.Cut(cc, ",")
		name, _, _ := strings.Cut(d, "=")
		name = strings.TrimSpace(name)
		if strings.EqualFold(name, "no-store") || strings.EqualFold(name, "private") {
			return true
		}
	}
	return false
}

// install is the one way a validated version replaces a resident entry's
// copy, whatever produced it — a scheduled, triggered or pushed poll
// (pollEntry) or a verified pushed payload (applyPushedValue) — and the
// only code that assigns an entry's body, digest, Last-Modified and
// validation instant. It runs on the entry's affinity worker. In order:
// per-source counters, the swap under the entry lock with the
// core.PollOutcome built from it, byte-ledger re-charge with budget
// re-enforcement, downstream relay publication, the eviction-token-
// guarded controller observation, disk write-behind, rescheduling (a
// regular poll reschedules and feeds the policy; a pushed install — a
// verified payload or a pushed poll's answer — moves a carried key's
// audit to a term after its evidence arrived, leaving the paper-mode
// instant and the policy alone; a triggered poll touches neither), §3.2
// group triggering (a sibling the lease carries is vouched for, not
// polled, and reported on this version's observation), and the observer
// emission. An eviction
// mid-refresh stops everything past the controller guard: the object no
// longer owns a refresh slot, and a new version it swapped in voids the
// disk record left behind.
func (p *Proxy) install(e *entry, kind pollKind, v version) {
	if !v.applied {
		e.polls.Add(1)
		p.polls[kind].Add(1)
		switch kind {
		case pollTriggered:
			e.triggered.Add(1)
		case pollPushed:
			e.pushed.Add(1)
		}
	}
	outcome := core.PollOutcome{Now: p.toSim(v.now), Modified: v.modified}
	if v.hasLastMod {
		outcome.LastModified = p.toSim(v.lastMod)
		outcome.HasLastModified = true
	}
	for _, h := range v.history {
		outcome.History = append(outcome.History, p.toSim(h))
	}
	if v.modified && v.digest == "" && p.carriesValues() {
		v.digest = push.DigestOf(v.body) // hashed outside the entry lock
	}

	var ttr time.Duration
	var prevBody []byte
	var prevDigest string
	e.mu.Lock()
	outcome.Prev = p.toSim(e.validatedAt)
	e.failures = 0
	e.validatedAt = v.now
	ct, cc := v.headersOver(e.contentType.String(), e.cacheControl.String())
	e.contentType.set(ct)
	e.cacheControl.set(cc)
	if e.vx != nil {
		outcome.HasValue = true
		outcome.PrevValue = e.vx.value
		outcome.Value = e.vx.value
	}
	if v.modified {
		// The outgoing body is the delta base downstream subscribers hold;
		// the relay re-bases its delta form on it.
		prevBody, prevDigest = e.body, e.bodyDigest
		e.body, e.bodyDigest = v.body, v.digest
		if v.hasLastMod {
			e.setLastModified(v.lastMod)
		}
		if e.vx != nil {
			if val, ok := parseValueBody(v.body); ok {
				e.vx.value = val
				outcome.Value = val
			}
		}
	}
	if kind == pollRegular {
		ttr = e.policy.NextTTR(outcome)
	}
	paired := e.paired()
	e.mu.Unlock()

	if v.applied {
		e.applied.Add(1)
		p.pushApplied.Add(1)
		if v.delta != nil {
			p.pushDeltaApplied.Add(1)
		}
	}
	if v.modified {
		// Re-charge the byte ledger. Refreshes of one entry serialize on
		// its affinity worker, so the size transition is single-threaded;
		// resize itself is a no-op if the entry was evicted meanwhile.
		// Growth can push the ledger past MaxBytes with no admission in
		// sight, so the budget is re-enforced here too (the refreshed
		// object itself is protected — it is demonstrably live).
		p.store.resize(e, entrySize(e.key, v.body))
		if p.cfg.MaxBytes >= 0 && e.size.Load() > p.cfg.MaxBytes {
			// The body grew past the whole budget: an object this size
			// would be refused at admission, so it cannot stay resident
			// either. Removing it must precede the shrink loop — with the
			// oversized entry protected, shrink would drain every other
			// resident and still be over budget. A later request re-fetches
			// and is served uncached (BYPASS) while it stays oversized.
			if p.store.removeEntry(e) {
				p.unwind([]*entry{e})
			}
		}
		p.demote(p.store.shrink(p.cfg.MaxObjects, p.cfg.MaxBytes, p.store.shardIndex(e.key), e))
		// Published after the swap and the ledger: a child that polls on
		// the relayed event must find the fresh copy.
		p.relayInstalled(e, v, prevBody, prevDigest)
	}

	gs := p.groupState(e.group.String())
	if gs != nil {
		gs.mu.Lock()
		// Re-check the eviction token under gs.mu: if the entry was
		// evicted while this refresh was in flight, leaveGroup has run
		// (or will run) Forget for it, and feeding the outcome now
		// would resurrect controller state for a non-resident object.
		// The token is set before leaveGroup takes gs.mu, so whichever
		// side acquires gs.mu second leaves the controller clean.
		if !e.evicted() {
			gs.ctrl.ObserveOutcome(core.ObjectID(e.key), outcome)
		}
		gs.mu.Unlock()
	}
	if e.evicted() {
		// Evicted mid-refresh: no reschedule, no triggering. A new version
		// landed on a copy that is gone, so the record it left behind must
		// not pass for current.
		if v.modified {
			p.lease.void(e.key)
		}
		return
	}

	// The copy is confirmed (or replaced) against the origin: a
	// rehydrated entry sheds its suspect mark, and the validated state
	// flows to the disk tier (async write-behind; no-op when persistence
	// is disabled) — unless a lease epoch began since the evidence was
	// gathered: stamped now, it would pass for carried across the hole
	// that ended the last one.
	e.clearSuspect()
	if p.lease.current(v.epoch) {
		p.persistEntry(e)
	}

	switch kind {
	case pollRegular:
		p.rescheduleHybrid(e, v.now, ttr, time.Time{}, v.epoch)
	case pollPushed:
		p.deferAudit(e, v.arrived, v.epoch)
	}
	// Temporal group triggering; partitioned M_v pairs maintain their
	// mutual guarantee through the tolerance split instead. Pushed
	// refreshes trigger too: an update learned via the channel imposes
	// the same mutual obligation as one learned by polling — met, for a
	// sibling the lease carries, by the channel itself.
	var vouched []string
	if kind != pollTriggered && v.modified && gs != nil && !paired {
		vouched = p.triggerGroup(e, gs, v.now)
	}
	if obs := p.cfg.PollObserver; obs != nil {
		obs(PollObservation{
			Key:       e.key,
			At:        v.now,
			Modified:  v.modified,
			Triggered: kind == pollTriggered,
			Pushed:    kind == pollPushed,
			Applied:   v.applied,
			Value:     outcome.Value,
			HasValue:  outcome.HasValue,
			Vouched:   vouched,
		})
	}
}

// deferRetry handles an upstream failure with capped exponential backoff
// starting from the policy's initial TTR. The policy itself is never fed
// a failed poll, so its learned TTR state survives origin flaps intact.
func (p *Proxy) deferRetry(e *entry, now time.Time, kind pollKind) {
	e.mu.Lock()
	e.failures++
	n := int(e.failures)
	base := e.policy.InitialTTR()
	e.mu.Unlock()
	retryAt := now.Add(backoffDelay(base, n, p.maxBackoff()))
	if kind != pollRegular {
		// A failed triggered or pushed poll must still be retried
		// promptly — the group's mutual guarantee (or the pushed
		// update's freshness) is on the line — so pull the regular poll
		// forward to the retry instant. Never push an even sooner poll
		// later; a nil item means a regular poll is already queued on
		// this worker, which is itself the prompt retry.
		p.schedMu.Lock()
		pull := e.item.Pending() && retryAt.Before(e.item.At)
		if pull {
			base := e.baseNextAt()
			if retryAt.Before(base) {
				base = retryAt
			}
			p.schedule.Reschedule(&e.item, retryAt)
			e.leased = retryAt.Sub(base)
		}
		if kind == pollPushed {
			// The channel announced an update this proxy does not hold, so
			// it no longer carries the key: the lease ends here, and the
			// poll placed above is the key's paper-mode one.
			e.leased = 0
		}
		p.schedMu.Unlock()
		if pull {
			p.kick()
		}
		return
	}
	p.reschedule(e, retryAt)
}

// backoffDelay returns base doubled per consecutive failure beyond the
// first, capped at max.
func backoffDelay(base time.Duration, failures int, max time.Duration) time.Duration {
	if base <= 0 {
		base = time.Second
	}
	d := base
	for i := 1; i < failures && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// maxBackoff is the retry-delay ceiling.
func (p *Proxy) maxBackoff() time.Duration {
	if p.cfg.Bounds.Max > 0 {
		return p.cfg.Bounds.Max
	}
	return core.DefaultTTRMax
}

// triggerGroup enqueues immediate extra polls of e's group members where
// the controller demands it, and returns the members the push channel
// vouched for instead: the controller is told that a member the live
// lease carries (see carriedLocked) was polled at now — the paper's
// "previous poll within δ" exemption, with the lease supplying the
// instant. Any other member is judged on its real polls, as in paper
// mode.
func (p *Proxy) triggerGroup(e *entry, gs *groupState, now time.Time) (vouched []string) {
	if gs.ctrl.Mode() == core.TriggerNone {
		return nil // the baseline: no mutual support, nothing to vouch for
	}
	// gs.mu is held across the scan (nesting gs.mu → entry.mu matches
	// joinGroup and is taken nowhere in reverse). The member snapshot
	// runs first so the single schedMu section that follows — one
	// acquisition for the whole scan, not one per member — never holds
	// an entry lock.
	type candidate struct {
		other       *entry
		validatedAt time.Time
	}
	gs.mu.Lock()
	cands := make([]candidate, 0, len(gs.members))
	for _, other := range gs.members {
		if other == e {
			continue
		}
		other.mu.RLock()
		validatedAt := other.validatedAt
		other.mu.RUnlock()
		cands = append(cands, candidate{other, validatedAt})
	}
	var toTrigger []*entry
	p.schedMu.Lock()
	for _, c := range cands {
		prev := c.validatedAt
		if p.carriedLocked(c.other) {
			prev = now
			vouched = append(vouched, c.other.key)
		}
		if gs.ctrl.ShouldTrigger(core.ObjectID(e.key), core.ObjectID(c.other.key),
			p.toSim(now), p.toSim(prev), p.toSim(c.other.item.At)) {
			toTrigger = append(toTrigger, c.other)
		}
	}
	p.schedMu.Unlock()
	gs.mu.Unlock()
	p.groupChannelSyncs.Add(uint64(len(vouched)))
	for _, other := range toTrigger {
		// Same group ⇒ same affinity worker ⇒ the triggered poll runs
		// strictly after the current one; enqueueing is non-blocking.
		p.pending.Add(1)
		p.workerFor(other).enqueue(job{e: other, kind: pollTriggered})
	}
	return vouched
}

// groupState looks up the state for a group name ("" returns nil).
func (p *Proxy) groupState(group string) *groupState {
	if group == "" {
		return nil
	}
	p.groupMu.RLock()
	gs := p.groups[group]
	p.groupMu.RUnlock()
	return gs
}

// groupStateOrCreate returns the state for group, creating it with the
// given δ on first use.
func (p *Proxy) groupStateOrCreate(group string, groupDelta time.Duration) *groupState {
	p.groupMu.Lock()
	defer p.groupMu.Unlock()
	gs, ok := p.groups[group]
	if !ok {
		gs = &groupState{ctrl: core.NewMutualTimeController(core.MutualTimeConfig{
			Delta: groupDelta,
			Mode:  p.cfg.Mode,
		})}
		p.groups[group] = gs
	}
	return gs
}
