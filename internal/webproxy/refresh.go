package webproxy

import (
	"sync"
	"time"

	"broadway/internal/core"
	"broadway/internal/push"
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
// origin's invalidation channel. Triggered and pushed polls leave the
// regular schedule and the policy's learned TTR untouched, but a pushed
// poll that confirms an update runs the §3.2 group triggering exactly as
// a regular poll would — the channel must not weaken mutual consistency.
type pollKind uint8

const (
	pollRegular pollKind = iota
	pollTriggered
	pollPushed
	pollKinds // number of kinds
)

// job is one unit of poll work routed to a worker.
type job struct {
	e    *entry
	kind pollKind
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
	k := e.group
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
			p.pollEntry(j.e, j.kind)
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
// affinity workers. It sleeps until the heap's earliest instant, waking
// early when the schedule changes.
func (p *Proxy) dispatchLoop() {
	defer p.wg.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		now := p.cfg.Clock()
		var due []*entry
		p.schedMu.Lock()
		for {
			it := p.schedule.PopDue(now)
			if it == nil {
				break
			}
			e := it.Payload.(*entry)
			e.item = nil
			if e.evicted.Load() {
				continue // unwound between Remove and this pop; drop it
			}
			// Count the job before the heap stops covering it, still
			// under schedMu: quiescence probes (InFlightPolls +
			// NextRefreshAt) must never observe the gap between pop and
			// enqueue.
			p.pending.Add(1)
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
		for _, e := range due {
			p.workerFor(e).enqueue(job{e: e, kind: pollRegular})
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
	if e.evicted.Load() {
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
	e.nextAt = at
	e.baseNextAt = base
	if e.item != nil {
		p.schedule.Reschedule(e.item, at)
	} else {
		e.item = p.schedule.Push(at, e)
	}
}

// rescheduleHybrid sets e's next regular poll. Its paper-mode instant
// is ttr after now; while a lease covers e (see leaseCovers) the poll is
// an audit of the channel, not of the object, and runs once per lease
// term instead — one full term after a poll, or at the key's phase
// inside the first term when the entry was just admitted. The
// paper-mode instant is remembered so the fallback sweep can restore it
// if the channel dies before the poll runs. The lease decision is made
// under schedMu — the same lock the sweep holds for its entire pass — so
// a poll racing a disconnect either reschedules before the sweep (and is
// swept back) or observes the channel already unhealthy; a leased
// instant can never slip onto the heap after the sweep has passed it by.
func (p *Proxy) rescheduleHybrid(e *entry, now time.Time, ttr time.Duration, admitted bool) {
	p.schedMu.Lock()
	if e.evicted.Load() {
		p.schedMu.Unlock()
		return
	}
	base := now.Add(ttr)
	at := base
	if p.leaseCovers(e) {
		term := p.leaseTerm
		if admitted {
			term = p.leasePhase(e.key, ttr)
		}
		if term > ttr {
			at = now.Add(term)
		}
	}
	p.placeLocked(e, at, base)
	p.schedMu.Unlock()
	p.kick()
}

// unschedule removes e's pending poll, if any, from the refresh heap.
func (p *Proxy) unschedule(e *entry) {
	p.schedMu.Lock()
	if e.item != nil {
		p.schedule.Remove(e.item)
		e.item = nil
	}
	e.nextAt = time.Time{}
	e.baseNextAt = time.Time{}
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
	if e.group == "" {
		return
	}
	// groupMu is held for the whole removal (lock order groupMu →
	// gs.mu, matching groupStateOrCreate → joinGroup) so that a group
	// emptied here can be retired from the map atomically with marking
	// it dead — a concurrent joinGroup then either sees the dead state
	// and retries, or the removal sees its member and keeps the group.
	p.groupMu.Lock()
	defer p.groupMu.Unlock()
	gs := p.groups[e.group]
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
	if other := e.partner; other != nil {
		e.partner = nil
		if other.partner == e {
			other.partner = nil
			other.mu.Lock()
			other.paired = false
			other.policy = core.NewAdaptiveTTR(core.AdaptiveTTRConfig{
				Delta:  other.valueDelta,
				Bounds: p.cfg.Bounds,
			})
			other.mu.Unlock()
		}
	}
	gs.ctrl.Forget(core.ObjectID(e.key))
	if len(gs.members) == 0 {
		// Last member gone: retire the group so churn over distinct
		// group names cannot leak controllers.
		gs.dead = true
		delete(p.groups, e.group)
	}
}

// scheduledNextAt reads e's next regular poll instant.
func (p *Proxy) scheduledNextAt(e *entry) time.Time {
	p.schedMu.Lock()
	defer p.schedMu.Unlock()
	return e.nextAt
}

// pollEntry performs one refresh of e against the origin. A pushed job
// first tries to install the event's payload directly (the
// value-carrying fast path) and only reaches the origin when that is
// impossible — always, on a proxy without PushValues.
func (p *Proxy) pollEntry(e *entry, kind pollKind) {
	if kind == pollPushed {
		// Empty the coalescing slot before anything else: an event arriving
		// mid-job must enqueue a fresh job (this one may already have read
		// an older version).
		if pending := e.pendingPush.Swap(nil); pending != nil && p.cfg.PushValues {
			if p.applyPushedValue(e, pending) {
				return // installed (or a recognized duplicate): no origin request
			}
			if e.evicted.Load() && p.applyPushedToDisk(*pending) {
				// Demoted mid-flight: the entry left the store between the
				// event and this job, but its disk record survives — landing
				// the payload there keeps the demoted copy fresh for the next
				// promotion.
				return
			}
			p.pushValueFallback.Add(1)
		}
	}
	// An entry evicted after being popped off the schedule (or while
	// queued on its worker) must not poll the origin: eviction promises
	// the object never causes another upstream request.
	if e.evicted.Load() {
		return
	}
	e.mu.RLock()
	since := e.lastMod
	if !e.hasLastMod {
		since = e.validatedAt
	}
	e.mu.RUnlock()

	resp, err := p.fetch(e.key, since)
	now := p.cfg.Clock()
	if err != nil {
		p.deferRetry(e, now, kind)
		return
	}
	p.install(e, kind, version{
		now:          now,
		modified:     !resp.notModified,
		body:         resp.body,
		contentType:  resp.contentType,
		cacheControl: resp.header.Get("Cache-Control"),
		lastMod:      resp.lastMod,
		hasLastMod:   resp.hasLastMod,
		history:      resp.history,
	})
}

// version is one validated version of a resident object as its source
// delivered it: the answer to an origin poll (a 200 carrying a body, or
// a 304 carrying none) or a pushed payload.
type version struct {
	now time.Time // validation instant on the proxy's clock
	// modified marks a new body; false is a 304, which revalidates the
	// copy and may still refresh Cache-Control.
	modified bool
	body     []byte
	// digest is push.DigestOf(body) when the source has verified it (a
	// pushed payload); empty otherwise, and install hashes the body
	// itself where digests are kept.
	digest string
	// contentType and cacheControl replace the cached headers when
	// non-empty.
	contentType  string
	cacheControl string
	// lastMod is the origin's modification instant, when it stated one.
	lastMod    time.Time
	hasLastMod bool
	history    []time.Time
	// applied marks a pushed payload installed with no origin request;
	// delta, that it arrived as a delta.
	applied, delta bool
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
// regular poll only: triggered and pushed refreshes leave the schedule
// and the policy's learned TTR untouched), §3.2 group triggering, and
// the observer emission. An eviction mid-refresh stops everything past
// the controller guard: the object no longer owns a refresh slot.
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
	if v.modified && v.digest == "" && p.cfg.PushValues {
		v.digest = push.DigestOf(v.body) // hashed outside the entry lock
	}

	var ttr time.Duration
	var prevBody []byte
	var prevDigest string
	e.mu.Lock()
	outcome.Prev = p.toSim(e.validatedAt)
	e.failures = 0
	e.validatedAt = v.now
	// A 304 carries Cache-Control too (the origin writes the §5.1
	// tolerance directives on every response), and HTTP semantics say a
	// revalidation updates stored headers. Refreshing it here — not only
	// on a 200 — matters doubly under value-carrying push: pushed
	// payloads advance lastMod without touching headers, so the periodic
	// lease poll's 304 is the only channel left for a tolerance change to
	// reach this proxy and its children.
	if v.cacheControl != "" {
		e.cacheControl = v.cacheControl
	}
	if e.isValue {
		outcome.HasValue = true
		outcome.PrevValue = e.value
		outcome.Value = e.value
	}
	if v.modified {
		// The outgoing body is the delta base downstream subscribers hold;
		// the confirmation relay re-bases its delta form on it.
		prevBody, prevDigest = e.body, e.bodyDigest
		e.body, e.bodyDigest = v.body, v.digest
		if v.contentType != "" {
			e.contentType = v.contentType
		}
		if v.hasLastMod {
			e.lastMod = v.lastMod
			e.hasLastMod = true
		}
		if e.isValue {
			if val, ok := parseValueBody(v.body); ok {
				e.value = val
				outcome.Value = val
			}
		}
	}
	if kind == pollRegular {
		ttr = e.policy.NextTTR(outcome)
	}
	paired := e.paired
	e.mu.Unlock()

	if v.applied {
		e.applied.Add(1)
		p.pushApplied.Add(1)
		if v.delta {
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
		// the relayed event must find the fresh copy, never the stale one
		// a pass-through event raced.
		p.relayInstalled(e, v, prevBody, prevDigest)
	}

	gs := p.groupState(e.group)
	if gs != nil {
		gs.mu.Lock()
		// Re-check the eviction token under gs.mu: if the entry was
		// evicted while this refresh was in flight, leaveGroup has run
		// (or will run) Forget for it, and feeding the outcome now
		// would resurrect controller state for a non-resident object.
		// The token is set before leaveGroup takes gs.mu, so whichever
		// side acquires gs.mu second leaves the controller clean.
		if !e.evicted.Load() {
			gs.ctrl.ObserveOutcome(core.ObjectID(e.key), outcome)
		}
		gs.mu.Unlock()
	}
	if e.evicted.Load() {
		return // evicted mid-refresh: no reschedule, no triggering
	}

	// The copy is confirmed (or replaced) against the origin: a
	// rehydrated entry sheds its suspect mark, and the validated state
	// flows to the disk tier (async write-behind; no-op when persistence
	// is disabled).
	if e.suspect.Load() {
		e.suspect.Store(false)
	}
	p.persistEntry(e)

	if kind == pollRegular {
		p.rescheduleHybrid(e, v.now, ttr, false)
	}
	// Temporal group triggering; partitioned M_v pairs maintain their
	// mutual guarantee through the tolerance split instead. Pushed
	// refreshes trigger too: an update learned via the channel imposes
	// the same mutual obligation as one learned by polling.
	if kind != pollTriggered && v.modified && gs != nil && !paired {
		p.triggerGroup(e, gs, v.now)
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
		})
	}
}

// deferRetry handles an upstream failure with capped exponential backoff
// starting from the policy's initial TTR. The policy itself is never fed
// a failed poll, so its learned TTR state survives origin flaps intact.
func (p *Proxy) deferRetry(e *entry, now time.Time, kind pollKind) {
	e.mu.Lock()
	e.failures++
	n := e.failures
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
		pull := e.item != nil && retryAt.Before(e.nextAt)
		if pull {
			e.nextAt = retryAt
			if retryAt.Before(e.baseNextAt) {
				e.baseNextAt = retryAt
			}
			p.schedule.Reschedule(e.item, retryAt)
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
// the controller demands it.
func (p *Proxy) triggerGroup(e *entry, gs *groupState, now time.Time) {
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
		if gs.ctrl.ShouldTrigger(core.ObjectID(e.key), core.ObjectID(c.other.key),
			p.toSim(now), p.toSim(c.validatedAt), p.toSim(c.other.nextAt)) {
			toTrigger = append(toTrigger, c.other)
		}
	}
	p.schedMu.Unlock()
	gs.mu.Unlock()
	for _, other := range toTrigger {
		// Same group ⇒ same affinity worker ⇒ the triggered poll runs
		// strictly after the current one; enqueueing is non-blocking.
		p.pending.Add(1)
		p.workerFor(other).enqueue(job{e: other, kind: pollTriggered})
	}
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
