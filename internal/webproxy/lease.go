package webproxy

import (
	"sync/atomic"
	"time"

	"broadway/internal/diskstore"
	"broadway/internal/push"
)

// This file is the push lease, the one place its rules live. While the
// invalidation channel is healthy a key it carries holds a lease: push
// carries the key's freshness, and its regular poll becomes an audit of
// the channel rather than of the object, run a lease term
// L = Config.PushStretch × Bounds.Max after the key's last validation
// whatever TTR the policy has learned. Every lease decision asks the lease
// value below (carries, covers, current); no other code combines its
// premises.
//
// A key is carried when every premise holds:
//
//   - leases are on (L > 0) and the channel is healthy;
//   - the origin can announce the key at all (see pushable: not a
//     query-bearing cache key — events are path-granular — nor one past
//     the wire frame limit), which an entry memoizes as !unpushable;
//   - the live interest declaration matches it: an object outside it has
//     its updates filtered away upstream until a bounce widens the
//     declaration (see Config.PushInterest). It is asked live, not marked
//     at admission, because the admission's own bounce widens it;
//   - the evidence it rests on was gathered in the current lease epoch. An
//     epoch begins at every connect (a Bounce reconnects), Reset and frame
//     loss. Evidence from an earlier one — a response to a fetch sent
//     before it began, an event received before it began — may predate an
//     update the hole swallowed, so it neither takes a lease nor reaches
//     the disk tier. Health is read before the epoch: a connect stores
//     its epoch before it flips health, so an epoch read after a healthy
//     reading is never older than that connection.
//
// The lease starts at install, not after a first poll: admission and disk
// promotion place the first poll at a per-key hash phase in (TTR, L] (see
// phase), so keys warmed together poll at the steady N/L rate instead of
// as a herd. Later audits run L after the last validation, which is a
// regular poll's or a pushed install's. A pushed install — a verified
// payload applied, or a pushed poll's answer — validates a carried key on
// evidence from the current epoch, so it moves the key's pending audit to
// L after that evidence arrived: the event's receipt, or the response's
// arrival (see deferAudit). It only ever moves the audit later. It leaves
// the paper-mode instant where the last regular poll put it and feeds no
// policy, so a sweep lands exactly where it would without pushes. A key
// the channel updates more often than L is therefore never audited: its
// updates are its validations. Every audit instant lands on a multiple of
// L/32 (see auditAt), so the keys due in one bucket go upstream as one
// batch (see audit.go): an audit L after its validation is rounded down,
// early only; a first audit's phase, an instant with no meaning of its
// own, to the nearest bucket; and none lands past the bucket holding
// validation + L, or at or before the paper-mode instant. No audit comes
// later than L after the last validation. The paper-mode instant (regular
// poll + TTR) is remembered per entry as the lease's stretch past it (see
// entry.baseNextAt), and the policy keeps learning from each regular
// poll's outcome. Rehydrated entries are born suspect and validate
// immediately, lease or not.
//
// What the lease carries needs no poll:
//
//   - a carried sibling needs no §3.2 poll: when a group member's update
//     runs the group triggering, a sibling the lease carries is current at
//     that instant — had it changed, its own event would have arrived — so
//     it counts as polled then, the paper's own "previous poll within δ"
//     exemption with the lease supplying the instant (see carriedLocked
//     and triggerGroup);
//   - the lease outlives residency: a demoted key's disk record is kept
//     current by the same channel (see applyPushedToDisk), so a record the
//     channel has carried since its last validation is promoted with no
//     upstream request — the channel answers the validating 304 (see
//     channelAnswer) — and its first audit lands within L of that
//     validation.
//
// Transitions:
//
//   - everything that ends a lease runs the catch-up sweep (fallbackSweep),
//     which pulls every leased schedule entry back to its paper-mode
//     instant, so no object's Δt guarantee is ever widened beyond what
//     pure polling would have delivered; each key re-enters the lease only
//     at its own next regular poll on a healthy channel;
//   - the void transition (lease.void): an announced update did not land
//     for a key — on no resident copy, on no record — so its disk record
//     must never pass for carried. It never takes schedMu. Where a
//     resident entry's lease must also end (a failed pushed poll, see
//     deferRetry), the lease ends first, under schedMu, and the void
//     follows, so a tolerance override (see journalLocked, which voids
//     with schedMu held for a copy the lease does not carry) either wrote
//     its record before the void or finds the entry no longer carried.
//     Sites with no schedule (nothing resident, or evicted) only void,
//     and a failed disk write drops its record too (see diskstore).
//
// The staleness a covered key can accumulate is therefore bounded per
// failure:
//
//   - link death (disconnect, or no frame for PushHeartbeatTimeout):
//     detection plus one sweep, then pure paper-mode polling until a
//     reconnect;
//   - a reconnect whose replay gap exceeded the upstream's buffer (hello
//     Reset), a mid-stream Reset, or a lost frame: one sweep — events were
//     irrecoverably missed while the proxy believed the channel healthy;
//   - a deliberate Bounce (interest renegotiation): one sweep, as a
//     disconnect;
//   - an upstream that silently fails to announce an update over a live
//     stream: L after the last evidence's arrival, the audit this poll
//     exists for;
//   - a changed Cache-Control tolerance: value frames carry the object's
//     Cache-Control, and a pushed poll's answer carries it as every
//     response does, so a key the channel keeps updating learns the
//     change with its next update, and a quiet key from its audit — at
//     most L after the change either way. A cleared tolerance is the
//     exception: a 304 cannot remove a header (see headersOver), so a
//     quiet key keeps the old directives until its next version that
//     carries a body;
//   - an update announced while the key's admission or promotion is in
//     flight (the fetch and the stream are separate connections, so the
//     event can be handled, and find nothing resident, before a response
//     built ahead of the update is installed), or lost in a hole that
//     began while its fetch was in flight: that admission takes no lease,
//     polls at validation + TTR as in paper mode, and is not written to
//     disk (see raced);
//   - a demoted key's record: nothing beyond what the resident key would
//     have had — it is promoted without a fetch only while every premise
//     above holds for it, and its first audit lands within L of its
//     validation.

// lease is the push lease's state, owned by Proxy: its term, the
// channel's health, and the current epoch.
type lease struct {
	// term is L; zero when leases are off (see resolveLeaseTerm).
	term  time.Duration
	clock func() time.Time
	// interest is the subscriber whose live declaration filters the
	// channel; nil when it filters nothing (no PushInterest).
	interest *push.Subscriber
	// disk holds the records the lease vouches for; nil without a tier.
	disk    *diskstore.Store
	healthy atomic.Bool
	// epoch is the instant the current lease epoch began, stored before
	// healthy flips. Nil before the first connect and whenever leases are
	// off. Each epoch is a new pointer, so evidence is matched to the
	// current epoch by identity, whatever the clock reads.
	epoch atomic.Pointer[time.Time]
}

// begin starts a new lease epoch: a connect, Reset or frame loss. The
// subscriber's callbacks run on one goroutine, so epochs begin in stream
// order.
func (l *lease) begin() {
	if l.term > 0 {
		now := l.clock()
		l.epoch.Store(&now)
	}
}

// connect marks the channel healthy, in a new epoch stored first.
func (l *lease) connect() {
	l.begin()
	l.healthy.Store(true)
}

// current reports whether evidence gathered in epoch still speaks for
// the current one. Always true with leases off: no epoch ever begins.
func (l *lease) current(epoch *time.Time) bool { return l.epoch.Load() == epoch }

// covers reports whether the channel, as it stands, carries key
// (pushable as the caller knows it): every premise but the evidence's,
// which the caller's own state stands in for (see carriedLocked). Sound
// against a racing reconnect: health flips only after the attempt's
// declaration, stored before its request goes out, is in place.
func (l *lease) covers(key string, pushable bool) bool {
	return l.term > 0 && l.healthy.Load() && pushable &&
		(l.interest == nil || l.interest.DeclaredInterest().Matches(key))
}

// carries is the lease predicate: the channel carries key on evidence
// gathered in epoch. Health is read (in covers) before the epoch.
func (l *lease) carries(key string, pushable bool, epoch *time.Time) bool {
	return l.covers(key, pushable) && l.current(epoch)
}

// recordEpoch returns the epoch a disk record validated at validatedAt
// speaks for: the current one, when the record was validated strictly
// after it began — every update since was announced — and less than L
// ago, so a silent upstream is still caught within L of the validation by
// the promoted entry's first audit. Nil otherwise, and with leases off.
// Read before health, it is sound because carries matches it to the
// epoch it reads after health.
func (l *lease) recordEpoch(validatedAt time.Time) *time.Time {
	epoch := l.epoch.Load()
	if epoch == nil || !validatedAt.After(*epoch) || l.clock().Sub(validatedAt) >= l.term {
		return nil
	}
	return epoch
}

// void is the void transition (see the file comment): key's disk record
// is deleted so that it is never promoted as carried. Voiding is always
// safe: an object that changed costs the same 200 either way. A no-op
// with leases off, where every promotion validates, or with no disk tier.
func (l *lease) void(key string) {
	if l.disk != nil && l.term > 0 {
		l.disk.Delete(key)
	}
}

// phase places a covered key's first poll inside its first lease term:
// an instant in (ttr, L] after admission, fixed by the key's hash. Keys
// admitted together therefore poll at the steady N/L rate from the first
// second instead of as a herd every L, and a key's phase survives
// eviction and re-admission.
func (l *lease) phase(key string, ttr time.Duration) time.Duration {
	span := l.term - ttr
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

// auditBuckets is how many audit buckets a lease term holds.
const auditBuckets = 32

// auditAt places a leased key's next audit after a validation at
// validatedAt — for an entry admitted at admittedAt, zero after a poll —
// whose paper-mode instant is base. The audit is one full term after the
// validation, or the key's phase inside its first term when that comes
// sooner (see rescheduleHybrid). It lands on the grid of L/auditBuckets,
// so the keys due in one bucket are audited in one batch (see audit.go),
// and never past the bucket holding validatedAt + L, so a silent upstream
// is still caught within L of the validation. A term after the
// validation is rounded down. A phase is an instant with no meaning of its
// own, so it is rounded to the nearest bucket: rounding every first audit
// down would move it earlier, and a cache whose keys churn out before
// their first audit would audit more of them than it did before buckets.
// Rounding never lands at or before base: the audit then keeps its own
// instant, or base itself when even that is not later.
func (l *lease) auditAt(key string, validatedAt, admittedAt, base time.Time, ttr time.Duration) time.Time {
	grid := l.term / auditBuckets
	audit := validatedAt.Add(l.term)
	last := audit.Truncate(grid)
	at := last
	if !admittedAt.IsZero() {
		if first := admittedAt.Add(l.phase(key, ttr)); first.Before(audit) {
			audit = first
			if at = first.Add(grid / 2).Truncate(grid); at.After(last) {
				at = last
			}
		}
	}
	switch {
	case at.After(base):
		return at
	case audit.After(base):
		return audit
	}
	return base
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

// rescheduleHybrid sets e's next regular poll after a validation at
// validatedAt whose evidence was gathered in lease epoch epoch. Its
// paper-mode instant is ttr after validatedAt; while the lease carries e
// the poll is an audit of the channel and runs once per term instead:
// one full term after the validation, or — for an entry admitted at
// admittedAt (zero after a poll) — at the key's phase inside its first
// term, but never later than validatedAt + L, so a promoted record the
// channel carried is audited within L of its last validation as a
// resident key is (for a fetched admission validatedAt is admittedAt, and
// the phase alone decides); either instant is then placed in its audit
// bucket (see auditAt). The lease decision is made under schedMu —
// the lock the sweep holds for its whole pass, taken only after a dying
// channel clears its health or begins a new epoch — so a poll racing a
// disconnect, Reset or frame loss either reschedules before the sweep
// (and is swept back) or reads the channel down or its epoch superseded;
// a leased instant never slips onto the heap after the sweep passed it.
func (p *Proxy) rescheduleHybrid(e *entry, validatedAt time.Time, ttr time.Duration, admittedAt time.Time, epoch *time.Time) {
	p.schedMu.Lock()
	if e.evicted() {
		p.schedMu.Unlock()
		return
	}
	base := validatedAt.Add(ttr)
	at := base
	if p.lease.carries(e.key, !e.unpushable, epoch) {
		at = p.lease.auditAt(e.key, validatedAt, admittedAt, base, ttr)
	}
	p.placeLocked(e, at, base)
	p.schedMu.Unlock()
	p.kick()
}

// deferAudit moves e's pending audit to a term after arrived, the instant
// a pushed install's evidence reached this proxy (the event, or a pushed
// poll's response), when the lease carries e and that evidence was
// gathered in the current epoch. The audit only ever moves later, placed
// by auditAt as a poll's would be; the paper-mode instant a regular poll
// set stays where it is, so a sweep lands exactly where it would have,
// and the policy still learns from regular polls alone. The decision is
// made under schedMu, as rescheduleHybrid's is: an epoch that began, or a
// channel that died, before the sweep took the lock reads as superseded
// or down here, and a move made first is swept back.
func (p *Proxy) deferAudit(e *entry, arrived time.Time, epoch *time.Time) {
	if p.lease.term <= 0 {
		return
	}
	p.schedMu.Lock()
	moved := false
	if p.carriedLocked(e) && p.lease.current(epoch) {
		base := e.baseNextAt()
		if at := p.lease.auditAt(e.key, arrived, time.Time{}, base, 0); at.After(e.item.At) {
			p.placeLocked(e, at, base)
			moved = true
		}
	}
	p.schedMu.Unlock()
	if moved {
		p.auditsDeferred.Add(1)
	}
}

// carriedLocked reports whether the live lease carries the resident entry
// e right now: the channel covers it, and its schedule is leased — its
// poll sits past its paper-mode instant — and on the heap (see
// leasedLocked for the same question about a poll just popped). The leased
// schedule stands in for the evidence premise: rescheduleHybrid leases
// only on evidence from the current epoch, every epoch change sweeps the
// schedule back, and a failed pushed poll ends it (see deferRetry). A key
// whose poll is queued or in flight is off the heap; a pushed job merely
// queued does not disqualify it, since it runs on the key's affinity
// worker ahead of anything queued after it. The caller holds schedMu,
// which orders the answer against the sweep and every lease decision.
func (p *Proxy) carriedLocked(e *entry) bool {
	return e.item.Pending() && p.leasedLocked(e)
}

// leasedLocked is carriedLocked but for the heap: it reports whether e's
// schedule is leased and the channel covers it, which the dispatcher asks
// of a poll it has just popped. The caller holds schedMu.
func (p *Proxy) leasedLocked(e *entry) bool {
	return e.leased > 0 && p.lease.covers(e.key, !e.unpushable)
}

// raced reports whether an admission's copy may predate an update the
// channel will not announce again: one was announced while the admission
// was in flight and found nothing resident (see handlePushEvent), or an
// epoch began after its evidence was gathered, and the sweep ran before
// the entry existed. Such a copy takes no lease and is not written to
// disk. Always false with leases off.
func (p *Proxy) raced(key string, epoch *time.Time) bool {
	return p.lease.term > 0 && (p.flight.Marked(key) || !p.lease.current(epoch))
}

// journalLocked writes e's state to its disk record, or voids the record
// when it could pass for carried without being so: under leases, a copy
// the lease does not carry (a raced or straddled install, a failed pushed
// poll) may be older than an update the channel announced. The caller
// holds schedMu, so a failed pushed poll, which ends the lease before it
// voids, cannot void in between.
func (p *Proxy) journalLocked(e *entry) {
	if p.lease.term > 0 && !p.carriedLocked(e) {
		p.lease.void(e.key)
		return
	}
	p.persistEntry(e)
}

// fallbackSweep pulls every schedule entry whose poll a lease placed
// beyond its paper-mode instant back to that instant (or to now, when
// it already passed). After the sweep the schedule is exactly what pure
// paper-mode polling would have produced, so the Δt guarantee holds
// with no help from the channel.
//
// The whole sweep runs inside one schedMu critical section, paired with
// rescheduleHybrid making its lease decision under the same lock: the
// channel's health is cleared — or, for a Reset or frame loss, a new
// epoch stored — before the sweep acquires schedMu, so a racing poll
// either reschedules first (its item is on the heap and gets swept) or
// takes the lock after the sweep and reads the channel as down or its
// evidence's epoch as superseded (no lease). Entries that are mid-poll
// (item not pending) reschedule through the same gate when they finish. The
// single hold is a latency spike proportional to the cache size, but a
// channel death is rare and correctness of the Δt bound wins.
func (p *Proxy) fallbackSweep() {
	if p.lease.term <= 0 {
		// Leases off: no schedule is ever leased, so the sweep is
		// a guaranteed no-op — skip the O(cache) walk and the schedMu hold
		// it would cost on every disconnect.
		return
	}
	now := p.cfg.Clock()
	batch := p.store.all()
	pulled := false
	p.schedMu.Lock()
	for _, e := range batch {
		if !e.item.Pending() || e.leased <= 0 {
			continue // unscheduled (queued, in flight, or evicted) or unleased
		}
		at := e.baseNextAt()
		if at.Before(now) {
			at = now
		}
		e.leased = 0
		p.schedule.Reschedule(&e.item, at)
		pulled = true
	}
	p.schedMu.Unlock()
	if pulled {
		p.kick()
	}
}
