package webproxy

// The persistent disk tier (Config.DiskDir): every validated object is
// written behind the sharded in-memory store by install and admitFrom —
// asynchronously, so the hit path never touches disk — and three flows
// bring state back, the first two through admitFrom like any admission:
//
//   - rehydrate (startup): records within the grace window re-enter the
//     store born *suspect*, scheduled for an immediate validation poll
//     through the ordinary worker pool (so a restart cannot self-herd
//     the origin), and served as X-Cache: GRACE until confirmed. The Δt
//     guarantee across a restart is therefore explicit: at most
//     DiskGrace plus the validation queue delay, never silently
//     unbounded.
//   - promote (demand, see admit): a request for a key that lives only
//     on disk — demoted by CLOCK replacement or beyond the grace window
//     at startup — revalidates it with a conditional fetch before
//     serving, reusing the disk body, metadata and learned TTR on a 304.
//     Promotion runs inside the admission singleflight, so the
//     re-admission race resolves to one origin fetch.
//   - demote (replacement): CLOCK victims keep their disk record (the
//     write-behind already persisted their last validated state), so
//     capacity is disk-bound, not RAM-bound. Admin Evict purges both
//     tiers.

import (
	"time"

	"broadway/internal/diskstore"
)

// persistEntry snapshots e's validated state into the disk tier's
// write-behind queue. Called from install (every poll, trigger, and
// pushed-value install) and admitFrom; a no-op when persistence is
// disabled or the entry was never admitted.
func (p *Proxy) persistEntry(e *entry) {
	if p.disk == nil || e.capped {
		return
	}
	e.mu.RLock()
	rec := diskstore.Record{
		Key:          e.key,
		Group:        e.group,
		ContentType:  e.contentType,
		CacheControl: e.cacheControl,
		LastMod:      e.lastMod,
		HasLastMod:   e.hasLastMod,
		ValidatedAt:  e.validatedAt,
		Delta:        e.delta,
		GroupDelta:   e.groupDelta,
		ValueDelta:   e.valueDelta,
	}
	// A paired M_v policy is half of a shared controller whose split
	// tolerance dies with the pair; persist TTR zero and let the
	// rehydrated entry re-learn (and re-pair) from scratch.
	if !e.paired {
		if t, ok := e.policy.(interface{ TTR() time.Duration }); ok {
			rec.TTR = t.TTR()
		}
	}
	body := e.body
	e.mu.RUnlock()
	p.disk.Put(rec, body)
}

// demote finishes a replacement eviction: the victims are unwound from
// scheduler, groups, and ledger exactly as before, but their disk
// records — already current via the write-behind — survive, so the
// next request promotes from disk instead of paying a cold fetch.
func (p *Proxy) demote(victims []*entry) {
	p.unwind(victims)
	if p.disk == nil {
		return
	}
	for _, v := range victims {
		if _, ok := p.disk.Meta(v.key); ok {
			p.diskDemotions.Add(1)
		}
	}
}

// rehydrate re-admits disk records into the in-memory store at startup.
// Records within the grace window come back warm — born suspect, with
// an immediate validation poll scheduled (dispatched by the worker pool
// once Start runs, which rate-limits the origin herd) — while older
// records stay on disk until a request promotes them through a
// validating fetch.
func (p *Proxy) rehydrate() {
	now := p.cfg.Clock()
	for _, key := range p.disk.Keys() {
		// A record too stale for grace-mode serving (with DiskGrace < 0,
		// every record) is left demoted, promoted on demand.
		if rec, body, ok := p.disk.Get(key); ok && now.Sub(rec.ValidatedAt) <= p.cfg.DiskGrace {
			p.admitFrom(key, &rec, body, nil)
		}
	}
}

// DiskStats reports the persistent tier's state and lifetime counters;
// Enabled false (the zero value) means Config.DiskDir was not set.
type DiskStats struct {
	// Enabled reports whether the disk tier is configured.
	Enabled bool
	// Records and Bytes are the durable index's current footprint.
	Records int
	Bytes   int64
	// PendingWrites is the write-behind queue depth (coalesced keys).
	PendingWrites int
	// Writes and WriteErrors count applied and failed persist
	// operations; Deletes counts applied purges; Evictions counts
	// records dropped by the disk byte budget (oldest validated first).
	Writes      uint64
	WriteErrors uint64
	Deletes     uint64
	Evictions   uint64
	// Demotions counts replacement victims whose disk record made the
	// eviction a tier transition instead of a loss; Promotions counts
	// disk records re-admitted to the store through a validating fetch
	// (not one served uncached because its body alone overflows
	// MaxBytes, nor one that lost to a concurrent admission).
	Demotions  uint64
	Promotions uint64
	// Rehydrated counts entries restored warm at startup; GraceServes
	// counts hits served as X-Cache: GRACE before re-validation.
	Rehydrated  uint64
	GraceServes uint64
}

// DiskStats returns the disk tier's counters (zero value when disabled).
func (p *Proxy) DiskStats() DiskStats {
	if p.disk == nil {
		return DiskStats{}
	}
	st := p.disk.Stats()
	return DiskStats{
		Enabled:       true,
		Records:       st.Records,
		Bytes:         st.Bytes,
		PendingWrites: st.PendingWrites,
		Writes:        st.Writes,
		WriteErrors:   st.WriteErrors,
		Deletes:       st.Deletes,
		Evictions:     st.Evictions,
		Demotions:     p.diskDemotions.Load(),
		Promotions:    p.diskPromotions.Load(),
		Rehydrated:    p.diskRehydrated.Load(),
		GraceServes:   p.diskGraceServes.Load(),
	}
}

// FlushDisk drains the write-behind queue; a no-op when persistence is
// disabled. Tests (and the crash smoke's graceful path) use it to make
// "persisted" deterministic.
func (p *Proxy) FlushDisk() {
	if p.disk != nil {
		p.disk.Flush()
	}
}
