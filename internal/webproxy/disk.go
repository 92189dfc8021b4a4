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
//     diskGrace plus the validation queue delay, never silently
//     unbounded.
//   - promote (demand, see admit): a request for a key that lives only
//     on disk — demoted by CLOCK replacement or beyond the grace window
//     at startup — revalidates it before serving, reusing the disk body,
//     metadata and learned TTR on a 304. The 304 comes from the origin,
//     through a conditional fetch, unless the push lease carries the
//     record (see channelAnswer and lease.go). Promotion runs inside the
//     admission singleflight, so the re-admission race resolves to at
//     most one origin fetch.
//   - demote (replacement): CLOCK victims keep their disk record (the
//     write-behind already persisted their last validated state), so
//     capacity is disk-bound, not RAM-bound. Admin Evict purges both
//     tiers.

import (
	"time"

	"broadway/internal/diskstore"
)

// diskGrace bounds how stale a rehydrated entry may be at startup and
// still be served before its re-validation poll completes.
const diskGrace = 5 * time.Minute

// persistEntry snapshots e's validated state into the disk tier's
// write-behind queue. Called from install (every poll, trigger, and
// pushed-value install) and admitFrom; a no-op when persistence is
// disabled or the entry was never admitted or has been evicted.
func (p *Proxy) persistEntry(e *entry) {
	if p.disk == nil || e.capped {
		return
	}
	// Eviction sets the token under the shard lock, so holding it shared
	// orders every write of e's before whatever found e gone — a pushed
	// event landed on the record, or a void — and a late snapshot can
	// never overwrite those. The entry lock, held across the Put, orders
	// e's own writes as its installs made them.
	sh := p.store.shardFor(e.key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if e.evicted() {
		return
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	rec := diskstore.Record{
		Key:          e.key,
		Group:        e.group.String(),
		ContentType:  e.contentType.String(),
		CacheControl: e.cacheControl.String(),
		ValidatedAt:  e.validatedAt,
		Delta:        e.delta,
		GroupDelta:   e.groupDelta,
		ValueDelta:   e.valueDelta(),
	}
	rec.LastMod, rec.HasLastMod = e.lastModified()
	// A paired M_v policy is half of a shared controller whose split
	// tolerance dies with the pair; persist TTR zero and let the
	// rehydrated entry re-learn (and re-pair) from scratch.
	if !e.paired() {
		if t, ok := e.policy.(interface{ TTR() time.Duration }); ok {
			rec.TTR = t.TTR()
		}
	}
	p.disk.Put(rec, e.body)
}

// channelAnswer is the 304 a live lease gives a promotion in place of a
// validating fetch, or nil when the promotion must fetch: a demoted
// record is carried exactly as a resident leased key is (see lease.go),
// on the evidence of its own validation instant (see recordEpoch). The
// record answered is installed with that instant and audited within L of
// it: no request was sent, and the record vouches for itself. An update
// racing the promotion itself marks its flight and is caught at install
// (see raced).
func (p *Proxy) channelAnswer(key string, rec *diskstore.Record) *version {
	if rec == nil {
		return nil
	}
	epoch := p.lease.recordEpoch(rec.ValidatedAt)
	if epoch == nil || !p.lease.carries(key, p.pushable(key), epoch) {
		return nil
	}
	return &version{now: rec.ValidatedAt, applied: true, epoch: epoch, arrived: p.cfg.Clock()}
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
		// A record too stale for grace-mode serving is left demoted,
		// promoted on demand.
		if rec, body, ok := p.disk.Get(key); ok && now.Sub(rec.ValidatedAt) <= diskGrace {
			p.admitFrom(key, &rec, body, nil)
		}
	}
}

// DiskStats reports the persistent tier's state and lifetime counters;
// Enabled false (the zero value) means Config.DiskDir was not set.
type DiskStats struct {
	// Enabled reports whether the disk tier is configured.
	Enabled bool `metric:"gauge broadway_disk_enabled" help:"1 when the persistent disk tier is configured."`
	// Records and Bytes are the durable index's current footprint.
	Records int   `metric:"gauge broadway_disk_records" help:"Records in the durable metadata index."`
	Bytes   int64 `metric:"gauge broadway_disk_bytes" help:"Blob bytes accounted by the durable index."`
	// PendingWrites is the write-behind queue depth (coalesced keys).
	PendingWrites int `metric:"gauge broadway_disk_pending_writes" help:"Write-behind queue depth in coalesced keys."`
	// Writes and WriteErrors count applied and failed persist
	// operations; Deletes counts applied purges; Evictions counts
	// records dropped by the disk byte budget (oldest validated first).
	Writes      uint64 `metric:"counter broadway_disk_writes_total" help:"Persist operations applied by the write-behind worker."`
	WriteErrors uint64 `metric:"counter broadway_disk_write_errors_total" help:"Persist operations that failed at the filesystem."`
	Deletes     uint64 `metric:"counter broadway_disk_deletes_total" help:"Durable records purged (admin eviction)."`
	Evictions   uint64 `metric:"counter broadway_disk_evictions_total" help:"Durable records dropped by the disk byte budget."`
	// Demotions counts replacement victims whose disk record made the
	// eviction a tier transition instead of a loss; Promotions counts
	// disk records re-admitted to the store, validated by a conditional
	// fetch or carried by a live lease (not one served uncached because
	// its body alone overflows MaxBytes, nor one that lost to a
	// concurrent admission). LeasedPromotions is the subset the push
	// channel answered with no upstream request (see channelAnswer).
	Demotions        uint64 `metric:"counter broadway_disk_demotions_total" help:"Replacement victims retained on disk instead of lost."`
	Promotions       uint64 `metric:"counter broadway_disk_promotions_total" help:"Disk records re-admitted, validated by a fetch or carried by a live lease."`
	LeasedPromotions uint64 `metric:"counter broadway_disk_leased_promotions_total" help:"Promotions the push channel answered with no upstream request."`
	// Rehydrated counts entries restored warm at startup; GraceServes
	// counts hits served as X-Cache: GRACE before re-validation.
	Rehydrated  uint64 `metric:"counter broadway_disk_rehydrated_total" help:"Entries restored warm from disk at startup."`
	GraceServes uint64 `metric:"counter broadway_disk_grace_serves_total" help:"Hits served as X-Cache: GRACE before re-validation."`
}

// DiskStats returns the disk tier's counters (zero value when disabled).
func (p *Proxy) DiskStats() DiskStats {
	if p.disk == nil {
		return DiskStats{}
	}
	st := p.disk.Stats()
	return DiskStats{
		Enabled:          true,
		Records:          st.Records,
		Bytes:            st.Bytes,
		PendingWrites:    st.PendingWrites,
		Writes:           st.Writes,
		WriteErrors:      st.WriteErrors,
		Deletes:          st.Deletes,
		Evictions:        st.Evictions,
		Demotions:        p.diskDemotions.Load(),
		Promotions:       p.diskPromotions.Load(),
		LeasedPromotions: p.diskLeasedPromotions.Load(),
		Rehydrated:       p.diskRehydrated.Load(),
		GraceServes:      p.diskGraceServes.Load(),
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
