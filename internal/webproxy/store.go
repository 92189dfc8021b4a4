package webproxy

import (
	"sync"
	"sync/atomic"
)

// store is the sharded object cache. Keys are canonical cache keys
// (path plus sorted query); each key maps to one shard by FNV-1a hash,
// and each shard has its own RWMutex, so concurrent hits on different
// objects never contend on a global lock.
//
// Each shard doubles as a CLOCK (second-chance) replacement domain: the
// residents of a shard form a ring swept by a per-shard hand. Hits mark
// an entry's access bit with a lock-free atomic store; the sweep clears
// the bit on first encounter and evicts on the second, so recently hit
// objects survive while churned-through ones are reclaimed. Members of
// mutual-consistency groups carry extra second chances (see groupLives):
// evicting one member silently weakens the whole group's mutual
// guarantee, so the policy prefers ungrouped victims of equal heat.
//
// The store also keeps a byte ledger (bytes) alongside the object count,
// so replacement can be driven by a memory budget (Config.MaxBytes) as
// well as an object cap.
type store struct {
	mask   uint32
	shards []storeShard
	count  atomic.Int64
	bytes  atomic.Int64
}

type storeShard struct {
	mu      sync.RWMutex
	entries map[string]*entry
	ring    []*entry // CLOCK ring: this shard's residents in admission order
	hand    int      // next sweep position in ring
	// retiredHits is the hit count of every entry this shard has evicted,
	// so the proxy-wide total (CacheStats.Hits) stays monotonic.
	retiredHits uint64
}

// maxShards bounds Config.Shards (2^20 map shards far exceeds any
// plausible contention win and keeps nextPow2 and the uint32 shard mask
// clear of overflow).
const maxShards = 1 << 20

// groupLives is the number of extra second chances a mutual-consistency
// group member gets in the victim scan beyond the ordinary CLOCK access
// bit. Evicting a group member breaks the group's mutual guarantee for
// the survivors, so grouped entries are only reclaimed once the sweep
// has passed them groupLives times without a hit.
const groupLives = 2

// entryOverhead is the per-object bookkeeping charged to the ledger
// beyond key and body: the entry struct with its embedded schedule item
// (320 B), its LIMD state (32 B), and its share of the shard map, the
// CLOCK ring and the refresh heap — about 410 B for a one-hop resident
// (TestEntryOverheadCoversFootprint holds it there), the rest headroom
// for a value object's state or a push digest.
const entryOverhead = 512

// entrySize is the resident size charged to the byte ledger for an
// object with the given key and body.
func entrySize(key string, body []byte) int64 {
	return int64(len(key)) + int64(len(body)) + entryOverhead
}

// newStore returns a store with n shards; n must be a power of two.
func newStore(n int) *store {
	s := &store{mask: uint32(n - 1), shards: make([]storeShard, n)}
	for i := range s.shards {
		s.shards[i].entries = make(map[string]*entry)
	}
	return s
}

// all returns the resident entries, collected shard by shard.
func (s *store) all() []*entry {
	var all []*entry
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, e := range sh.entries {
			all = append(all, e)
		}
		sh.mu.RUnlock()
	}
	return all
}

func (s *store) shardFor(key string) *storeShard {
	return &s.shards[s.shardIndex(key)]
}

func (s *store) shardIndex(key string) uint32 {
	return fnv32(key) & s.mask
}

// get returns the entry for key, or nil.
func (s *store) get(key string) *entry {
	sh := s.shardFor(key)
	sh.mu.RLock()
	e := sh.entries[key]
	sh.mu.RUnlock()
	return e
}

// put inserts e unless key is already present, then enforces the object
// cap and byte budget (negative disables either). The insert always
// succeeds — except for a single object larger than the whole byte
// budget, which is refused (capped) — and put then reclaims residents
// via the CLOCK victim scan until both budgets hold again, returning the
// victims for the caller to unwind (deschedule, detach from group).
// Concurrent admissions may transiently overshoot a budget; each one
// evicts its own overshoot before returning, so the store is back within
// budget as soon as the concurrent puts drain. Victims are already marked
// evicted and removed from their shard when put returns.
func (s *store) put(key string, e *entry, maxObjects int, maxBytes int64) (resident *entry, inserted bool, victims []*entry, capped bool) {
	size := e.size.Load()
	if maxBytes >= 0 && size > maxBytes {
		// The object alone overflows the byte budget: caching it would
		// evict the entire store and still not fit.
		return e, false, nil, true
	}
	home := s.shardIndex(key)
	sh := &s.shards[home]
	sh.mu.Lock()
	if existing, ok := sh.entries[key]; ok {
		sh.mu.Unlock()
		return existing, false, nil, false
	}
	sh.entries[key] = e
	e.ringIdx = int32(len(sh.ring))
	sh.ring = append(sh.ring, e)
	// A fresh admission starts with its access bit set (one grace sweep)
	// and, for group members, its extra lives intact.
	e.markAccessed()
	if e.group != (interned{}) {
		e.lives = groupLives
	}
	s.count.Add(1)
	s.bytes.Add(size)
	sh.mu.Unlock()

	return e, true, s.shrink(maxObjects, maxBytes, home, e), false
}

// shrink reclaims residents via the CLOCK sweep until both budgets hold
// again, never selecting protect. put calls it after an admission;
// the refresh engine calls it when a refreshed body grew the ledger
// past MaxBytes. The returned victims must be unwound by the caller.
func (s *store) shrink(maxObjects int, maxBytes int64, start uint32, protect *entry) []*entry {
	var victims []*entry
	for s.overBudget(maxObjects, maxBytes) {
		v := s.evictOne(start, protect)
		if v == nil {
			break
		}
		victims = append(victims, v)
	}
	return victims
}

// overBudget reports whether either replacement budget is exceeded.
func (s *store) overBudget(maxObjects int, maxBytes int64) bool {
	if maxObjects >= 0 && s.count.Load() > int64(maxObjects) {
		return true
	}
	if maxBytes >= 0 && s.bytes.Load() > maxBytes {
		return true
	}
	return false
}

// evictOne reclaims one resident via the CLOCK sweep, preferring the
// shard at index start (the inserting entry's home shard) and probing
// subsequent shards when it holds no evictable resident. protect is
// never selected (a put must not evict the object it just admitted).
// It returns nil when no victim exists anywhere.
func (s *store) evictOne(start uint32, protect *entry) *entry {
	n := uint32(len(s.shards))
	for off := uint32(0); off < n; off++ {
		sh := &s.shards[(start+off)&s.mask]
		sh.mu.Lock()
		v := sh.clockVictim(protect)
		if v != nil {
			s.count.Add(-1)
			s.bytes.Add(-v.size.Load())
		}
		sh.mu.Unlock()
		if v != nil {
			return v
		}
	}
	return nil
}

// clockVictim runs the second-chance sweep over the shard's ring and
// removes and returns the victim, or nil when the shard has no
// evictable resident. The caller holds sh.mu.
//
// Each encounter costs an entry one asset: first its access bit, then
// its extra lives (group members), and with nothing left it is evicted.
// The sweep is bounded: after at most (groupLives+2) passes every
// entry's assets are exhausted, so a ring with any candidate besides
// protect always yields a victim.
func (sh *storeShard) clockVictim(protect *entry) *entry {
	candidates := len(sh.ring)
	if candidates == 0 || (candidates == 1 && sh.ring[0] == protect) {
		return nil
	}
	limit := candidates * (groupLives + 2)
	for i := 0; i < limit; i++ {
		if sh.hand >= len(sh.ring) {
			sh.hand = 0
		}
		c := sh.ring[sh.hand]
		if c == protect {
			sh.hand++
			continue
		}
		if c.takeAccess() {
			// Second chance: accessed since the last sweep. A live
			// group member also gets its penalty shield back — the
			// extra lives protect warm groups durably, not just for
			// groupLives sweeps after admission.
			if c.group != (interned{}) {
				c.lives = groupLives
			}
			sh.hand++
			continue
		}
		if c.lives > 0 {
			c.lives-- // group-membership penalty not yet exhausted
			sh.hand++
			continue
		}
		sh.removeLocked(c)
		return c
	}
	return nil
}

// removeLocked unlinks e from the shard map and ring, retires its hit
// count into the shard's total, and marks it evicted. The caller holds
// sh.mu and adjusts the store ledgers.
func (sh *storeShard) removeLocked(e *entry) {
	delete(sh.entries, e.key)
	sh.retiredHits += e.hits.Load()
	last := len(sh.ring) - 1
	if int(e.ringIdx) != last {
		moved := sh.ring[last]
		sh.ring[e.ringIdx] = moved
		moved.ringIdx = e.ringIdx
	}
	sh.ring[last] = nil
	sh.ring = sh.ring[:last]
	if sh.hand > last {
		sh.hand = 0
	}
	e.ringIdx = -1
	e.state.Or(stateEvicted)
}

// removeEntry evicts exactly e (admin or oversize eviction), reporting
// whether it was still resident. The identity check means a caller
// holding a stale reference can never displace a re-admitted successor
// under the same key.
func (s *store) removeEntry(e *entry) bool {
	sh := s.shardFor(e.key)
	sh.mu.Lock()
	if sh.entries[e.key] != e {
		sh.mu.Unlock()
		return false
	}
	sh.removeLocked(e)
	s.count.Add(-1)
	s.bytes.Add(-e.size.Load())
	sh.mu.Unlock()
	return true
}

// resize re-charges e's resident size after a refresh replaced its body.
// Eviction reads the size and unlinks the entry under the same shard
// lock, so the ledger never double-counts an entry resized and evicted
// concurrently.
func (s *store) resize(e *entry, size int64) {
	sh := s.shardFor(e.key)
	sh.mu.Lock()
	if e.evicted() {
		sh.mu.Unlock()
		return
	}
	old := e.size.Swap(size)
	s.bytes.Add(size - old)
	sh.mu.Unlock()
}

// len returns the number of cached objects.
func (s *store) len() int {
	return int(s.count.Load())
}

// residentBytes returns the ledger total charged for cached objects.
func (s *store) residentBytes() int64 {
	return s.bytes.Load()
}

// fnv32 is the 32-bit FNV-1a hash.
func fnv32(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

// nextPow2 rounds n up to the nearest power of two (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
