package webproxy

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"broadway/internal/core"
	"broadway/internal/httpx"
	"broadway/internal/webserver"
)

// Long bounds: no background refresh runs during a test, so residency is
// driven purely by the request sequence and the CLOCK sweep.
var noRefreshBounds = core.TTRBounds{Min: time.Hour, Max: 2 * time.Hour}

// TestChurnKeepsHotSetResident churns an adversarial cold key stream at
// 4x capacity through the cache while a hot set is re-requested
// continuously. The CLOCK access bit must keep the hot set resident: its
// steady-state hit ratio stays above a floor even though every cold
// admission evicts somebody.
func TestChurnKeepsHotSetResident(t *testing.T) {
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "body for "+r.URL.Path)
	})
	px := newHarness(t, topology{handler: handler, cfg: Config{
		MaxObjects:   64,
		Shards:       8,
		Bounds:       noRefreshBounds,
		DefaultDelta: time.Hour,
	}}).leaf()

	const (
		hotKeys  = 16
		coldKeys = 256 // 4x the 64-object capacity
		rounds   = 2000
	)
	hot := make([]string, hotKeys)
	for i := range hot {
		hot[i] = fmt.Sprintf("/hot/%d", i)
	}
	// Warm the hot set.
	for _, h := range hot {
		px.get(h)
	}

	var hotHits, hotRequests int
	for i := 0; i < rounds; i++ {
		px.get(fmt.Sprintf("/cold/%d", i%coldKeys))
		_, _, hdr := px.get(hot[i%hotKeys])
		hotRequests++
		if hdr.Get("X-Cache") == "HIT" {
			hotHits++
		}
	}

	ratio := float64(hotHits) / float64(hotRequests)
	if ratio < 0.5 {
		t.Errorf("hot-set hit ratio %.3f under churn, want >= 0.5", ratio)
	}
	if got := px.Len(); got != 64 {
		t.Errorf("resident objects = %d, want full capacity 64", got)
	}
	cs := px.CacheStats()
	if cs.Evictions == 0 {
		t.Error("no evictions recorded; the cold stream should churn the cache")
	}
	if cs.Capped != 0 {
		t.Errorf("CacheStats.Capped = %d, want 0", cs.Capped)
	}
}

// TestRotating1000KeyWorkloadStillCaches is the acceptance scenario for
// the seed bug (permanent refusal of key #65 onward): a proxy capped at
// 64 objects serving a rotating 1,000-key workload must maintain a
// nonzero steady-state hit ratio on a recurring hot subset, and a key
// far beyond the cap must be admitted — request it twice and the second
// is a HIT.
func TestRotating1000KeyWorkloadStillCaches(t *testing.T) {
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "v:"+r.URL.Path)
	})
	px := newHarness(t, topology{handler: handler, cfg: Config{
		MaxObjects:   64,
		Shards:       8,
		Bounds:       noRefreshBounds,
		DefaultDelta: time.Hour,
	}}).leaf()

	// The seed behavior: once 64 objects were resident, key #65 onward
	// was never cached again. Admit well past the cap, then check a
	// brand-new key still becomes resident.
	for i := 0; i < 200; i++ {
		px.get(fmt.Sprintf("/rot/%d", i))
	}
	if _, _, hdr := px.get("/fresh"); hdr.Get("X-Cache") != "MISS" {
		t.Fatalf("first /fresh X-Cache = %q", hdr.Get("X-Cache"))
	}
	if _, _, hdr := px.get("/fresh"); hdr.Get("X-Cache") != "HIT" {
		t.Errorf("second /fresh X-Cache = %q, want HIT: admission is still ossified", hdr.Get("X-Cache"))
	}

	// Rotating 1,000-key workload with a recurring hot subset of 8.
	var hotHits, hotRequests int
	for i := 0; i < 3000; i++ {
		px.get(fmt.Sprintf("/rot/%d", i%1000))
		if i%3 == 0 {
			_, _, hdr := px.get(fmt.Sprintf("/pin/%d", i%8))
			if i > 100 { // past warm-up
				hotRequests++
				if hdr.Get("X-Cache") == "HIT" {
					hotHits++
				}
			}
		}
	}
	if hotHits == 0 {
		t.Errorf("hot subset hit ratio is zero across %d steady-state requests", hotRequests)
	}
}

// TestCacheHitsMonotonicAcrossChurn: CacheStats.Hits feeds a Prometheus
// counter, so it must never go backwards — an evicted object's hits are
// retired into its shard's total rather than leaving with it. Serially
// driven, the total is exact: one per HIT served.
func TestCacheHitsMonotonicAcrossChurn(t *testing.T) {
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "v:"+r.URL.Path)
	})
	const capacity = 32
	px := newHarness(t, topology{handler: handler, cfg: Config{
		MaxObjects:   capacity,
		Shards:       4,
		Bounds:       noRefreshBounds,
		DefaultDelta: time.Hour,
	}}).leaf()
	var served, last uint64
	for i := 0; i < 4*capacity; i++ {
		k := fmt.Sprintf("/churn/%d", i)
		px.get(k) // MISS: admits, evicting once past capacity
		for j := 0; j < 3; j++ {
			if _, _, hdr := px.get(k); hdr.Get("X-Cache") == "HIT" {
				served++
			}
		}
		cs := px.CacheStats()
		if cs.Hits < last {
			t.Fatalf("hits went backwards after admission %d: %d -> %d", i, last, cs.Hits)
		}
		last = cs.Hits
	}
	if cs := px.CacheStats(); cs.Evictions == 0 || cs.Hits != served {
		t.Errorf("hits %d after %d evictions, want every HIT served (%d)", cs.Hits, cs.Evictions, served)
	}
	// Admin eviction retires hits the same way.
	px.Evict(fmt.Sprintf("/churn/%d", 4*capacity-1))
	if got := px.CacheStats().Hits; got != served {
		t.Errorf("hits %d after an admin eviction, want %d", got, served)
	}
}

// TestClockPenalizesUngroupedVictimsFirst drives the per-shard CLOCK
// sweep deterministically at the store level: with every access bit
// clear, the sweep must spend the grouped entries' extra lives and evict
// the ungrouped residents first.
func TestClockPenalizesUngroupedVictimsFirst(t *testing.T) {
	s := newStore(1)
	mk := func(key, group string) *entry {
		e := &entry{key: key, group: intern(group)}
		e.size.Store(100)
		return e
	}
	seed := []*entry{
		mk("/a", ""), mk("/b", "news"), mk("/c", ""), mk("/d", "news"),
	}
	for _, e := range seed {
		if _, inserted, victims, capped := s.put(e.key, e, 4, -1); !inserted || len(victims) != 0 || capped {
			t.Fatalf("seeding %s: inserted=%v victims=%d capped=%v", e.key, inserted, len(victims), capped)
		}
	}
	// Clear the admission-grace access bits so the sweep sees a cold
	// cache where only group membership differentiates the candidates.
	for _, e := range seed {
		e.takeAccess()
	}

	_, _, victims, _ := s.put("/e", mk("/e", ""), 4, -1)
	if len(victims) != 1 || victims[0].key != "/a" {
		t.Fatalf("first eviction: victims = %v, want exactly /a (ungrouped)", keysOf(victims))
	}
	_, _, victims, _ = s.put("/f", mk("/f", ""), 4, -1)
	if len(victims) != 1 || victims[0].key != "/c" {
		t.Fatalf("second eviction: victims = %v, want exactly /c (ungrouped)", keysOf(victims))
	}
	for _, key := range []string{"/b", "/d"} {
		if s.get(key) == nil {
			t.Errorf("group member %s was evicted while ungrouped residents existed", key)
		}
	}
	for _, v := range victims {
		if !v.evicted() {
			t.Errorf("victim %s not marked with the eviction token", v.key)
		}
	}
}

// TestGroupLivesReplenishOnAccess pins the durability of the group
// penalty: a group member whose extra lives were spent gets them back
// when the sweep consumes a fresh access bit, so a warm group member
// never decays into an ungrouped-equivalent victim.
func TestGroupLivesReplenishOnAccess(t *testing.T) {
	s := newStore(1)
	mk := func(key, group string) *entry {
		e := &entry{key: key, group: intern(group)}
		e.size.Store(100)
		return e
	}
	grouped := mk("/g", "news")
	cold := mk("/cold", "")
	for _, e := range []*entry{grouped, cold} {
		s.put(e.key, e, 2, -1)
	}
	sh := &s.shards[0]
	// Exhaust the group member's shield, then hit it.
	sh.mu.Lock()
	grouped.lives = 0
	sh.mu.Unlock()
	grouped.markAccessed()
	cold.takeAccess()

	_, _, victims, _ := s.put("/new", mk("/new", ""), 2, -1)
	if len(victims) != 1 || victims[0].key != "/cold" {
		t.Fatalf("victims = %v, want /cold", keysOf(victims))
	}
	sh.mu.Lock()
	lives := grouped.lives
	sh.mu.Unlock()
	if lives != groupLives {
		t.Errorf("accessed group member's lives = %d after sweep, want replenished to %d", lives, groupLives)
	}
}

// TestByteBudgetEviction drives replacement purely by MaxBytes: objects
// of known size churn through a byte budget and the ledger never exceeds
// it at quiescence, while an object larger than the whole budget is
// served uncached instead of wiping the cache.
func TestByteBudgetEviction(t *testing.T) {
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/huge") {
			io.WriteString(w, strings.Repeat("H", 64<<10))
			return
		}
		io.WriteString(w, strings.Repeat("x", 4096))
	})
	const budget = 4 * (4096 + 700) // room for ~4 small objects
	px := newHarness(t, topology{handler: handler, cfg: Config{
		MaxBytes:     budget,
		Shards:       2,
		Bounds:       noRefreshBounds,
		DefaultDelta: time.Hour,
	}}).leaf()

	for i := 0; i < 12; i++ {
		px.get(fmt.Sprintf("/obj/%d", i))
	}
	if rb := px.CacheStats().ResidentBytes; rb > budget {
		t.Errorf("resident bytes %d exceed budget %d at quiescence", rb, budget)
	}
	if got := px.Len(); got == 0 || got > 4 {
		t.Errorf("resident objects = %d, want 1..4 under the byte budget", got)
	}
	if cs := px.CacheStats(); cs.Evictions == 0 {
		t.Error("byte-budget churn recorded no evictions")
	}

	// A single object bigger than the whole budget: served, not cached.
	before := px.Len()
	if _, _, hdr := px.get("/huge"); hdr.Get("X-Cache") != "BYPASS" {
		t.Errorf("oversized object X-Cache = %q, want BYPASS", hdr.Get("X-Cache"))
	}
	if got := px.Len(); got != before {
		t.Errorf("oversized admission changed residency %d -> %d", before, got)
	}
	if cs := px.CacheStats(); cs.Capped == 0 {
		t.Error("oversized object not counted as capped")
	}
}

// TestGroupMembersSurviveChurnTogether admits a full consistency group
// plus ungrouped filler into one shard, then churns fresh keys through:
// the victim scan must take the ungrouped residents and leave the group
// intact (members survive together, as designed).
func TestGroupMembersSurviveChurnTogether(t *testing.T) {
	origin := webserver.NewOrigin()
	groupPaths := []string{"/g/1", "/g/2", "/g/3", "/g/4"}
	for _, p := range groupPaths {
		origin.Set(p, []byte("grouped "+p), "text/plain")
		origin.SetTolerances(p, httpx.Tolerances{Group: "bundle"})
	}
	for i := 0; i < 4; i++ {
		origin.Set(fmt.Sprintf("/u/%d", i), []byte("filler"), "text/plain")
	}
	for i := 0; i < 4; i++ {
		origin.Set(fmt.Sprintf("/churn/%d", i), []byte("churn"), "text/plain")
	}
	px := newHarness(t, topology{handler: origin, cfg: Config{
		MaxObjects:   8,
		Shards:       1,
		Bounds:       noRefreshBounds,
		DefaultDelta: time.Hour,
	}}).leaf()

	for _, p := range groupPaths {
		px.get(p)
	}
	for i := 0; i < 4; i++ {
		px.get(fmt.Sprintf("/u/%d", i))
	}
	// Cache full: 4 grouped + 4 ungrouped. Churn 4 fresh keys through.
	for i := 0; i < 4; i++ {
		px.get(fmt.Sprintf("/churn/%d", i))
	}

	for _, p := range groupPaths {
		if st := px.ObjectStats(p); !st.Cached || !st.Grouped {
			t.Errorf("group member %s: stats %+v, want cached and grouped", p, st)
		}
	}
	for i := 0; i < 4; i++ {
		if st := px.ObjectStats(fmt.Sprintf("/u/%d", i)); st.Cached {
			t.Errorf("ungrouped filler /u/%d survived while group members were at risk", i)
		}
	}
	if cs := px.CacheStats(); cs.Evictions != 4 {
		t.Errorf("evictions = %d, want 4", cs.Evictions)
	}
}

// TestEmptyGroupStateIsRetired pins the group-map leak fix: evicting
// every member of a group removes its groupState from the proxy, so
// churn over distinct group names cannot grow memory without bound —
// and a re-admission under the same name builds a fresh state.
func TestEmptyGroupStateIsRetired(t *testing.T) {
	origin := webserver.NewOrigin()
	for i := 0; i < 8; i++ {
		p := fmt.Sprintf("/grp/%d", i)
		origin.Set(p, []byte("member"), "text/plain")
		origin.SetTolerances(p, httpx.Tolerances{Group: fmt.Sprintf("g%d", i)})
	}
	px := newHarness(t, topology{handler: origin, cfg: Config{
		Bounds:       noRefreshBounds,
		DefaultDelta: time.Hour,
	}}).leaf()
	for i := 0; i < 8; i++ {
		px.get(fmt.Sprintf("/grp/%d", i))
	}
	px.groupMu.RLock()
	before := len(px.groups)
	px.groupMu.RUnlock()
	if before != 8 {
		t.Fatalf("group states after admission = %d, want 8", before)
	}
	for i := 0; i < 8; i++ {
		px.Evict(fmt.Sprintf("/grp/%d", i))
	}
	px.groupMu.RLock()
	after := len(px.groups)
	px.groupMu.RUnlock()
	if after != 0 {
		t.Errorf("group states after evicting all members = %d, want 0 (leak)", after)
	}
	// Same group name again: a fresh state is created and usable.
	px.get("/grp/3")
	if st := px.ObjectStats("/grp/3"); !st.Cached || !st.Grouped {
		t.Errorf("re-admitted group member stats %+v", st)
	}
}

// TestEvictedThenRerequestedSingleFetch pins the singleflight guarantee
// across an eviction: once an object is evicted, a concurrent herd of
// re-requests produces exactly one new origin fetch.
func TestEvictedThenRerequestedSingleFetch(t *testing.T) {
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "target body")
	})
	px := newHarness(t, topology{handler: handler, cfg: Config{
		Bounds:       noRefreshBounds,
		DefaultDelta: time.Hour,
	}}).leaf()

	px.get("/target")
	if got := px.up.requestsFor("/target"); got != 1 {
		t.Fatalf("admission fetches after warm-up = %d, want 1", got)
	}
	if !px.Evict("/target") {
		t.Fatal("Evict(/target) found nothing resident")
	}
	if px.Evict("/target") {
		t.Error("second Evict of the same key reported success")
	}
	if st := px.ObjectStats("/target"); st.Cached {
		t.Fatalf("evicted object still reports cached: %+v", st)
	}

	// The re-admission's reply is held at the origin until the whole herd
	// has asked.
	held := px.up.hold(t, "/target")
	const herd = 32
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body, _ := px.get("/target")
			if code != http.StatusOK || body != "target body" {
				t.Errorf("re-request: status %d body %q", code, body)
			}
		}()
	}
	held.wait(t)
	held.release()
	wg.Wait()
	if got := px.up.requestsFor("/target"); got != 2 {
		t.Errorf("admission fetches after evict+herd = %d, want exactly 2", got)
	}
	if st := px.ObjectStats("/target"); !st.Cached {
		t.Error("re-requested object was not re-admitted")
	}
}

// TestEvictionUnwindsSchedulerState is the invariant battery: after
// evicting N objects the refresh heap holds no entries for them (no
// ghost polls reach the origin), the byte ledger returns to zero when
// the cache is emptied, and the object count never drifts from the sum
// of the shard map (and CLOCK ring) sizes.
func TestEvictionUnwindsSchedulerState(t *testing.T) {
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "body "+r.URL.Path)
	})
	// Short TTRs: ghost schedule entries would poll at every step.
	h := newHarness(t, topology{handler: handler, cfg: Config{
		Shards: 4,
		Bounds: core.TTRBounds{Min: 10 * time.Millisecond, Max: 50 * time.Millisecond},
	}})
	px := h.leaf()

	const n = 24
	for i := 0; i < n; i++ {
		px.get(fmt.Sprintf("/obj/%d", i))
	}
	h.advance(100 * time.Millisecond) // a few refreshes of every object
	checkStoreInvariants(t, px)

	for i := 0; i < n; i++ {
		if !px.Evict(fmt.Sprintf("/obj/%d", i)) {
			t.Fatalf("Evict(/obj/%d) found nothing", i)
		}
	}

	if got := px.Len(); got != 0 {
		t.Errorf("resident objects after emptying = %d, want 0", got)
	}
	if rb := px.CacheStats().ResidentBytes; rb != 0 {
		t.Errorf("byte ledger after emptying = %d, want 0", rb)
	}
	px.schedMu.Lock()
	heapLen := px.schedule.Len()
	px.schedMu.Unlock()
	if heapLen != 0 {
		t.Errorf("refresh heap still holds %d items after evicting every object", heapLen)
	}
	checkStoreInvariants(t, px)

	// No ghost polls: nothing may reach the origin once the cache is
	// empty, across many TTR periods.
	before := px.CacheStats()
	requests := 0
	for i := 0; i < n; i++ {
		requests += px.up.requestsFor(fmt.Sprintf("/obj/%d", i))
	}
	h.advance(time.Second)
	for i := 0; i < n; i++ {
		requests -= px.up.requestsFor(fmt.Sprintf("/obj/%d", i))
	}
	if requests != 0 || px.CacheStats().RegularPolls != before.RegularPolls {
		t.Errorf("%d origin requests after every object was evicted (ghost schedule entries)", -requests)
	}
}

// TestConcurrentChurnInvariants hammers admission and eviction from many
// goroutines over a tiny cache, then verifies at quiescence that the
// count, the byte ledger, the shard maps, the CLOCK rings, and the
// refresh heap all agree. Run under -race this exercises the put/evict
// and unwind paths against each other.
func TestConcurrentChurnInvariants(t *testing.T) {
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "churn "+r.URL.RawQuery)
	})
	px := newHarness(t, topology{handler: handler, cfg: Config{
		MaxObjects:   16,
		Shards:       4,
		Bounds:       noRefreshBounds,
		DefaultDelta: time.Hour,
	}}).leaf()

	const goroutines = 8
	const requests = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				// 64 distinct keys over a 16-object cache: constant
				// replacement, frequent cross-goroutine collisions.
				px.get(fmt.Sprintf("/k?i=%d", (g*37+i)%64))
				if i%16 == 0 {
					px.Evict(fmt.Sprintf("/k?i=%d", i%64))
				}
			}
		}(g)
	}
	wg.Wait()

	checkStoreInvariants(t, px)
	if got := px.Len(); got > 16 {
		t.Errorf("resident objects = %d, exceeds MaxObjects 16 at quiescence", got)
	}
	px.schedMu.Lock()
	heapLen := px.schedule.Len()
	px.schedMu.Unlock()
	if heapLen != px.Len() {
		t.Errorf("refresh heap holds %d items for %d residents", heapLen, px.Len())
	}
}

// TestRefreshGrowthReenforcesByteBudget pins fix #1 from review: when a
// background refresh grows cached bodies past MaxBytes, the budget is
// re-enforced by evicting residents — not only at admission time.
func TestRefreshGrowthReenforcesByteBudget(t *testing.T) {
	var grown atomic.Bool
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := 512
		if grown.Load() {
			n = 8192
		}
		io.WriteString(w, strings.Repeat("b", n))
	})
	const budget = 6 * (512 + 700) // six small objects fit comfortably
	h := newHarness(t, topology{handler: handler, cfg: Config{
		MaxBytes: budget,
		Shards:   2,
		Bounds:   core.TTRBounds{Min: 10 * time.Millisecond, Max: 50 * time.Millisecond},
	}})
	px := h.leaf()
	for i := 0; i < 6; i++ {
		px.get(fmt.Sprintf("/grow/%d", i))
	}
	if rb := px.CacheStats().ResidentBytes; rb > budget {
		t.Fatalf("resident bytes %d over budget %d before growth", rb, budget)
	}

	// Bodies now refresh to 16x their size. No admissions happen —
	// only background polls — yet the ledger must come back under
	// budget via refresh-time shrink.
	grown.Store(true)
	h.advance(100 * time.Millisecond)
	if cs := px.CacheStats(); cs.Evictions == 0 || cs.ResidentBytes > budget {
		t.Errorf("ledger stuck at %d (budget %d, evictions %d): refresh growth not re-enforced",
			cs.ResidentBytes, budget, cs.Evictions)
	}
	checkStoreInvariants(t, px)
}

// TestOversizedRefreshDoesNotWipeCache pins the ordering of the
// refresh-time budget enforcement: when one body grows past the whole
// MaxBytes budget, that object alone is evicted — the shrink loop must
// not drain every other resident first in a futile attempt to fit it.
func TestOversizedRefreshDoesNotWipeCache(t *testing.T) {
	var grown atomic.Bool
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/big" && grown.Load() {
			io.WriteString(w, strings.Repeat("B", 16384))
			return
		}
		io.WriteString(w, strings.Repeat("s", 512))
	})
	const budget = 8 * (512 + 700)
	h := newHarness(t, topology{handler: handler, cfg: Config{
		MaxBytes: budget,
		Shards:   2,
		Bounds:   core.TTRBounds{Min: 10 * time.Millisecond, Max: 50 * time.Millisecond},
	}})
	px := h.leaf()
	for i := 0; i < 5; i++ {
		px.get(fmt.Sprintf("/small/%d", i))
	}
	px.get("/big")

	grown.Store(true)
	h.advance(50 * time.Millisecond)
	if px.ObjectStats("/big").Cached {
		t.Fatal("oversized-on-refresh object was never evicted")
	}
	// A few more refresh cycles: the small objects must remain.
	h.advance(150 * time.Millisecond)
	for i := 0; i < 5; i++ {
		if st := px.ObjectStats(fmt.Sprintf("/small/%d", i)); !st.Cached {
			t.Errorf("/small/%d was collateral damage of the oversized refresh", i)
		}
	}
	if rb := px.CacheStats().ResidentBytes; rb > budget {
		t.Errorf("ledger %d over budget %d after oversize eviction", rb, budget)
	}
	checkStoreInvariants(t, px)
}

// TestEvictedPairSurvivorUnpairsAndRepairs pins fix #3 from review:
// evicting half of a partitioned M_v pair returns the widow to an
// individual policy (paired=false) so a later value member can pair
// with it again.
func TestEvictedPairSurvivorUnpairsAndRepairs(t *testing.T) {
	origin := webserver.NewOrigin()
	for _, p := range []string{"/quote/a", "/quote/b", "/quote/c"} {
		origin.Set(p, []byte("100.00"), "text/plain")
		origin.SetTolerances(p, httpx.Tolerances{ValueDelta: 0.5, Group: "quotes"})
	}
	px := newHarness(t, topology{handler: origin, cfg: Config{
		Bounds:       noRefreshBounds,
		DefaultDelta: time.Hour,
	}}).leaf()

	px.get("/quote/a")
	px.get("/quote/b")
	paired := func(key string) bool {
		e := px.lookup(key)
		if e == nil {
			t.Fatalf("%s not resident", key)
		}
		e.mu.RLock()
		defer e.mu.RUnlock()
		return e.paired()
	}
	if !paired("/quote/a") || !paired("/quote/b") {
		t.Fatal("first two value members did not pair")
	}

	if !px.Evict("/quote/b") {
		t.Fatal("Evict(/quote/b) found nothing")
	}
	if paired("/quote/a") {
		t.Error("widowed pair survivor still marked paired; it would poll a tightened share forever")
	}

	px.get("/quote/c")
	if !paired("/quote/a") || !paired("/quote/c") {
		t.Error("widowed survivor did not re-pair with the next value member")
	}
}

// checkStoreInvariants asserts the redundant store bookkeeping agrees:
// count == sum of shard map sizes == sum of ring lengths, and the byte
// ledger equals the sum of resident entry sizes.
func checkStoreInvariants(t *testing.T, px *node) {
	t.Helper()
	var mapSum, ringSum int
	var byteSum int64
	for i := range px.store.shards {
		sh := &px.store.shards[i]
		sh.mu.RLock()
		mapSum += len(sh.entries)
		ringSum += len(sh.ring)
		for _, e := range sh.entries {
			byteSum += e.size.Load()
			if e.evicted() {
				t.Errorf("resident entry %s carries the eviction token", e.key)
			}
		}
		for _, e := range sh.ring {
			if sh.entries[e.key] != e {
				t.Errorf("ring entry %s missing from its shard map", e.key)
			}
		}
		sh.mu.RUnlock()
	}
	if count := px.store.len(); count != mapSum || count != ringSum {
		t.Errorf("count drift: count=%d shard maps=%d rings=%d", count, mapSum, ringSum)
	}
	if ledger := px.store.residentBytes(); ledger != byteSum {
		t.Errorf("byte ledger drift: ledger=%d sum of entry sizes=%d", ledger, byteSum)
	}
}

func keysOf(entries []*entry) []string {
	keys := make([]string, len(entries))
	for i, e := range entries {
		keys[i] = e.key
	}
	return keys
}

// TestStoreInvariantsAcrossDemotePromoteEvictCycles extends the drift
// checks to the disk tier: many rounds of admissions beyond the byte
// budget (demotions), re-requests of displaced keys (promotions), and
// interleaved admin evictions must leave the shard maps, CLOCK rings,
// and byte ledger agreeing after every round — and an evicted key gone
// from both tiers while every other key survives in at least one.
func TestStoreInvariantsAcrossDemotePromoteEvictCycles(t *testing.T) {
	lastMod := time.Now().UTC().Add(-time.Hour).Truncate(time.Second)
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Last-Modified", lastMod.Format(http.TimeFormat))
		if ims := r.Header.Get("If-Modified-Since"); ims != "" {
			if since, err := http.ParseTime(ims); err == nil && !lastMod.After(since) {
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
		body := "cycle body for " + r.URL.Path
		for len(body) < 512 {
			body += "."
		}
		io.WriteString(w, body)
	})
	// ~1KiB per resident entry against a 4KiB budget: every round of
	// admissions displaces most of the previous round to disk.
	px := newHarness(t, topology{handler: handler, cfg: Config{
		MaxBytes:     4096,
		Shards:       4,
		Bounds:       noRefreshBounds,
		DefaultDelta: time.Hour,
		DiskDir:      t.TempDir(),
	}}).leaf()

	const keys = 24
	key := func(i int) string { return fmt.Sprintf("/cycle/%d", i) }
	evicted := make(map[string]bool)
	for round := 0; round < 6; round++ {
		// Admit/promote a sliding window of keys (wrapping, so later
		// rounds re-request keys earlier rounds demoted).
		for i := 0; i < keys; i++ {
			k := key((round*7 + i) % keys)
			if evicted[k] {
				continue
			}
			if code, _, _ := px.get(k); code != 200 {
				t.Fatalf("round %d: GET %s = %d", round, k, code)
			}
		}
		// Evict one resident and one (likely) demoted key each round.
		for _, k := range []string{key(round), key(keys - 1 - round)} {
			if !evicted[k] && !px.Evict(k) {
				t.Errorf("round %d: Evict(%s) found nothing in either tier", round, k)
			}
			evicted[k] = true
		}
		checkStoreInvariants(t, px)
	}

	px.FlushDisk()
	for i := 0; i < keys; i++ {
		k := key(i)
		_, onDisk := px.disk.Meta(k)
		resident := px.lookup(k) != nil
		if evicted[k] {
			if resident || onDisk {
				t.Errorf("%s evicted but still present (resident=%v disk=%v)", k, resident, onDisk)
			}
		} else if !resident && !onDisk {
			t.Errorf("%s lost from both tiers", k)
		}
	}
	ds := px.DiskStats()
	if ds.Demotions == 0 || ds.Promotions == 0 || ds.Deletes == 0 {
		t.Errorf("cycle stats: demotions=%d promotions=%d deletes=%d, want all nonzero",
			ds.Demotions, ds.Promotions, ds.Deletes)
	}
	checkStoreInvariants(t, px)
}
