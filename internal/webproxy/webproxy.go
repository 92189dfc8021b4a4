// Package webproxy implements a live HTTP caching proxy that maintains
// Δt-consistency and mutual consistency for the objects it caches, using
// the same core policy state machines as the simulator. It is the paper's
// stated future work ("implement our techniques in the Squid proxy
// cache") realized as a self-contained Go proxy, shaped for production
// concurrency rather than a single-threaded demo.
//
// The architecture splits into three independent layers:
//
//   - A sharded object store (2^k shards, per-shard RWMutex, FNV-keyed;
//     see store.go). Cache hits touch only their own shard and share the
//     immutable body slice, so the hit path scales with parallelism
//     instead of serializing on a global lock.
//   - A min-heap refresh schedule (internal/sched) ordered by each
//     object's next poll instant, giving the dispatcher O(log n) access
//     to the next due refresh instead of an O(n) scan.
//   - A bounded pool of poll workers (Config.PollWorkers) that perform
//     the origin fetches (see refresh.go). Work is routed by the FNV
//     hash of the consistency group (or the cache key for ungrouped
//     objects), so MutualTimeController state stays effectively
//     single-threaded per group, and a slow origin stalls at most the
//     one worker its hash lands on — the other workers' objects keep
//     refreshing — instead of stalling the whole proxy as the previous
//     single-refresher design did.
//
// Cache misses are admitted through a singleflight group: N concurrent
// first requests for one object produce exactly one origin fetch. Cache
// keys include the canonicalized query string, so /stock?sym=A and
// /stock?sym=B are distinct objects; because that makes key cardinality
// client-controlled, residency is bounded by Config.MaxObjects and the
// Config.MaxBytes memory budget. An admission beyond either budget
// reclaims residents by per-shard CLOCK (second-chance) replacement:
// hits mark an access bit with a lock-free atomic store, the sweep
// clears it, and mutual-consistency group members carry extra second
// chances so a group is not silently broken by evicting one member. An
// evicted object is fully unwound — removed from the refresh schedule
// (no ghost polls), detached from its group controller, and safe against
// a concurrent re-admission of the same key through the singleflight
// group. An object that alone overflows MaxBytes, or whose Cache-Control
// carries no-store or private, is served uncached (X-Cache: BYPASS); a
// poll answered 404 or 410, or with such a Cache-Control, evicts the
// copy. Upstream failures back off exponentially (capped at
// the TTR upper bound) without disturbing the policy's learned TTR
// state; a hit on a copy whose last poll failed and whose last
// validation is older than its Δ is served as X-Cache: STALE.
//
// The paper's proxy has one event — a validation arrives, the copy is
// replaced, NextTTR and the §3.2 triggers run — and so does this one. A
// version (refresh.go) enters the cache one of two ways, whatever
// produced it:
//
//   - admitFrom (webproxy.go) builds a new entry from config defaults ⊕
//     the disk record ⊕ the upstream's version — a cold miss has no
//     record, a disk promotion has both (the version a 304 the push
//     channel answers when a live lease carried the record), a startup
//     rehydration has no version and is born suspect — hands it to
//     installEntry (store, group, schedule, lease-or-not) and accounts
//     for it once.
//   - install (refresh.go) replaces a resident entry's copy. Its sources
//     are an origin poll off the TTR schedule (If-Modified-Since, the
//     modification-history extension consumed when provided), a
//     triggered poll, a pushed poll, and a pushed payload that
//     acceptPushed has checked against its digest and, for a delta, the
//     body actually held. install is the only code that writes an
//     entry's body, digest, Last-Modified and validation instant; from
//     them it builds the core.PollOutcome, and then runs the rest in a
//     fixed order: byte ledger, downstream relay, group controller,
//     disk write-behind, NextTTR reschedule, §3.2 triggers, observer.
//
// Both, and a pushed payload landed on a demoted object's disk record,
// land a version's Content-Type and Cache-Control by one rule (see
// headersOver).
//
// On top of that pull machinery the proxy can layer an origin-driven
// invalidation channel (Config.PushURL, wire protocol in internal/push):
// the origin streams per-object update events, each event converts into
// an immediate pushed job through the affinity workers — installing the
// new body the event carries, or polling when it carries none — and
// while the channel is healthy every key it covers holds a lease: its
// regular poll runs a lease term (Config.PushStretch × Bounds.Max) after
// its last validation, a poll's or a pushed install's — consistency traffic
// then scales with the origin's churn instead of with the poll schedule,
// and a key the channel keeps updating sends no poll at all. The channel
// is an optimization, never a correctness dependency: whatever ends a lease
// (disconnect, heartbeat timeout, Reset, frame loss) drops the proxy
// back to pure paper-mode polling, and a staleness-bounded catch-up
// sweep restores every leased schedule entry to its paper-mode instant,
// so the Δt guarantee never silently widens (see lease.go).
//
// Proxies compose into a hierarchy: Config.RelayEvents gives a proxy a
// downstream face (see relay.go) — its own event hub republishing each
// upstream update once (as this proxy installed it, for an object it
// holds) and every update its polls find, served over the same /events
// protocol, with upstream holes propagated as mid-stream Resets — while
// conditional-GET answering, audit batches (see audit.go) and
// tolerance-directive forwarding let child proxies revalidate content
// against this one exactly as it revalidates against its origin, by the
// origin's writer and vouch rule (see entry.answer). One origin
// stream and one origin poller then serve an arbitrarily wide edge
// fleet, and each hop's Δt guarantee degrades at worst to pure polling
// against its own upstream.
package webproxy

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unique"

	"broadway/internal/core"
	"broadway/internal/diskstore"
	"broadway/internal/httpx"
	"broadway/internal/push"
	"broadway/internal/sched"
	"broadway/internal/simtime"
	"broadway/internal/singleflight"
)

// Config parameterizes a Proxy.
type Config struct {
	// Origin is the base URL of the upstream server. Required.
	Origin *url.URL
	// Client performs upstream requests, the push stream's included
	// (without its Timeout); defaults to a client with a 10-second timeout
	// that follows no redirect, so a 3xx reaches the proxy as answered
	// (see originAnswer).
	Client *http.Client
	// DefaultDelta is the Δt tolerance applied to objects whose origin
	// response carries no x-cc-delta directive. Defaults to one minute.
	DefaultDelta time.Duration
	// Bounds clamp the TTRs of all refresh policies. Min defaults to
	// the object's Δ, or to Max when Δ exceeds it; Max to 60 minutes.
	// New rejects negative or inverted bounds.
	Bounds core.TTRBounds
	// Mode selects the mutual-consistency approach for grouped objects.
	// Defaults to TriggerAll.
	Mode core.TriggerMode
	// DefaultGroupDelta is δ for groups whose origin responses carry no
	// x-mc-delta directive. Defaults to DefaultDelta.
	DefaultGroupDelta time.Duration
	// Shards is the number of object-store shards, rounded up to a
	// power of two. Defaults to 64.
	Shards int
	// MaxObjects caps the number of cached objects: an admission beyond
	// the cap evicts a resident selected by the CLOCK sweep, so a client
	// enumerating query strings cannot grow memory and origin poll load
	// without bound. Defaults to 65536; negative disables the cap.
	MaxObjects int
	// MaxBytes bounds the approximate resident memory of cached objects
	// (key + body + per-entry overhead). Admissions beyond the budget
	// evict residents, the budget is re-enforced when a background
	// refresh grows a cached body, and an object that alone exceeds it
	// is served uncached (X-Cache: BYPASS). Zero or negative disables
	// the budget (the default).
	MaxBytes int64
	// PollWorkers bounds the number of concurrent origin polls.
	// Defaults to GOMAXPROCS.
	PollWorkers int
	// Clock substitutes the time source. It may be offset from the real
	// clock but must advance at wall rate: the dispatcher computes
	// waits on this timeline and sleeps them in wall time. (Tests step a
	// virtual clock on the harness in harness_test.go: newHarness builds
	// the topology, advance moves the clock, quiesce waits it out.)
	Clock func() time.Time
	// PushURL, when set, subscribes the proxy to an origin-driven
	// invalidation channel at that URL (the webserver's /events
	// endpoint) and enables hybrid push–pull consistency: a pushed event
	// installs the new body it carries — digest-verified, charged against
	// the byte ledger, with no origin request — or, when it carries none
	// or the body cannot be installed, triggers an immediate poll; covered keys'
	// regular polls run once per lease term while the channel is healthy
	// (see PushStretch), and a disconnect falls back to pure polling with
	// a catch-up sweep. Nil disables push (the default, pure paper mode).
	PushURL *url.URL
	// PushStretch sets the lease term L = PushStretch × Bounds.Max:
	// while the push channel is healthy and carries a key, that key's
	// regular poll becomes an audit run L after its last validation —
	// a poll's, or a pushed install's — whatever TTR its policy has
	// learned, so a key pushed more often than L is never audited; and
	// the key needs no §3.2 triggered poll when a sibling updates
	// (with DiskDir, a carried demoted object is promoted with no
	// upstream request). Whatever ends a lease restores the paper-mode
	// schedule in one sweep, and an update the channel fails to announce
	// reaches a carried key within L. Values ≤ 1 disable leases (push then
	// only adds immediacy, saving no poll traffic). Zero means unset and
	// defaults to 4 when PushURL is set. Which keys a lease carries, and
	// the staleness each failure can cost, are documented in lease.go.
	PushStretch float64
	// Deprecated: ignored; a subscribed or relaying proxy always carries
	// values.
	PushValues bool
	// PushBackoffMin and PushBackoffMax bound the subscriber's
	// reconnect backoff (defaults 100ms and 10s).
	PushBackoffMin, PushBackoffMax time.Duration
	// PushHeartbeatTimeout declares the channel dead when no frame
	// arrives for this long; it must exceed the origin's heartbeat
	// interval. Defaults to 30s; negative disables the watchdog.
	PushHeartbeatTimeout time.Duration
	// PushInterest narrows the upstream subscription to a declared
	// interest set instead of the full event stream: on every
	// (re)connect the subscriber declares the union of PushPrefixes, one
	// path-segment prefix per resident object, and — when relaying —
	// every interest set its own downstream subscribers have declared.
	// The upstream hub then skips frames outside the declaration, so an
	// edge proxy caching a slice of the key space pays fan-out for that
	// slice only. An object admitted (or a child connected) outside the
	// current declaration bounces the stream to renegotiate; until the
	// wider declaration is live such objects keep pure-polling freshness
	// (see lease.go), so filtering never widens a Δt bound. False
	// (the default) subscribes to everything.
	PushInterest bool
	// PushPrefixes seeds the declared interest set when PushInterest is
	// on: key prefixes this proxy wants announced even before anything
	// matching is resident. With none and nothing resident the
	// declaration is empty, which the wire cannot express and therefore
	// widens to match-all — interest filtering fails open, never closed.
	PushPrefixes []string
	// RelayEvents, when true, gives the proxy a downstream face: it
	// republishes each upstream update event once — as received for an
	// object it does not hold, as the version it installed (or, having
	// installed none, as received) after its own pushed job for one it
	// does — and every update its polls find into its own hub (own
	// sequence space), served at RelayPath over the same SSE protocol
	// the origin speaks, so child proxies subscribe to this proxy exactly
	// as it subscribes to its origin. An upstream disconnect or Reset propagates to children as
	// a mid-stream hello/Reset, driving their fallback sweeps (see
	// relay.go). Each published version carries its body, up to
	// push.DefaultPayloadCap per frame and chunked at it beyond, to every
	// child, so a child installs it with no request against this proxy.
	// Works with or without PushURL: a
	// pure-polling parent still relays the updates its own polls
	// confirm, bodies and all. Relayed streams
	// heartbeat every push.DefaultHeartbeat, and a child stream whose
	// proven position falls push.DefaultSubscriberBuffer events behind
	// the head is terminated (it reconnects and resumes, or Resets if
	// the ring has moved on).
	RelayEvents bool
	// RelayPath is the path the relayed event stream is served at
	// (default "/events"). Requests for it are handled by the relay hub
	// and never reach the cache or the origin.
	RelayPath string
	// PollObserver, when non-nil, is invoked after every successful
	// origin poll of a cached object (including the admission fetch).
	// It runs on the polling goroutine and must be fast and
	// concurrency-safe. The conformance tests use it to reconstruct
	// per-object refresh logs; production deployments would hang
	// metrics export off it.
	PollObserver func(PollObservation)
	// DiskDir, when set, enables the persistent disk tier (see disk.go
	// and internal/diskstore): every validated object is written behind
	// the in-memory store asynchronously, CLOCK victims demote to disk
	// instead of vanishing (promoted back on the next request through a
	// validating fetch, or with none while a live lease has carried the
	// record since its last validation), and a restart rehydrates the
	// cache warm with learned TTR state intact: a record validated
	// within the last five minutes is served before its re-validation
	// poll completes (marked X-Cache: GRACE, so the widened bound is
	// explicit, never silent), and older records stay on disk until a
	// validating promote. Empty disables persistence (the default).
	DiskDir string
	// DiskMaxBytes bounds the disk tier's blob bytes; the oldest-
	// validated records are dropped beyond it. Zero or negative means
	// unbounded.
	DiskMaxBytes int64
}

// PollObservation describes one successful origin poll, as reported to
// Config.PollObserver.
type PollObservation struct {
	// Key is the object's canonical cache key.
	Key string
	// At is the validation instant on the proxy's clock.
	At time.Time
	// Modified reports whether the poll found a new version.
	Modified bool
	// Initial marks the admission fetch.
	Initial bool
	// Triggered marks polls requested by a mutual-consistency
	// controller.
	Triggered bool
	// Pushed marks polls requested by the invalidation channel.
	Pushed bool
	// Applied marks pushed events whose payload was installed directly,
	// with no origin request at all (Pushed is set too).
	Applied bool
	// Value and HasValue carry the parsed body of value-domain objects.
	Value    float64
	HasValue bool
	// Vouched lists the group members this update's §3.2 triggering
	// found carried by the push channel's lease: each is known current at
	// At with no request, and was not polled. They are synchronisation
	// instants of those members, not polls.
	Vouched []string
}

// entry is one cached object. Every resident holds one on every hop, so
// its layout is kept within the ledger's entryOverhead (see store.go):
// headers shared by many objects are interned, value-domain state sits
// behind a pointer only value objects allocate, the refresh-heap slot is
// embedded, and the flags are packed.
type entry struct {
	key   string // canonical cache key: path plus sorted query, owned by the entry
	group interned

	// mu guards the mutable data fields below. The policy runs only on
	// the entry's affinity worker (or, for a partitioned M_v pair, the
	// group's worker), but pairing at admission can swap it, so it is
	// guarded too.
	mu     sync.RWMutex
	policy core.Policy

	body []byte // replaced wholesale on refresh, never mutated
	// bodyDigest is push.DigestOf(body) when the proxy subscribes or
	// relays (empty otherwise, see carriesValues): set with the body by
	// installEntry and install, the only two places a body is assigned.
	// It is what the delta rung compares a pushed frame's base digest
	// against, and what the subscriber advertises as held on connect.
	bodyDigest  string
	contentType interned
	// cacheControl is the origin's Cache-Control header, forwarded on
	// responses so child proxies learn the same tolerance directives.
	cacheControl interned
	// lastMod is the origin's Last-Modified in Unix nanoseconds, the form
	// the push wire carries modification instants in, when hasLastMod
	// (see lastModified).
	lastMod     int64
	validatedAt time.Time

	// vx is the value-domain state of an object whose origin advertised
	// x-cc-vdelta (§4.1); nil for every other object. Immutable after
	// admission.
	vx *valueState

	// item is the entry's slot on the proxy's refresh heap, and leased how
	// far a lease moved the poll past its paper-mode instant; both are
	// guarded by the proxy's schedMu. item.At is the scheduled poll
	// instant, item.Pending whether it is on the heap (false while the poll
	// is queued or in flight, and once evicted); the instant pure
	// paper-mode polling would have used, which the fallback sweep
	// restores when the channel dies, is item.At − leased (see
	// baseNextAt).
	item   sched.Item
	leased time.Duration

	// Replacement state. size is the resident bytes charged to the
	// store's ledger (re-charged on refresh under the shard lock).
	size atomic.Int64

	polls     atomic.Uint64
	triggered atomic.Uint64
	pushed    atomic.Uint64
	applied   atomic.Uint64
	hits      atomic.Uint64
	// pendingPush coalesces a burst of pushed events into one queued
	// job, and a non-nil slot IS that job: filling an empty slot
	// enqueues one, starting one empties it. It holds the event the job
	// will act on — the newest version's most installable frame, payload
	// and all, so a coalesced burst applies the LATEST body rather than
	// the first (installing a stale payload after dropping its
	// successors would serve old data as fresh). A job that installs
	// nothing relays the event as received (see relay.go).
	pendingPush atomic.Pointer[pushedEvent]
	// delta and groupDelta are the resolved Δ/δ tolerances the entry
	// was admitted with (config defaults overlaid by origin
	// directives), snapshotted here so the disk tier can persist and
	// restore them. Immutable after admission, but for an override of
	// delta under mu.
	delta      time.Duration
	groupDelta time.Duration

	failures int32 // consecutive upstream failures, guarded by mu
	// ringIdx and lives (remaining extra second chances; group members
	// start with groupLives) are guarded by the owning shard's mutex.
	ringIdx int32
	// state holds the lock-free flags: evicted, suspect and the CLOCK
	// access bit (see the state* constants).
	state atomic.Uint32
	lives uint8
	// capped marks an entry served uncached because the object alone
	// overflows MaxBytes, or its Cache-Control forbids storing it.
	capped bool
	// unpushable marks an object whose key cannot fit an invalidation
	// frame: the origin will never announce its updates, so it is
	// never leased. Immutable after admission.
	unpushable bool
	hasLastMod bool // guarded by mu
}

// The bits of entry.state.
const (
	// stateEvicted is the cancellation token: set under the shard lock
	// when the entry leaves the store, it stops future reschedules and
	// in-flight polls from resurrecting the object.
	stateEvicted = 1 << iota
	// stateSuspect marks a rehydrated entry not yet re-validated against
	// the origin in this process lifetime: hits serve it as X-Cache:
	// GRACE until its validation poll clears the mark, so the Δt bound
	// never widens silently across a restart.
	stateSuspect
	// stateAccessed is the CLOCK access bit, marked on hits (see
	// markAccessed) and consumed by the victim sweep (see takeAccess).
	stateAccessed
)

// valueState is a value-domain entry's state. value and valueDelta are
// guarded by the entry's mu; valueDelta is the advertised Δv, changed
// only by a tolerance override (widow rebuilds a widowed partner's
// individual policy from it). paired marks a value entry whose policy
// belongs to a MutualValuePartitioned pair (M_v consistency, §4.2), and
// is guarded by the entry's mu; partner links the two halves of the pair
// and is guarded by the group's mu (pairing and unpairing both run under
// it).
type valueState struct {
	value      float64
	valueDelta float64
	paired     bool
	partner    *entry
}

// lastModified returns the cached Last-Modified and whether the origin
// stated one. The caller holds e.mu.
func (e *entry) lastModified() (time.Time, bool) {
	if !e.hasLastMod {
		return time.Time{}, false
	}
	return time.Unix(0, e.lastMod).UTC(), true
}

// setLastModified records the origin's Last-Modified. The caller holds
// e.mu, or owns an entry not yet published.
func (e *entry) setLastModified(t time.Time) {
	e.lastMod, e.hasLastMod = t.UnixNano(), true
}

// since is the instant a conditional GET for e asks about: its
// Last-Modified, or its validation instant when the origin stated none.
// The caller holds e.mu.
func (e *entry) since() time.Time {
	if t, ok := e.lastModified(); ok {
		return t
	}
	return e.validatedAt
}

// valueDelta returns the advertised Δv, zero for a time-domain object.
// The caller holds e.mu.
func (e *entry) valueDelta() float64 {
	if e.vx == nil {
		return 0
	}
	return e.vx.valueDelta
}

// paired reports whether e's policy is half of a partitioned M_v pair.
// The caller holds e.mu.
func (e *entry) paired() bool { return e.vx != nil && e.vx.paired }

// baseNextAt is the instant pure paper-mode polling would poll e at. The
// caller holds schedMu.
func (e *entry) baseNextAt() time.Time { return e.item.At.Add(-e.leased) }

func (e *entry) evicted() bool { return e.state.Load()&stateEvicted != 0 }
func (e *entry) suspect() bool { return e.state.Load()&stateSuspect != 0 }

// clearSuspect drops the suspect mark once the copy is validated.
func (e *entry) clearSuspect() {
	if e.suspect() {
		e.state.And(^uint32(stateSuspect))
	}
}

// markAccessed sets the CLOCK access bit. Steady-state hits find the bit
// already set and stay read-only — no lock and no extra contended
// cache-line write on the hit path; only the first hit after a sweep
// cleared the bit (or after admission) pays the store.
func (e *entry) markAccessed() {
	if e.state.Load()&stateAccessed == 0 {
		e.state.Or(stateAccessed)
	}
}

// takeAccess clears the CLOCK access bit, reporting whether it was set.
func (e *entry) takeAccess() bool {
	return e.state.And(^uint32(stateAccessed))&stateAccessed != 0
}

// interned is a string held once per distinct value, process-wide: the
// per-response headers every resident keeps on every hop (Content-Type,
// Cache-Control, the group name) repeat across objects, and a resident
// holds an 8-byte handle instead of its own copy.
type interned struct{ h unique.Handle[string] }

func intern(s string) interned {
	if s == "" {
		return interned{}
	}
	return interned{unique.Make(s)}
}

// String returns the interned value ("" for the zero interned).
func (s interned) String() string {
	if s == (interned{}) {
		return ""
	}
	return s.h.Value()
}

// set makes s hold v, interning v only when it differs from the value s
// holds: a refresh mostly repeats the headers it replaces.
func (s *interned) set(v string) {
	if v != s.String() {
		*s = intern(v)
	}
}

// groupState is the serialization domain of one consistency group: the
// shared controller plus the member list, guarded by mu. dead marks a
// state whose last member was evicted and which has been deleted from
// the proxy's group map — a racing joinGroup that still holds the stale
// pointer must retry rather than populate the orphan (grouped-key churn
// would otherwise leak one groupState per retired group name).
type groupState struct {
	mu      sync.Mutex
	ctrl    *core.MutualTimeController
	members []*entry
	dead    bool
}

// Proxy is a live caching HTTP proxy. Construct with New, then Start the
// refresher; Close releases it.
type Proxy struct {
	cfg   Config
	epoch time.Time

	store  *store
	flight singleflight.Group

	groupMu sync.RWMutex
	groups  map[string]*groupState

	schedMu  sync.Mutex
	schedule sched.Heap

	// limdConfigs holds one shared LIMD configuration per distinct Δ (see
	// limdConfig).
	limdMu      sync.RWMutex
	limdConfigs map[time.Duration]*core.SharedLIMDConfig

	workers []*worker
	wake    chan struct{}
	done    chan struct{}
	wg      sync.WaitGroup

	// pending counts refresh jobs that are dispatched, queued, or in
	// flight but not yet completed. Together with NextRefreshAt it lets
	// an external clock driver detect quiescence.
	pending atomic.Int64

	// Downstream event relay (see relay.go); nil unless
	// Config.RelayEvents.
	relay *push.Hub

	// Invalidation-channel state (see push.go). sub is nil when push is
	// disabled.
	sub           *push.Subscriber
	pushCancel    context.CancelFunc
	pushEvents    atomic.Uint64
	pushPolls     atomic.Uint64
	pushDropped   atomic.Uint64
	pushFallbacks atomic.Uint64
	// auditRefused holds the instant the upstream last refused an audit
	// batch (nil: none since the last connect); auditSlots is the
	// semaphore bounding the passes of batches in flight, one per poll
	// worker; auditBatches counts the batches sent (see audit.go).
	auditRefused atomic.Pointer[time.Time]
	auditSlots   chan struct{}
	auditBatches atomic.Uint64
	// lease is the push lease: its term, the channel's health and the
	// current epoch (see lease.go). auditsDeferred counts pushed installs
	// that moved a carried key's audit later (see deferAudit).
	lease          lease
	auditsDeferred atomic.Uint64
	// pushApplied counts pushed payloads installed directly (no origin
	// request); pushValueFallback counts pushed jobs that had to poll
	// after all — digest mismatch, missing or stripped payload, or a
	// byte-budget refusal — while value application was enabled.
	pushApplied       atomic.Uint64
	pushValueFallback atomic.Uint64
	// pushDuplicates counts pushed events dropped by the version check:
	// the cached copy (or disk record) already carried the announced
	// modification instant, so nothing was installed and nothing polled.
	pushDuplicates atomic.Uint64
	// Delta-ladder counters: pushDeltaApplied counts pushed deltas
	// reconstructed and installed (resident or disk tier);
	// pushDeltaBaseMiss counts deltas refused because the advertised
	// base did not match the body actually held (each one degraded down
	// the ladder — full payload or confirmation poll — never installed
	// blind); pushDeltaRebased counts relay publications that carried a
	// delta form downstream (reused or locally computed);
	// pushDiskApplied counts pushed payloads applied straight to a
	// demoted object's disk record while nothing was resident.
	pushDeltaApplied  atomic.Uint64
	pushDeltaBaseMiss atomic.Uint64
	pushDeltaRebased  atomic.Uint64
	pushDiskApplied   atomic.Uint64
	// toleranceOverrides counts runtime Δ/Δv changes applied through
	// OverrideTolerance (the /admin/tolerance action).
	toleranceOverrides atomic.Uint64
	// downstream is the sticky union of every interest set a downstream
	// subscriber has declared against the relay hub (see
	// noteDownstreamInterest); folded into this proxy's own upstream
	// declaration when PushInterest is on. Sticky by design: a child
	// that drops and resumes re-declares the same slice, and keeping a
	// departed child's terms only costs extra frames, never correctness.
	downMu     sync.Mutex
	downstream push.InterestSet

	// Persistent disk tier (see disk.go); nil unless Config.DiskDir.
	disk                 *diskstore.Store
	diskDemotions        atomic.Uint64
	diskPromotions       atomic.Uint64
	diskLeasedPromotions atomic.Uint64
	diskRehydrated       atomic.Uint64
	diskGraceServes      atomic.Uint64

	// Expvar-style cache counters. Misses, evictions, and capped
	// admissions are counted on the (cold) admission/eviction paths
	// only; the hit path stays free of shared counters so it gains no
	// contended cache line (per-entry hits are summed on demand).
	misses      atomic.Uint64
	evictions   atomic.Uint64
	cappedN     atomic.Uint64
	staleServes atomic.Uint64
	// deltaPolls and deltaFallbacks back CacheStats' DeltaPolls and
	// DeltaFallbacks.
	deltaPolls     atomic.Uint64
	deltaFallbacks atomic.Uint64
	// polls counts successful refresh polls by what demanded them,
	// indexed by pollKind.
	polls [pollKinds]atomic.Uint64
	// groupChannelSyncs counts group members the push channel vouched for
	// in §3.2 triggering (see triggerGroup).
	groupChannelSyncs atomic.Uint64

	// Upstream-health state (see UpstreamStatus): written on the cold
	// fetch path only, read by /healthz and /metrics scrapes.
	upMu              sync.Mutex
	upstreamErrs      uint64
	lastUpstreamErr   string
	lastUpstreamErrAt time.Time
	lastUpstreamOKAt  time.Time

	lifeMu  sync.Mutex
	started bool
	closed  bool
}

var _ http.Handler = (*Proxy)(nil)

// New validates the configuration and returns a proxy. Call Start to
// launch the background refresher.
func New(cfg Config) (*Proxy, error) {
	if cfg.Origin == nil {
		return nil, errors.New("webproxy: Config.Origin is required")
	}
	if b := cfg.Bounds; b.Min < 0 || b.Min > cmp.Or(b.Max, core.DefaultTTRMax) {
		return nil, fmt.Errorf("webproxy: Config.Bounds [%v, %v] is negative or inverted", b.Min, b.Max)
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{
			Timeout: 10 * time.Second,
			CheckRedirect: func(*http.Request, []*http.Request) error {
				return http.ErrUseLastResponse
			},
		}
	}
	if cfg.DefaultDelta <= 0 {
		cfg.DefaultDelta = time.Minute
	}
	if cfg.Mode == 0 {
		cfg.Mode = core.TriggerAll
	}
	if cfg.DefaultGroupDelta <= 0 {
		cfg.DefaultGroupDelta = cfg.DefaultDelta
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 64
	}
	// Cap before rounding: beyond this sharding buys nothing, and an
	// absurd value would overflow nextPow2 and the uint32 shard mask.
	if cfg.Shards > maxShards {
		cfg.Shards = maxShards
	}
	cfg.Shards = nextPow2(cfg.Shards)
	if cfg.PollWorkers <= 0 {
		cfg.PollWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxObjects == 0 {
		cfg.MaxObjects = 1 << 16
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = -1 // unlimited
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.PushURL != nil && cfg.PushStretch == 0 {
		cfg.PushStretch = 4
	}
	if cfg.RelayPath == "" {
		cfg.RelayPath = "/events"
	}
	p := &Proxy{
		cfg:         cfg,
		epoch:       cfg.Clock(),
		store:       newStore(cfg.Shards),
		groups:      make(map[string]*groupState),
		limdConfigs: make(map[time.Duration]*core.SharedLIMDConfig),
		workers:     make([]*worker, cfg.PollWorkers),
		wake:        make(chan struct{}, 1),
		done:        make(chan struct{}),
	}
	for i := range p.workers {
		p.workers[i] = &worker{wake: make(chan struct{}, 1)}
	}
	p.lease.term, p.lease.clock = p.resolveLeaseTerm(), cfg.Clock
	p.auditSlots = make(chan struct{}, cfg.PollWorkers)
	if cfg.RelayEvents {
		// The relay carries payloads downstream as the proxy receives
		// them, so one origin message feeds the whole subtree.
		var hubCfg push.HubConfig
		if cfg.PushInterest && cfg.PushURL != nil {
			// Every downstream declaration folds into this proxy's own
			// upstream interest, widening it (with a stream bounce) when
			// a child wants a slice the current subscription filters out.
			hubCfg.OnSubscribe = p.noteDownstreamInterest
		}
		p.relay = push.NewHub(hubCfg)
	}
	if cfg.PushURL != nil {
		sub, err := p.newPushSubscriber()
		if err != nil {
			return nil, err
		}
		p.sub = sub
		if cfg.PushInterest {
			p.lease.interest = sub
		}
	}
	if cfg.DiskDir != "" {
		ds, err := diskstore.Open(cfg.DiskDir, cfg.DiskMaxBytes)
		if err != nil {
			return nil, err
		}
		p.disk, p.lease.disk = ds, ds
		// Rehydrate before Start: entries land in the store and their
		// validation polls land on the schedule heap, drained by the
		// worker pool once Start runs — so a restart cannot self-herd
		// the origin any harder than PollWorkers allows.
		p.rehydrate()
	}
	return p, nil
}

// Start launches the refresh dispatcher and the poll worker pool. It is
// idempotent.
func (p *Proxy) Start() {
	p.lifeMu.Lock()
	defer p.lifeMu.Unlock()
	if p.started || p.closed {
		return
	}
	p.started = true
	p.wg.Add(1 + len(p.workers))
	go p.dispatchLoop()
	for _, w := range p.workers {
		go p.workerLoop(w)
	}
	if p.sub != nil {
		ctx, cancel := context.WithCancel(context.Background())
		p.pushCancel = cancel
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.sub.Run(ctx)
		}()
	}
}

// Close stops the refresher and waits for it to exit. The proxy continues
// to serve cached (now unrefreshed) content afterwards.
func (p *Proxy) Close() {
	p.lifeMu.Lock()
	if p.closed {
		p.lifeMu.Unlock()
		return
	}
	p.closed = true
	started := p.started
	cancel := p.pushCancel
	p.lifeMu.Unlock()
	close(p.done)
	if cancel != nil {
		cancel()
	}
	if p.relay != nil {
		// A closed proxy will never publish again, but its relay hub
		// would keep heartbeating connected children — leaving their
		// leased schedules backed by a channel that can no
		// longer announce anything. Announce the hole to anyone still
		// listening, then drop every stream and refuse new ones: the
		// children fall back to paper-mode polling either way.
		p.relay.Reset()
		p.relay.SetAvailable(false)
	}
	if started {
		p.wg.Wait()
	}
	if p.disk != nil {
		// After wg.Wait no refresh path can enqueue more writes; drain
		// the write-behind queue so the journal is complete on exit.
		p.disk.Close()
	}
}

// canonicalKey maps a request URL to its cache key: the escaped path,
// plus the query string re-encoded with sorted parameters so that
// permutations of the same query share one cached object. The escaped
// path keeps an encoded '?' (%3F) in path data from masquerading as a
// query separator when the key is split again in fetch.
func canonicalKey(u *url.URL) string {
	path := u.EscapedPath()
	if u.RawQuery == "" {
		return path
	}
	q := canonicalQuery(u.RawQuery)
	if q == "" {
		return path
	}
	return path + "?" + q
}

// canonicalQuery sorts well-formed queries into a canonical encoding.
// A query that does not survive a parse/encode round trip (malformed
// escapes, stray semicolons) is kept verbatim: collapsing it would drop
// parameters from the upstream fetch and alias distinct client URLs.
func canonicalQuery(rawQuery string) string {
	q, err := url.ParseQuery(rawQuery)
	if err != nil {
		return rawQuery
	}
	return q.Encode() // Encode sorts parameters by key
}

// canonicalize maps a key supplied from outside the request path — an
// admin call, an origin event — to the canonical cache key ServeHTTP
// would compute for it (so "/stock?b=2&a=1" names the object cached
// under "/stock?a=1&b=2"). A key that does not parse is kept verbatim.
func canonicalize(key string) string {
	if u, err := url.Parse(key); err == nil {
		return canonicalKey(u)
	}
	return key
}

// ServeHTTP serves cache hits locally and fills misses from the origin.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if httpx.IsAuditBatch(r) {
		p.serveAudits(w, r) // child proxies' batched polls (see audit.go)
		return
	}
	if p.relay != nil && r.URL.Path == p.cfg.RelayPath {
		// The downstream event stream: child proxies subscribe here. The
		// relay path shadows any upstream object of the same name.
		p.relay.ServeHTTP(w, r)
		return
	}
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		// RFC 9110 §15.5.6: a 405 must name the methods the resource
		// supports. HEAD is served from the cached entry's headers with
		// no body, exactly like the 304 face.
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	key := canonicalKey(r.URL)

	if e := p.store.get(key); e != nil {
		e.hits.Add(1)
		e.markAccessed()
		p.serveEntry(w, r, e, "HIT")
		return
	}

	// Singleflight admission: concurrent first requests for one key
	// share a single origin fetch.
	p.misses.Add(1)
	v, err, _ := p.flight.Do(key, func() (any, error) { return p.admit(key) })
	if err != nil {
		var gone *originAnswer
		if errors.As(err, &gone) {
			// The origin says the object is not there: the client hears it
			// as the origin said it, and nothing is stored.
			if gone.location != "" {
				w.Header().Set("Location", gone.location)
			}
			w.Header().Set("X-Cache", "MISS")
			httpx.WriteAnswer(w, r, &gone.answer)
			return
		}
		// The raw error names upstream hosts and transport details —
		// operator data, not client data. Clients get a generic 502;
		// the detail is retained in UpstreamStatus for /healthz and
		// the upstream-error counter for /metrics.
		http.Error(w, "upstream fetch failed", http.StatusBadGateway)
		return
	}
	e := v.(*entry)
	status := "MISS"
	if e.capped {
		status = "BYPASS" // served, but alone larger than the byte budget or unstorable
	}
	p.serveEntry(w, r, e, status)
}

// serveEntry writes e's answer to the request (see answer), labelled. The
// body slice is shared, not copied: refreshes replace it wholesale and
// never mutate it in place.
func (p *Proxy) serveEntry(w http.ResponseWriter, r *http.Request, e *entry, cacheStatus string) {
	if cacheStatus == "HIT" && e.suspect() {
		// A rehydrated copy awaiting its re-validation poll: served, but
		// labeled — the client sees that the staleness bound is the
		// grace window, not Δ (see diskGrace).
		cacheStatus = "GRACE"
		p.diskGraceServes.Add(1)
	}
	since := httpx.IfModifiedSince(r)
	e.mu.RLock()
	a := e.answer(since)
	// A copy whose last poll failed and whose last validation is older
	// than its Δ is past its bound: served, but labelled. A failed poll
	// leaves the key unleased (see deferRetry), so Δ is its bound; the
	// clock is read only then, so a healthy hit pays nothing.
	stale := cacheStatus == "HIT" && e.failures > 0 && p.cfg.Clock().Sub(e.validatedAt) > e.delta
	e.mu.RUnlock()
	if stale {
		cacheStatus = "STALE"
		p.staleServes.Add(1)
	}
	w.Header().Set("X-Cache", cacheStatus)
	httpx.WriteAnswer(w, r, &a)
}

// answer is this proxy's answer, as a child's upstream, to a GET or batch
// line for e conditional on since (zero for none): a 304 when the copy's
// Last-Modified is no later than since, else the 200 carrying the copy.
// Either forwards the origin's Cache-Control (its §5.1 tolerances)
// verbatim, so a child learns what this proxy did. The caller holds e.mu.
func (e *entry) answer(since time.Time) httpx.AuditAnswer {
	a := httpx.AuditAnswer{Status: http.StatusOK, Body: e.body, ContentType: e.contentType.String(), CacheControl: e.cacheControl.String()}
	if lastMod, ok := e.lastModified(); ok {
		a.LastModified = lastMod
		if !since.IsZero() && !lastMod.After(since) {
			a.Status, a.Body = http.StatusNotModified, nil
		}
	}
	return a
}

// admit brings a non-resident object into the cache: a cold miss fetches
// it, a key that lives only on disk — demoted by CLOCK replacement, or
// left beyond the grace window at startup — is promoted: revalidated by a
// conditional fetch, or, when the push channel has carried the record's
// freshness since its last validation, by the 304 the channel answers in
// the origin's place (see channelAnswer). Either way the entry re-enters
// the store validated, never suspect, and promotion cannot widen the Δt
// bound. A failed fetch serves nothing stale on this demand path: the
// client gets the same 502 either way. Callers serialize per key through
// the singleflight group — one fetch per key, concurrent requesters share
// it.
func (p *Proxy) admit(key string) (*entry, error) {
	if e := p.store.get(key); e != nil {
		return e, nil
	}
	var rec *diskstore.Record
	var diskBody []byte
	var since time.Time
	if p.disk != nil {
		if r, body, ok := p.disk.Get(key); ok {
			rec, diskBody, since = &r, body, r.ValidatedAt
			if r.HasLastMod {
				since = r.LastMod
			}
		}
	}
	v := p.channelAnswer(key, rec)
	if v == nil {
		// A record with a Last-Modified holds the body that instant
		// names: the base of a delta-encoded answer.
		var base []byte
		if rec != nil && rec.HasLastMod {
			base = diskBody
		}
		var err error
		if v, err = p.fetch(key, since, base); err != nil {
			return nil, err
		}
	}
	return p.admitFrom(key, rec, diskBody, v), nil
}

// admission carries everything installEntry needs to build and register
// a cache entry; admitFrom resolves it. Its version's now is the instant
// the copy is vouched for: the response's arrival, after a fetch; the
// record's own validation instant, for a record the channel carried (see
// channelAnswer) or rehydrated. Its arrived is the admission instant, the
// base of a lease's first audit.
type admission struct {
	version
	tol httpx.Tolerances
	// isValue selects value-domain consistency (§4.1): the origin
	// advertised a Δv tolerance and the body parsed as the decimal value.
	isValue bool
	value   float64
	// restoreTTR re-seeds the refresh policy's learned TTR (clamped to
	// Bounds); zero learns from scratch at InitialTTR.
	restoreTTR time.Duration
	// suspect marks a rehydrated entry: no fetch was performed, it awaits
	// re-validation, and its first poll is scheduled at once, never leased.
	suspect bool
}

// overlay lets every tolerance t states replace the one resolved so far;
// what t leaves unsaid stands.
func (a *admission) overlay(t httpx.Tolerances) {
	if t.Delta > 0 {
		a.tol.Delta = t.Delta
	}
	if t.GroupDelta > 0 {
		a.tol.GroupDelta = t.GroupDelta
	}
	if t.ValueDelta > 0 {
		a.tol.ValueDelta = t.ValueDelta
	}
	if t.Group != "" {
		a.tol.Group = t.Group
	}
}

// admitFrom is the one admission path. It resolves the new entry from
// up to three sources, later ones winning — config defaults, the disk
// record (rec with its body; nil on a cold miss) and the version the
// upstream or the channel answered (v; nil at startup rehydration, which
// fetches nothing and is born suspect) — so the origin's current
// directives always win and the record only fills silence (a 304 with no
// Cache-Control; see headersOver). It then installs the entry and
// accounts for it once: only an entry that actually entered the store is
// counted, persisted and observed — not one capped because its body
// alone overflows MaxBytes (returned with capped set, served uncached),
// nor one that lost to a concurrent admission (the resident entry is
// returned instead). A record the channel carried is counted and
// observed but not written back, since nothing changed; nor is the copy
// of an admission that raced an update.
func (p *Proxy) admitFrom(key string, rec *diskstore.Record, diskBody []byte, v *version) *entry {
	a := admission{tol: httpx.Tolerances{Delta: p.cfg.DefaultDelta, GroupDelta: p.cfg.DefaultGroupDelta}}
	if rec != nil {
		a.version = version{now: rec.ValidatedAt, body: diskBody, contentType: rec.ContentType,
			cacheControl: rec.CacheControl, lastMod: rec.LastMod, hasLastMod: rec.HasLastMod}
		// The TTR learned across the object's whole history is still the
		// right schedule for an unchanged copy.
		a.restoreTTR = rec.TTR
		a.overlay(httpx.Tolerances{Delta: rec.Delta, GroupDelta: rec.GroupDelta, ValueDelta: rec.ValueDelta, Group: rec.Group})
	}
	if v == nil {
		a.suspect = true
	} else {
		held := a.version
		a.version = *v
		a.contentType, a.cacheControl = v.headersOver(held.contentType, held.cacheControl)
		if v.modified {
			a.restoreTTR = 0
		} else {
			// A 304 vouches for the record's copy.
			a.body, a.lastMod, a.hasLastMod = held.body, held.lastMod, held.hasLastMod
		}
		if tol, err := httpx.ParseCacheControl(v.cacheControl); err == nil {
			a.overlay(tol)
		}
	}
	// Parsed here from the local body slice, not read back from the
	// published entry: a pushed or triggered poll can replace the value
	// the moment the entry is visible, and the observer call below must
	// not race it.
	if a.tol.ValueDelta > 0 {
		a.value, a.isValue = parseValueBody(a.body)
	}

	e, inserted, raced := p.installEntry(key, a)
	if !inserted {
		return e
	}
	if v == nil {
		p.diskRehydrated.Add(1) // on disk already, and nothing was polled
		return e
	}
	if rec != nil {
		p.diskPromotions.Add(1)
		if v.applied {
			p.diskLeasedPromotions.Add(1)
		}
	}
	// A carried record is what the disk holds already. A raced admission's
	// body may predate an update the channel announced — and landed on the
	// record or voided it — or lost, so writing it back would stamp an old
	// body as freshly validated.
	if !raced && !v.applied {
		p.persistEntry(e)
	}
	if obs := p.cfg.PollObserver; obs != nil {
		obs(PollObservation{
			Key: key, At: a.now, Modified: v.modified, Initial: true,
			Value: a.value, HasValue: a.isValue,
		})
	}
	return e
}

// installEntry builds the entry and registers it with the store, its
// consistency group, and the refresh schedule. It reports whether the
// entry was inserted — false means capped (e.capped set, served
// uncached) or lost to a concurrent admission (the resident entry is
// returned instead) — and whether the admission raced an update under
// a lease, in which case its copy must not reach the disk tier.
func (p *Proxy) installEntry(key string, a admission) (*entry, bool, bool) {
	// The key a request produced is a substring of its request line;
	// the resident keeps a copy of its own rather than pin the line.
	key = strings.Clone(key)
	e := &entry{
		key:          key,
		group:        intern(a.tol.Group),
		body:         a.body,
		contentType:  intern(a.contentType),
		cacheControl: intern(a.cacheControl),
		validatedAt:  a.now,
		delta:        a.tol.Delta,
		groupDelta:   a.tol.GroupDelta,
	}
	if a.hasLastMod {
		e.setLastModified(a.lastMod)
	}
	if a.suspect {
		e.state.Store(stateSuspect)
	}
	if p.carriesValues() {
		e.bodyDigest = push.DigestOf(a.body)
	}
	if p.sub != nil {
		// An object the channel can never announce must never be
		// leased — the object keeps pure-polling freshness
		// instead (see pushable).
		e.unpushable = !p.pushable(key)
	}
	if !a.suspect {
		e.polls.Store(1) // the admission's validation: a fetch, or the channel's 304
	}
	if a.isValue {
		e.vx = &valueState{value: a.value, valueDelta: a.tol.ValueDelta}
	}
	e.policy = p.newPolicy(e.delta, e.valueDelta(), a.restoreTTR)

	if unstorable(a.cacheControl) {
		// The origin forbids storing it: served once, uncached, as an
		// object over the byte budget is.
		e.capped = true
		return e, false, false
	}
	e.size.Store(entrySize(key, a.body))
	actual, inserted, victims, capped := p.store.put(key, e, p.cfg.MaxObjects, p.cfg.MaxBytes)
	if capped {
		// The object is served but not admitted: no store entry, no
		// refresh schedule. The next request proxies again.
		e.capped = true
		p.cappedN.Add(1)
		return e, false, false
	}
	if !inserted {
		return actual, false, false
	}
	// Unwind the victims the admission displaced before scheduling the
	// newcomer, so their refresh slots are gone by the time ours exists.
	p.demote(victims)
	if a.tol.Group != "" {
		p.joinGroup(e, a.tol.Group, a.tol.GroupDelta, a.tol.ValueDelta)
	}
	if p.sub != nil && p.cfg.PushInterest && !e.unpushable &&
		!p.sub.DeclaredInterest().Matches(key) {
		// The upstream declaration predates this object: its updates
		// are filtered away before they ever reach us. Bounce the
		// stream — the reconnect re-runs the interest closure with this
		// resident included — while the lease gate keeps the object
		// on pure-polling freshness until the wider declaration is
		// live, so the window never widens its Δt bound.
		p.sub.Bounce()
	}

	if a.suspect {
		p.reschedule(e, p.cfg.Clock()) // immediate validation poll
		return e, true, false
	}
	e.mu.RLock()
	ttr := e.policy.InitialTTR()
	if t, ok := e.policy.(interface{ TTR() time.Duration }); ok && a.restoreTTR > 0 {
		ttr = t.TTR() // restored schedule, not a cold restart at TTRmin
	}
	e.mu.RUnlock()
	if p.raced(key, a.epoch) {
		// No lease: the first poll runs at the paper-mode instant. Asked
		// after store.put on purpose — an event that marks later than this
		// finds the entry instead.
		p.reschedule(e, a.now.Add(ttr))
		return e, true, true
	}
	// A lease starts at install: a covered key's first audit already sits
	// at its phase inside the first term, not at validatedAt + TTR.
	p.rescheduleHybrid(e, a.now, ttr, a.arrived, a.epoch)
	return e, true, false
}

// newPolicy builds an object's refresh policy: AdaptiveTTR over Δv for a
// value-domain object (valueDelta > 0, set only on one), LIMD over Δ for
// everything else. A positive restore re-seeds the TTR it had learned,
// clamped to Bounds; zero learns from scratch at InitialTTR.
func (p *Proxy) newPolicy(delta time.Duration, valueDelta float64, restore time.Duration) core.Policy {
	var pol core.Policy
	if valueDelta > 0 {
		pol = core.NewAdaptiveTTR(core.AdaptiveTTRConfig{Delta: valueDelta, Bounds: p.bounds(core.DefaultValueTTRMin)})
	} else {
		pol = p.limdConfig(delta).New()
	}
	if r, ok := pol.(interface{ RestoreTTR(time.Duration) }); ok && restore > 0 {
		r.RestoreTTR(restore)
	}
	return pol
}

// limdConfig returns the LIMD configuration every object with Δ = delta
// shares, so a resident's policy carries only its own state.
func (p *Proxy) limdConfig(delta time.Duration) *core.SharedLIMDConfig {
	p.limdMu.RLock()
	c := p.limdConfigs[delta]
	p.limdMu.RUnlock()
	if c != nil {
		return c
	}
	p.limdMu.Lock()
	defer p.limdMu.Unlock()
	if c = p.limdConfigs[delta]; c == nil {
		c = core.ShareLIMDConfig(core.LIMDConfig{Delta: delta, Bounds: p.bounds(delta)})
		p.limdConfigs[delta] = c
	}
	return c
}

// bounds returns Config.Bounds for a policy whose TTRmin defaults to
// fallback: an unset Min becomes fallback, but no more than Max, so an
// object whose tolerance exceeds Bounds.Max polls at Bounds.Max, which
// keeps that tolerance.
func (p *Proxy) bounds(fallback time.Duration) core.TTRBounds {
	b := p.cfg.Bounds
	if b.Min == 0 {
		b.Min = min(fallback, cmp.Or(b.Max, core.DefaultTTRMax))
	}
	return b
}

// unwind finishes an eviction: each victim — already removed from the
// store and marked with its cancellation token — is descheduled from
// the refresh heap and detached from its consistency group, so no
// ghost poll ever reaches the origin on its behalf. A concurrent
// re-admission of the same key runs through the singleflight group and
// builds a fresh entry; it never observes the victim.
func (p *Proxy) unwind(victims []*entry) {
	for _, v := range victims {
		p.evictions.Add(1)
		p.unschedule(v)
		p.leaveGroup(v)
	}
}

// Evict removes key from the cache immediately (admin eviction): the
// object is descheduled from the refresh heap, detached from its group,
// and — unlike a replacement victim, which demotes — purged from the
// disk tier too. It reports whether an object was resident in either
// tier, so an operator can tell a real eviction from a typo.
func (p *Proxy) Evict(key string) bool {
	evicted := false
	if e := p.lookup(key); e != nil && p.store.removeEntry(e) {
		p.unwind([]*entry{e})
		evicted = true
	}
	if p.disk != nil {
		if p.disk.Delete(canonicalize(key)) {
			evicted = true
		}
	}
	return evicted
}

// joinGroup registers e with its consistency group, pairing two
// value-domain members under a partitioned M_v controller (§4.2): the
// mutual tolerance δ is split across the pair in inverse proportion to
// their change rates. The reduction applies to the difference function
// and pairs only; further value members of the group keep individual
// policies.
func (p *Proxy) joinGroup(e *entry, group string, groupDelta time.Duration, valueDelta float64) {
	// Retry when the state died between lookup and lock: leaveGroup
	// retires a group whose last member was evicted, and a fresh state
	// replaces it in the map on the next lookup.
	var gs *groupState
	for {
		gs = p.groupStateOrCreate(group, groupDelta)
		gs.mu.Lock()
		if !gs.dead {
			break
		}
		gs.mu.Unlock()
	}
	defer gs.mu.Unlock()
	// A concurrent admission can evict e before it joins its group. The
	// eviction sets the token before leaveGroup takes gs.mu, so checking
	// it under gs.mu guarantees an evicted entry is never added to the
	// member list after leaveGroup has run (no membership leak).
	if e.evicted() {
		return
	}
	if e.vx != nil && valueDelta > 0 {
		for _, other := range gs.members {
			if other.vx == nil {
				continue
			}
			other.mu.Lock()
			if other.vx.paired {
				other.mu.Unlock()
				continue
			}
			pair := core.NewMutualValuePartitioned(core.MutualValueConfig{
				Delta:  valueDelta,
				Bounds: p.bounds(core.DefaultValueTTRMin),
			})
			other.policy = pair.PolicyA()
			other.vx.paired = true
			other.mu.Unlock()
			e.mu.Lock()
			e.policy = pair.PolicyB()
			e.vx.paired = true
			e.mu.Unlock()
			e.vx.partner = other
			other.vx.partner = e
			break
		}
	}
	gs.members = append(gs.members, e)
}

// fetch performs a GET against the origin, conditional when since is
// non-zero, and records its outcome in the proxy's upstream-health state:
// every origin interaction — admission fetches, scheduled polls,
// triggered and pushed polls — flows through here, so UpstreamStatus
// always reflects the most recent contact. The version it returns is
// validated at the response's arrival, as evidence of the lease epoch the
// request was sent in: a response built before an epoch began cannot
// speak for the updates the hole that ended the previous one swallowed. A
// 404 or 410, or a redirect, is the origin's answer about the object, not
// a failed contact: it is returned as an *originAnswer and noted as a
// success (see failure).
//
// base, when non-nil, is the body of the version since names: the GET
// then asks for a delta (push.DeltaIM), and a 226 answer is installed only
// as the body rebuild verified against base. A 226 that fails that, or
// that was not asked for, is counted and followed by exactly one
// unconditional GET, whose answer stands; its history is cut to the
// updates after since, as the conditional answer's would be.
func (p *Proxy) fetch(key string, since time.Time, base []byte) (*version, error) {
	epoch := p.lease.epoch.Load()
	v, err := p.get(key, since, base)
	if errors.Is(err, errDeltaRefused) {
		p.deltaFallbacks.Add(1)
		if v, err = p.get(key, time.Time{}, nil); err == nil {
			v.history = v.history[sort.Search(len(v.history), func(i int) bool { return v.history[i].After(since) }):]
		}
	}
	p.noteUpstream(failure(err))
	if err != nil {
		return nil, err
	}
	v.now, v.epoch = p.cfg.Clock(), epoch
	v.arrived = v.now
	return v, nil
}

// noteUpstream records the outcome of one upstream request, a fetch or
// an audit batch, for UpstreamStatus.
func (p *Proxy) noteUpstream(err error) {
	now := p.cfg.Clock()
	p.upMu.Lock()
	defer p.upMu.Unlock()
	if err != nil {
		p.upstreamErrs++
		p.lastUpstreamErr = err.Error()
		p.lastUpstreamErrAt = now
	} else {
		p.lastUpstreamOKAt = now
	}
}

// UpstreamStatus reports the proxy's most recent origin contact: the
// error counter, and the last error's detail — kept here, off the
// client-facing 502 body, for /healthz to surface to operators.
type UpstreamStatus struct {
	// Errors counts failed upstream requests (transport errors and
	// statuses other than 200, 226, 304, 404, 410 and the redirects 301,
	// 302, 303, 307 and 308), across every fetch path.
	Errors uint64 `metric:"counter broadway_upstream_errors_total" help:"Failed upstream fetches (all refresh and admission paths)."`
	// LastError is the most recent failure's detail ("" before any).
	LastError string `metric:"-"` // a label would explode cardinality
	// LastErrorAt and LastOKAt are the instants of the most recent
	// failed and successful upstream requests (zero before any). The
	// upstream is considered reachable while LastOKAt >= LastErrorAt.
	LastErrorAt time.Time `metric:"gauge broadway_upstream_last_error_timestamp_seconds" help:"Unix time of the most recent failed upstream fetch (0 before any)."`
	LastOKAt    time.Time `metric:"gauge broadway_upstream_last_ok_timestamp_seconds" help:"Unix time of the most recent successful upstream fetch (0 before any)."`
}

// UpstreamStatus returns the most recent upstream fetch outcomes.
func (p *Proxy) UpstreamStatus() UpstreamStatus {
	p.upMu.Lock()
	defer p.upMu.Unlock()
	return UpstreamStatus{
		Errors:      p.upstreamErrs,
		LastError:   p.lastUpstreamErr,
		LastErrorAt: p.lastUpstreamErrAt,
		LastOKAt:    p.lastUpstreamOKAt,
	}
}

// originAnswer is a 404 or 410 from the upstream — the object is not
// there — or a redirect (see redirect): the object is elsewhere. An
// admission passes it to the client as received, Location included, and
// a poll evicts the copy.
type originAnswer struct {
	answer   httpx.AuditAnswer // its status, Content-Type and body
	location string
}

// redirect reports whether code sends the client elsewhere for the
// object: 301, 302, 303, 307 or 308. A 304 is a validation, and 300 and
// 305 name no one place to go.
func redirect(code int) bool {
	switch code {
	case http.StatusMovedPermanently, http.StatusFound, http.StatusSeeOther,
		http.StatusTemporaryRedirect, http.StatusPermanentRedirect:
		return true
	}
	return false
}

func (a *originAnswer) Error() string {
	return fmt.Sprintf("webproxy: origin answered %d %s", a.answer.Status, http.StatusText(a.answer.Status))
}

// failure is err as a failed contact: nil for an *originAnswer.
func failure(err error) error {
	if err == nil {
		return nil
	}
	if gone := (*originAnswer)(nil); errors.As(err, &gone) {
		return nil
	}
	return err
}

// errDeltaRefused reports a 226 answer that did not verify against the
// base the request named, or that no request asked for.
var errDeltaRefused = errors.New("webproxy: delta answer refused")

// get sends one GET for key (see fetch) and reads its 200, 226
// or 304 into the answer form an audit batch's inline answer takes, so
// answerVersion builds the version from either. key carries the
// canonical path-plus-query, which is replayed onto the upstream URL. A
// body over push.MaxAssembledBody, the largest body the channel can
// deliver too, is an error.
func (p *Proxy) get(key string, since time.Time, base []byte) (*version, error) {
	u := *p.cfg.Origin
	escPath, rawQuery := key, ""
	if i := strings.IndexByte(key, '?'); i >= 0 {
		escPath, rawQuery = key[:i], key[i+1:]
	}
	// The key carries the *escaped* path (see canonicalKey); decode it
	// for u.Path and keep the escaped form in u.RawPath so the upstream
	// URL preserves the client's encoding exactly.
	if unescaped, err := url.PathUnescape(escPath); err == nil {
		u.Path = unescaped
	} else {
		u.Path = escPath
	}
	u.RawPath = escPath
	u.RawQuery = rawQuery
	req, err := http.NewRequest(http.MethodGet, u.String(), nil)
	if err != nil {
		return nil, err
	}
	if !since.IsZero() {
		req.Header.Set("If-Modified-Since", since.UTC().Format(http.TimeFormat))
	}
	if base != nil {
		req.Header.Set(push.HeaderAIM, push.DeltaIM)
	}
	resp, err := p.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()

	a := httpx.AuditAnswer{Status: resp.StatusCode, ContentType: resp.Header.Get("Content-Type"), CacheControl: resp.Header.Get("Cache-Control")}
	if lm := resp.Header.Get("Last-Modified"); lm != "" {
		a.LastModified, _ = http.ParseTime(lm)
	}
	a.History, _ = httpx.HistoryFrom(resp.Header)
	code := resp.StatusCode
	gone := code == http.StatusNotFound || code == http.StatusGone || redirect(code)
	switch {
	case code == http.StatusNotModified:
		return answerVersion(&a, time.Time{}, nil), nil
	case code != http.StatusOK && code != http.StatusIMUsed && !gone:
		return nil, fmt.Errorf("webproxy: origin returned %s", resp.Status)
	}
	if a.Body, err = readExact(resp.Body, push.MaxAssembledBody); err != nil {
		return nil, err
	}
	if gone {
		return nil, &originAnswer{answer: httpx.AuditAnswer{Status: code, ContentType: a.ContentType, Body: a.Body}, location: resp.Header.Get("Location")}
	}
	if code == http.StatusIMUsed {
		a.Base, a.Result = push.DeltaAnswer(resp.Header)
	}
	v := answerVersion(&a, time.Time{}, nil)
	if v.delta != nil && !p.rebuild(v, base) {
		return nil, errDeltaRefused
	}
	return v, nil
}

// answerVersion is the version an answer a carries, whichever way it
// travelled — a GET's 200, 226 or 304 (see get), or an audit batch's
// inline 200 or 226 or vouched 304 (see auditBatch) — validated at now,
// evidence of epoch. A 226's body is still its delta, which rebuild
// verifies against the base its carrier names before anything installs
// it; the version keeps the delta, so a relay passes it on.
func answerVersion(a *httpx.AuditAnswer, now time.Time, epoch *time.Time) *version {
	v := &version{
		now: now, epoch: epoch, arrived: now,
		modified:     a.Status != http.StatusNotModified,
		body:         a.Body,
		contentType:  a.ContentType,
		cacheControl: a.CacheControl,
		lastMod:      a.LastModified,
		hasLastMod:   !a.LastModified.IsZero(),
		history:      a.History,
	}
	if a.Status == http.StatusIMUsed {
		v.body, v.delta, v.deltaBase, v.digest = nil, a.Body, a.Base, a.Result
	}
	return v
}

// rebuild sets v's body to the one its delta makes of base, the body its
// carrier named — the body on disk for a promotion, the body held for a
// poll or an inline answer — and counts it in DeltaPolls. It reports
// false, leaving v as it was, when push.VerifyDelta refuses the delta or
// no base was named: the caller counts the refusal and falls back.
func (p *Proxy) rebuild(v *version, base []byte) bool {
	body, err := push.VerifyDelta(base, v.delta, v.deltaBase, v.digest)
	if err != nil || base == nil {
		return false
	}
	v.body = body
	p.deltaPolls.Add(1)
	return true
}

// readExact reads r to its end into a slice whose capacity is its
// length: a retained body carries no slack. The buffer grows with the
// bytes that arrive, so a declared length costs nothing. A body longer
// than limit is an error, never a truncated copy.
func readExact(r io.Reader, limit int64) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(r, limit+1))
	switch {
	case err != nil:
		return nil, err
	case int64(len(b)) > limit:
		return nil, fmt.Errorf("webproxy: body exceeds %d bytes", limit)
	case cap(b) == len(b):
		return b, nil
	}
	return append(make([]byte, 0, len(b)), b...), nil
}

// parseValueBody interprets a response body as a decimal value (e.g. a
// stock quote feed serving "165.38\n").
func parseValueBody(body []byte) (float64, bool) {
	s := strings.TrimSpace(string(body))
	if s == "" || len(s) > 64 {
		return 0, false
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// toSim maps wall-clock time onto the simulated timeline the core
// policies operate in (nanoseconds since the proxy's epoch).
func (p *Proxy) toSim(t time.Time) simtime.Time {
	if t.IsZero() {
		return 0
	}
	return simtime.At(t.Sub(p.epoch))
}

// Stats reports cache activity for one object.
type Stats struct {
	Polls     uint64
	Triggered uint64
	// Pushed counts polls requested by the invalidation channel.
	Pushed uint64
	// Applied counts pushed payloads installed directly, with no origin
	// request (not included in Polls or Pushed — nothing was polled).
	Applied uint64
	Hits    uint64
	// Bytes is the resident size charged to the byte ledger.
	Bytes  int64
	Cached bool
	// Grouped reports whether the object belongs to a mutual-consistency
	// group (and is therefore penalized as an eviction victim).
	Grouped bool
}

// CacheStats aggregates proxy-wide cache activity, expvar-style.
type CacheStats struct {
	// Hits counts cache hits since start. A hit racing its object's
	// eviction may go uncounted; the total never decreases.
	Hits uint64 `metric:"counter broadway_cache_hits_total" help:"Cache hits since start."`
	// Misses counts requests that entered the admission path.
	Misses uint64 `metric:"counter broadway_cache_misses_total" help:"Requests that entered the admission path."`
	// Evictions counts objects displaced by replacement or Evict.
	Evictions uint64 `metric:"counter broadway_cache_evictions_total" help:"Objects displaced by replacement or admin eviction."`
	// Capped counts admissions refused residency: single objects larger
	// than MaxBytes, served uncached.
	Capped uint64 `metric:"counter broadway_cache_capped_total" help:"Admissions refused residency at capacity."`
	// DeltaPolls counts 226 answers, to a GET or inline in an audit
	// batch, whose delta verified against the body its carrier named (see
	// rebuild). DeltaFallbacks counts the answers refused — such a 226
	// that does not verify, and an inline 200 older than the copy held —
	// each followed by one more GET: an unconditional one after a GET's
	// (see fetch), the key's own poll after an inline one (see
	// installAnswered).
	DeltaPolls     uint64 `metric:"counter broadway_cache_delta_polls_total" help:"Upstream GETs, and audit batch keys answered inline, answered with a delta that verified against the body held."`
	DeltaFallbacks uint64 `metric:"counter broadway_cache_delta_fallbacks_total" help:"226 and inline audit answers refused (unverified, unasked or stale), each followed by one more GET."`
	// StaleServes counts hits served as X-Cache: STALE: the copy's last
	// poll failed and its last validation is older than its Δ, so the
	// bound no longer holds for it. They are also Hits.
	StaleServes uint64 `metric:"counter broadway_cache_stale_serves_total" help:"Hits served as X-Cache: STALE, past their bound after a failed poll."`
	// ResidentObjects and ResidentBytes are the current store footprint.
	ResidentObjects int   `metric:"gauge broadway_cache_resident_objects" help:"Currently cached objects."`
	ResidentBytes   int64 `metric:"gauge broadway_cache_resident_bytes" help:"Approximate resident bytes of cached objects."`
	// RegularPolls, TriggeredPolls, and PushedPolls count successful
	// refresh polls of cached objects by what demanded them: the TTR (or
	// lease) schedule, a mutual-consistency controller, or a pushed event
	// whose payload could not be installed. Admission and promotion
	// fetches are misses, not polls. Their sum is the validation traffic
	// this proxy costs its upstream.
	RegularPolls   uint64 `metric:"counter broadway_polls_total kind=regular" help:"Successful refresh polls of cached objects, by what demanded them."`
	TriggeredPolls uint64 `metric:"counter broadway_polls_total kind=triggered" help:"Successful refresh polls of cached objects, by what demanded them."`
	PushedPolls    uint64 `metric:"counter broadway_polls_total kind=pushed" help:"Successful refresh polls of cached objects, by what demanded them."`
	// GroupChannelSyncs counts §3.2 sibling syncs the push channel
	// vouched for: at a group member's update, every sibling the live
	// lease carried was known current with no request, and was not polled
	// (see PollObservation.Vouched). They are not polls.
	GroupChannelSyncs uint64 `metric:"counter broadway_group_channel_syncs_total" help:"Group members the push channel's lease vouched for at a sibling's update, with no triggered poll."`
	// AuditBatches counts audit batches sent upstream: each validates
	// many keys' regular polls in one request, and every key it
	// validates still counts as one regular poll (see audit.go).
	AuditBatches uint64 `metric:"counter broadway_cache_audit_batches_total" help:"Audit batches sent upstream; each key they validate counts as a regular poll."`
	// UpstreamErrors counts failed upstream fetches (all paths); the
	// last error's detail is on UpstreamStatus, not here and never on
	// a client-facing response body.
	UpstreamErrors uint64 `metric:"-"` // the same series as UpstreamStatus.Errors
	// ToleranceOverrides counts runtime Δ/Δv changes applied through
	// the /admin/tolerance action (see OverrideTolerance).
	ToleranceOverrides uint64 `metric:"counter broadway_cache_tolerance_overrides_total" help:"Runtime tolerance overrides applied via /admin/tolerance."`
}

// CacheStats returns the proxy-wide cache counters. Hits is summed on
// demand — resident entries' counters plus the totals their shards
// retired at eviction — so the hit path carries no shared counter.
func (p *Proxy) CacheStats() CacheStats {
	cs := CacheStats{
		Misses:          p.misses.Load(),
		Evictions:       p.evictions.Load(),
		Capped:          p.cappedN.Load(),
		StaleServes:     p.staleServes.Load(),
		DeltaPolls:      p.deltaPolls.Load(),
		DeltaFallbacks:  p.deltaFallbacks.Load(),
		ResidentObjects: p.store.len(),
		ResidentBytes:   p.store.residentBytes(),
		RegularPolls:    p.polls[pollRegular].Load(),
		TriggeredPolls:  p.polls[pollTriggered].Load(),
		PushedPolls:     p.polls[pollPushed].Load(),
		UpstreamErrors:  p.UpstreamStatus().Errors,

		GroupChannelSyncs:  p.groupChannelSyncs.Load(),
		AuditBatches:       p.auditBatches.Load(),
		ToleranceOverrides: p.toleranceOverrides.Load(),
	}
	for i := range p.store.shards {
		sh := &p.store.shards[i]
		sh.mu.RLock()
		cs.Hits += sh.retiredHits
		for _, e := range sh.entries {
			cs.Hits += e.hits.Load()
		}
		sh.mu.RUnlock()
	}
	return cs
}

// lookup finds the entry for a caller-supplied key, canonicalizing it
// the same way ServeHTTP does when the verbatim form misses (so
// "/stock?b=2&a=1" finds the object cached under "/stock?a=1&b=2").
func (p *Proxy) lookup(key string) *entry {
	if e := p.store.get(key); e != nil {
		return e
	}
	if ck := canonicalize(key); ck != key {
		return p.store.get(ck)
	}
	return nil
}

// ObjectStats returns the stats for key (a path, plus the query for
// parameterized objects).
func (p *Proxy) ObjectStats(key string) Stats {
	e := p.lookup(key)
	if e == nil {
		return Stats{}
	}
	return Stats{
		Polls:     e.polls.Load(),
		Triggered: e.triggered.Load(),
		Pushed:    e.pushed.Load(),
		Applied:   e.applied.Load(),
		Hits:      e.hits.Load(),
		Bytes:     e.size.Load(),
		Cached:    true,
		Grouped:   e.group != interned{},
	}
}

// CachedBody returns the currently cached body for key.
func (p *Proxy) CachedBody(key string) ([]byte, bool) {
	e := p.lookup(key)
	if e == nil {
		return nil, false
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return append([]byte(nil), e.body...), true
}

// Len returns the number of cached objects.
func (p *Proxy) Len() int { return p.store.len() }

// Kick wakes the refresh dispatcher so it re-reads the clock and the
// schedule. A harness that substitutes a stepped Config.Clock (the
// simtime conformance battery) must call it after every clock advance;
// under a wall clock it is never needed.
func (p *Proxy) Kick() { p.kick() }

// NextRefreshAt returns the earliest scheduled refresh instant, or
// ok=false when nothing is scheduled.
func (p *Proxy) NextRefreshAt() (at time.Time, ok bool) {
	p.schedMu.Lock()
	defer p.schedMu.Unlock()
	if it := p.schedule.Peek(); it != nil {
		return it.At, true
	}
	return time.Time{}, false
}

// InFlightPolls returns the number of refresh jobs dispatched, queued,
// or executing but not yet completed. A proxy is quiescent when
// InFlightPolls is zero and NextRefreshAt lies in the future.
func (p *Proxy) InFlightPolls() int { return int(p.pending.Load()) }
