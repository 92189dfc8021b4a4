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
// group. An object that alone overflows MaxBytes is served uncached
// (X-Cache: BYPASS). Upstream failures back off exponentially (capped at
// the TTR upper bound) without disturbing the policy's learned TTR
// state.
//
// The paper's proxy has one event — a validation arrives, the copy is
// replaced, NextTTR and the §3.2 triggers run — and so does this one. A
// version enters the cache one of two ways, whatever produced it:
//
//   - admitFrom (webproxy.go) builds a new entry from config defaults ⊕
//     the disk record ⊕ the upstream response — a cold miss has no
//     record, a disk promotion has both, a startup rehydration has no
//     response and is born suspect — hands it to installEntry (store,
//     group, schedule, lease-or-not) and accounts for it once.
//   - install (refresh.go) replaces a resident entry's copy. Its sources
//     are an origin poll off the TTR schedule (If-Modified-Since, the
//     modification-history extension consumed when provided), a
//     triggered poll, a pushed poll, and a pushed payload that
//     verifyPushed has checked against its digest and, for a delta, the
//     body actually held. install is the only code that writes an
//     entry's body, digest, Last-Modified and validation instant; from
//     them it builds the core.PollOutcome, and then runs the rest in a
//     fixed order: byte ledger, downstream relay, group controller,
//     disk write-behind, NextTTR reschedule, §3.2 triggers, observer.
//
// On top of that pull machinery the proxy can layer an origin-driven
// invalidation channel (Config.PushURL, wire protocol in internal/push):
// the origin streams per-object update events, each event converts into
// an immediate pushed poll through the affinity workers, and while the
// channel is healthy every key it covers holds a lease: its regular poll
// runs once per lease term (Config.PushStretch × Bounds.Max) from
// admission on — consistency traffic then scales with the origin's
// churn instead of with the poll schedule. The channel is an
// optimization, never a correctness dependency: whatever ends a lease
// (disconnect, heartbeat timeout, Reset, frame loss) drops the proxy
// back to pure paper-mode polling, and a staleness-bounded catch-up
// sweep restores every leased schedule entry to its paper-mode instant,
// so the Δt guarantee never silently widens (see push.go).
//
// Proxies compose into a hierarchy: Config.RelayEvents gives a proxy a
// downstream face (see relay.go) — its own event hub republishing every
// upstream invalidation and every locally confirmed update, served over
// the same /events protocol, with upstream holes propagated as
// mid-stream Resets — while conditional-GET answering and tolerance-
// directive forwarding let child proxies revalidate content against
// this one exactly as it revalidates against its origin. One origin
// stream and one origin poller then serve an arbitrarily wide edge
// fleet, and each hop's Δt guarantee degrades at worst to pure polling
// against its own upstream.
package webproxy

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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
	// Client performs upstream requests; defaults to a client with a
	// 10-second timeout.
	Client *http.Client
	// DefaultDelta is the Δt tolerance applied to objects whose origin
	// response carries no x-cc-delta directive. Defaults to one minute.
	DefaultDelta time.Duration
	// Bounds clamp the TTRs of all refresh policies. Min defaults to
	// the object's Δ, Max to 60 minutes.
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
	// waits on this timeline and sleeps them in wall time. (Tests that
	// step a virtual clock instead must Kick the proxy after every
	// advance and wait for InFlightPolls to drain.)
	Clock func() time.Time
	// PushURL, when set, subscribes the proxy to an origin-driven
	// invalidation channel at that URL (the webserver's /events
	// endpoint) and enables hybrid push–pull consistency: pushed events
	// trigger immediate polls, covered keys' regular polls run once per
	// lease term while the channel is healthy (see PushStretch), and a
	// disconnect falls back to pure polling with a catch-up sweep. Nil
	// disables push (the default, pure paper mode).
	PushURL *url.URL
	// PushStretch sets the lease term L = PushStretch × Bounds.Max:
	// while the push channel is healthy and covers a key, that key's
	// regular poll runs once per L — whatever TTR its policy has learned
	// — starting at admission (first poll at a per-key hash phase in
	// (TTR, L], later polls exactly L apart). Disconnect, heartbeat
	// timeout, Reset, frame loss, and a deliberate bounce each end every
	// lease at once: the catch-up sweep restores the paper-mode
	// schedule, so staleness is bounded by PushHeartbeatTimeout plus one
	// sweep for a dead link and by one sweep for the rest; an upstream
	// that silently fails to announce an update, or a changed
	// Cache-Control tolerance, reaches a covered key within L. Values
	// ≤ 1 disable leases (push then only adds immediacy, saving no poll
	// traffic). Zero means unset and defaults to 4 when PushURL is set.
	// Objects the channel can never announce — query-bearing cache keys
	// (events are path-granular) and keys too large for a wire frame —
	// and objects outside the declared interest are never leased, and
	// an admission that raced an update of its own key (announced while
	// the fetch was in flight) keeps the paper-mode first poll.
	PushStretch float64
	// PushValues enables value-carrying push (wire protocol v2): the
	// subscriber negotiates payload delivery with its upstream, and a
	// pushed event carrying the object's new body is installed directly
	// — digest-verified, charged against the eviction byte ledger,
	// running the same §3.2 group triggering as a poll — with no origin
	// request at all. Any event that cannot be installed (digest
	// mismatch, missing or over-cap payload, byte-budget refusal) falls
	// back to today's pushed poll, so the Δ guarantee never depends on
	// the payload path. When the proxy relays (RelayEvents), its relay
	// hub also carries payloads downstream, so one origin message feeds
	// the whole subtree with zero confirmation polls.
	PushValues bool
	// PushPayloadCap bounds the payload size (bytes) the subscriber
	// requests and the relay hub carries. Zero defaults to
	// push.DefaultPayloadCap when PushValues is set.
	PushPayloadCap int
	// PushBackoffMin and PushBackoffMax bound the subscriber's
	// reconnect backoff (defaults 100ms and 10s).
	PushBackoffMin, PushBackoffMax time.Duration
	// PushHeartbeatTimeout declares the channel dead when no frame
	// arrives for this long; it must exceed the origin's heartbeat
	// interval. Defaults to 30s; negative disables the watchdog.
	PushHeartbeatTimeout time.Duration
	// PushInterest narrows the upstream subscription to a declared
	// interest set instead of the full event stream: on every
	// (re)connect the subscriber declares the union of PushPrefixes and
	// PushGroups, one path-segment prefix per resident object, and —
	// when relaying — every interest set its own downstream subscribers
	// have declared. The upstream hub then skips frames outside the
	// declaration, so an edge proxy caching a slice of the key space
	// pays fan-out for that slice only. An object admitted (or a child
	// connected) outside the current declaration bounces the stream to
	// renegotiate; until the wider declaration is live such objects keep
	// pure-polling freshness (see leaseCovers), so filtering never
	// widens a Δt bound. False (the default) subscribes to everything.
	PushInterest bool
	// PushPrefixes and PushGroups seed the declared interest set when
	// PushInterest is on: key prefixes and consistency groups this
	// proxy wants announced even before anything matching is resident.
	// With both empty and nothing resident the declaration is empty,
	// which the wire cannot express and therefore widens to match-all —
	// interest filtering fails open, never closed.
	PushPrefixes []string
	PushGroups   []string
	// RelayEvents, when true, gives the proxy a downstream face: it
	// republishes every upstream invalidation event and every locally
	// confirmed update into its own hub (own sequence space), served at
	// RelayPath over the same SSE protocol the origin speaks, so child
	// proxies subscribe to this proxy exactly as it subscribes to its
	// origin. An upstream disconnect or Reset propagates to children as
	// a mid-stream hello/Reset, driving their fallback sweeps (see
	// relay.go). Works with or without PushURL: a pure-polling parent
	// still relays the updates its own polls confirm.
	RelayEvents bool
	// RelayPath is the path the relayed event stream is served at
	// (default "/events"). Requests for it are handled by the relay hub
	// and never reach the cache or the origin.
	RelayPath string
	// RelayHeartbeat is the keepalive interval of relayed streams
	// (default 15s).
	RelayHeartbeat time.Duration
	// RelayReplay bounds the relay hub's replay ring (events kept for
	// child reconnect catch-up). Zero selects push.DefaultReplayLen.
	// Chaos tests shrink it to force resume-time Resets.
	RelayReplay int
	// RelaySubscriberBuffer is the relay hub's slow-consumer allowance:
	// a child stream whose proven position falls this many events
	// behind the head is terminated (it reconnects and resumes, or
	// Resets if the ring has moved on). Zero selects
	// push.DefaultSubscriberBuffer.
	RelaySubscriberBuffer int
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
	// instead of vanishing (promoted back through a validating fetch on
	// the next request), and a restart rehydrates the cache warm with
	// learned TTR state intact. Empty disables persistence (the
	// default).
	DiskDir string
	// DiskMaxBytes bounds the disk tier's blob bytes; the oldest-
	// validated records are dropped beyond it. Zero or negative means
	// unbounded.
	DiskMaxBytes int64
	// DiskGrace bounds how stale a rehydrated entry may be at startup
	// and still be served before its re-validation poll completes
	// (served marked X-Cache: GRACE, so the widened bound is explicit,
	// never silent). Records older than the grace window stay on disk
	// and are only served after a validating promote. Zero defaults to
	// 5 minutes; negative disables grace entirely — nothing is served
	// until validated, every record promotes on demand.
	DiskGrace time.Duration
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
}

// entry is one cached object.
type entry struct {
	key   string // canonical cache key: path plus sorted query
	group string

	// mu guards the mutable data fields below. The policy runs only on
	// the entry's affinity worker (or, for a partitioned M_v pair, the
	// group's worker), but pairing at admission can swap it, so it is
	// guarded too.
	mu     sync.RWMutex
	policy core.Policy

	body []byte // replaced wholesale on refresh, never mutated
	// bodyDigest is push.DigestOf(body) when value-carrying push is on
	// (empty otherwise): set with the body by installEntry and install,
	// the only two places a body is assigned. It is what the delta rung
	// compares a pushed frame's base digest against, and what the
	// subscriber advertises as held on connect.
	bodyDigest  string
	contentType string
	// cacheControl is the origin's Cache-Control header, forwarded on
	// responses so child proxies learn the same tolerance directives.
	cacheControl string
	lastMod      time.Time
	hasLastMod   bool
	validatedAt  time.Time
	failures     int // consecutive upstream failures

	// Value-domain objects (origin advertised x-cc-vdelta): the body is
	// parsed as a decimal value and the entry runs an AdaptiveTTR
	// policy over it. valueDelta is the advertised Δv, immutable after
	// admission (leaveGroup rebuilds a widowed partner's individual
	// policy from it).
	isValue    bool
	value      float64
	valueDelta float64
	// paired marks a value entry whose policy belongs to a
	// MutualValuePartitioned pair (M_v consistency, §4.2). partner
	// links the two halves of the pair and is guarded by the group's
	// mu (pairing and unpairing both run under it).
	paired  bool
	partner *entry

	// nextAt, baseNextAt, and item are guarded by the proxy's schedMu.
	// nextAt is the scheduled poll instant (possibly leased out to the
	// push channel while it is healthy); baseNextAt is the instant pure
	// paper-mode polling would have used, which the fallback sweep
	// restores when the channel dies.
	nextAt     time.Time
	baseNextAt time.Time
	item       *sched.Item

	// Replacement state. size is the resident bytes charged to the
	// store's ledger (re-charged on refresh under the shard lock).
	// ringIdx and lives (remaining extra second chances; group members
	// start with groupLives) are guarded by the owning shard's mutex.
	// evicted is the cancellation token: set under the shard lock when
	// the entry leaves the store, it stops future reschedules and
	// in-flight polls from resurrecting the object.
	size    atomic.Int64
	ringIdx int
	lives   int
	evicted atomic.Bool
	// capped marks an entry served uncached because the object alone
	// overflows MaxBytes.
	capped bool

	polls     atomic.Uint64
	triggered atomic.Uint64
	pushed    atomic.Uint64
	applied   atomic.Uint64
	hits      atomic.Uint64
	// pendingPush coalesces a burst of pushed events into one queued
	// job, and a non-nil slot IS that job: filling an empty slot
	// enqueues one, starting one empties it. It holds the event the job
	// will act on — the newest version's most installable frame, payload
	// and all, so with PushValues a coalesced burst applies the LATEST
	// body rather than the first (installing a stale payload after
	// dropping its successors would serve old data as fresh). Without
	// PushValues the job ignores the event and always polls.
	pendingPush atomic.Pointer[push.Event]
	// relayedMod is the newest modification instant (UnixNano) this
	// proxy has sent down its relay hub in full — payload passed
	// through, or version confirmed after install: the ledger that lets
	// each version's payload cross to the children once (see
	// claimRelay).
	relayedMod atomic.Int64
	// unpushable marks an object whose key cannot fit an invalidation
	// frame: the origin will never announce its updates, so it is
	// never leased. Immutable after admission.
	unpushable bool
	// delta and groupDelta are the resolved Δ/δ tolerances the entry
	// was admitted with (config defaults overlaid by origin
	// directives), snapshotted here so the disk tier can persist and
	// restore them. Immutable after admission.
	delta      time.Duration
	groupDelta time.Duration
	// suspect marks a rehydrated entry not yet re-validated against the
	// origin in this process lifetime: hits serve it as X-Cache: GRACE
	// until its validation poll clears the mark, so the Δt bound never
	// widens silently across a restart.
	suspect atomic.Bool
	// refbit is the CLOCK access bit, marked lock-free on hits (see
	// markAccessed) and consumed by the victim sweep. It sits next to
	// hits so a hit that does write it touches the cache line the hit
	// counter already owns.
	refbit atomic.Bool
}

// markAccessed sets the CLOCK access bit. Steady-state hits find the bit
// already set and stay read-only — no lock and no extra contended
// cache-line write on the hit path; only the first hit after a sweep
// cleared the bit (or after admission) pays the store.
func (e *entry) markAccessed() {
	if !e.refbit.Load() {
		e.refbit.Store(true)
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
	pushHealthy   atomic.Bool
	pushEvents    atomic.Uint64
	pushPolls     atomic.Uint64
	pushDropped   atomic.Uint64
	pushFallbacks atomic.Uint64
	pushSeq       atomic.Uint64
	// leaseTerm is the resolved lease term L = PushStretch × Bounds.Max;
	// zero when leases are off (no PushURL or PushStretch ≤ 1).
	leaseTerm time.Duration
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
	disk            *diskstore.Store
	diskDemotions   atomic.Uint64
	diskPromotions  atomic.Uint64
	diskRehydrated  atomic.Uint64
	diskGraceServes atomic.Uint64

	// Expvar-style cache counters. Misses, evictions, and capped
	// admissions are counted on the (cold) admission/eviction paths
	// only; the hit path stays free of shared counters so it gains no
	// contended cache line (per-entry hits are summed on demand).
	misses    atomic.Uint64
	evictions atomic.Uint64
	cappedN   atomic.Uint64
	// polls counts successful refresh polls by what demanded them,
	// indexed by pollKind.
	polls [pollKinds]atomic.Uint64

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
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 10 * time.Second}
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
	if cfg.PushValues && cfg.PushPayloadCap <= 0 {
		cfg.PushPayloadCap = push.DefaultPayloadCap
	}
	if cfg.PushPayloadCap > push.MaxPayloadCap {
		cfg.PushPayloadCap = push.MaxPayloadCap
	}
	if cfg.RelayPath == "" {
		cfg.RelayPath = "/events"
	}
	if cfg.DiskGrace == 0 {
		cfg.DiskGrace = 5 * time.Minute
	}
	p := &Proxy{
		cfg:     cfg,
		epoch:   cfg.Clock(),
		store:   newStore(cfg.Shards),
		groups:  make(map[string]*groupState),
		workers: make([]*worker, cfg.PollWorkers),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	for i := range p.workers {
		p.workers[i] = &worker{wake: make(chan struct{}, 1)}
	}
	p.leaseTerm = p.resolveLeaseTerm()
	if cfg.RelayEvents {
		hubCfg := push.HubConfig{
			Heartbeat:        cfg.RelayHeartbeat,
			ReplayLen:        cfg.RelayReplay,
			SubscriberBuffer: cfg.RelaySubscriberBuffer,
		}
		if cfg.PushValues {
			// The relay carries payloads downstream at the same cap the
			// proxy negotiates upstream, so one origin message feeds the
			// whole subtree. Leaves that did not ask for payloads get
			// invalidation-only frames (per-stream negotiation), and
			// bodies over a leaf's cap are chunked at it rather than
			// degraded straight to an invalidation.
			hubCfg.PayloadCap = cfg.PushPayloadCap
			hubCfg.ChunkPayload = cfg.PushPayloadCap
		}
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
	}
	if cfg.DiskDir != "" {
		ds, err := diskstore.Open(cfg.DiskDir, cfg.DiskMaxBytes)
		if err != nil {
			return nil, err
		}
		p.disk = ds
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
	if p.relay != nil && r.URL.Path == p.cfg.RelayPath {
		// The downstream event stream: child proxies subscribe here.
		// The relay path shadows any upstream object of the same name.
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
		status = "BYPASS" // served, but alone larger than the byte budget
	}
	p.serveEntry(w, r, e, status)
}

// serveEntry writes e's current cached representation. The body slice is
// shared, not copied: refreshes replace it wholesale and never mutate it
// in place. A conditional request (If-Modified-Since at or beyond the
// cached Last-Modified) is answered 304 with no body — that is how a
// child proxy in a hierarchy revalidates against this one without
// re-downloading, exactly as this proxy revalidates against its origin.
func (p *Proxy) serveEntry(w http.ResponseWriter, r *http.Request, e *entry, cacheStatus string) {
	if cacheStatus == "HIT" && e.suspect.Load() {
		// A rehydrated copy awaiting its re-validation poll: served, but
		// labeled — the client sees that the staleness bound is the
		// configured grace window, not Δ (see Config.DiskGrace).
		cacheStatus = "GRACE"
		p.diskGraceServes.Add(1)
	}
	e.mu.RLock()
	body := e.body
	contentType := e.contentType
	cacheControl := e.cacheControl
	lastMod, hasLastMod := e.lastMod, e.hasLastMod
	e.mu.RUnlock()
	if hasLastMod {
		if ims := r.Header.Get("If-Modified-Since"); ims != "" {
			if since, err := http.ParseTime(ims); err == nil && !lastMod.After(since) {
				setObjectHeaders(w, "", cacheControl, lastMod, true, cacheStatus)
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
	}
	writeObject(w, r, body, contentType, cacheControl, lastMod, hasLastMod, cacheStatus)
}

// setObjectHeaders writes the response headers shared by 200 and 304
// replies. The origin's Cache-Control (carrying the paper's §5.1
// tolerance directives: Δ, group, δ, Δv) is forwarded verbatim so a
// child proxy learns the same consistency parameters this proxy did.
func setObjectHeaders(w http.ResponseWriter, contentType, cacheControl string, lastMod time.Time, hasLastMod bool, cacheStatus string) {
	if contentType != "" {
		w.Header().Set("Content-Type", contentType)
	}
	if cacheControl != "" {
		w.Header().Set("Cache-Control", cacheControl)
	}
	if hasLastMod {
		w.Header().Set("Last-Modified", lastMod.UTC().Format(http.TimeFormat))
	}
	w.Header().Set("X-Cache", cacheStatus)
}

func writeObject(w http.ResponseWriter, r *http.Request, body []byte, contentType, cacheControl string, lastMod time.Time, hasLastMod bool, cacheStatus string) {
	setObjectHeaders(w, contentType, cacheControl, lastMod, hasLastMod, cacheStatus)
	if r.Method == http.MethodHead {
		// HEAD gets the representation's headers — Content-Length
		// included, which net/http cannot infer with no body written —
		// and nothing else.
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(http.StatusOK)
		return
	}
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// admit brings a non-resident object into the cache: a cold miss fetches
// it, a key that lives only on disk — demoted by CLOCK replacement, or
// left beyond the grace window at startup — is promoted through a
// validating conditional fetch, so the entry re-enters the store
// validated, never suspect, and promotion cannot widen the Δt bound. A
// failed fetch serves nothing stale on this demand path: the client gets
// the same 502 either way. Callers serialize per key through the
// singleflight group — one fetch per key, concurrent requesters share it.
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
	resp, err := p.fetch(key, since)
	if err != nil {
		return nil, err
	}
	return p.admitFrom(key, rec, diskBody, resp), nil
}

// admission carries everything installEntry needs to build and register
// a cache entry; admitFrom resolves it.
type admission struct {
	body         []byte
	contentType  string
	cacheControl string
	lastMod      time.Time
	hasLastMod   bool
	validatedAt  time.Time
	delta        time.Duration
	groupDelta   time.Duration
	valueDelta   float64
	group        string
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
		a.delta = t.Delta
	}
	if t.GroupDelta > 0 {
		a.groupDelta = t.GroupDelta
	}
	if t.ValueDelta > 0 {
		a.valueDelta = t.ValueDelta
	}
	if t.Group != "" {
		a.group = t.Group
	}
}

// admitFrom is the one admission path. It resolves the new entry from
// up to three sources, later ones winning — config defaults, the disk
// record (rec with its body; nil on a cold miss) and the upstream
// response (resp; nil at startup rehydration, which fetches nothing and
// is born suspect) — so the origin's current directives always win and
// the record only fills silence (a 304 with no Cache-Control). It then
// installs the entry and accounts for it once: only an entry that
// actually entered the store is counted, persisted and observed — not
// one capped because its body alone overflows MaxBytes (returned with
// capped set, served uncached), nor one that lost to a concurrent
// admission (the resident entry is returned instead).
func (p *Proxy) admitFrom(key string, rec *diskstore.Record, diskBody []byte, resp *upstreamResponse) *entry {
	now := p.cfg.Clock()
	a := admission{validatedAt: now, delta: p.cfg.DefaultDelta, groupDelta: p.cfg.DefaultGroupDelta}
	if rec != nil {
		a.body, a.contentType, a.cacheControl = diskBody, rec.ContentType, rec.CacheControl
		a.lastMod, a.hasLastMod = rec.LastMod, rec.HasLastMod
		// The TTR learned across the object's whole history is still the
		// right schedule for an unchanged copy.
		a.restoreTTR = rec.TTR
		a.overlay(httpx.Tolerances{Delta: rec.Delta, GroupDelta: rec.GroupDelta, ValueDelta: rec.ValueDelta, Group: rec.Group})
	}
	if resp == nil {
		a.validatedAt, a.suspect = rec.ValidatedAt, true
	} else {
		if tol, err := httpx.TolerancesFrom(resp.header); err == nil {
			a.overlay(tol)
		}
		if cc := resp.header.Get("Cache-Control"); cc != "" || !resp.notModified {
			a.cacheControl = cc
		}
		if !resp.notModified {
			a.body, a.contentType = resp.body, resp.contentType
			a.lastMod, a.hasLastMod = resp.lastMod, resp.hasLastMod
			a.restoreTTR = 0
		}
	}
	// Parsed here from the local body slice, not read back from the
	// published entry: a pushed or triggered poll can replace e.value the
	// moment the entry is visible, and the observer call below must not
	// race it.
	if v, ok := parseValueBody(a.body); ok && a.valueDelta > 0 {
		a.isValue, a.value = true, v
	}

	e, inserted := p.installEntry(key, a)
	if !inserted {
		return e
	}
	if resp == nil {
		p.diskRehydrated.Add(1) // on disk already, and nothing was polled
		return e
	}
	if rec != nil {
		p.diskPromotions.Add(1)
	}
	p.persistEntry(e)
	if obs := p.cfg.PollObserver; obs != nil {
		obs(PollObservation{
			Key: key, At: now, Modified: !resp.notModified, Initial: true,
			Value: a.value, HasValue: a.isValue,
		})
	}
	return e
}

// installEntry builds the entry and registers it with the store, its
// consistency group, and the refresh schedule. It reports whether the
// entry was inserted: false means capped (e.capped set, served
// uncached) or lost to a concurrent admission (the resident entry is
// returned instead).
func (p *Proxy) installEntry(key string, a admission) (*entry, bool) {
	e := &entry{
		key:          key,
		group:        a.group,
		body:         a.body,
		contentType:  a.contentType,
		cacheControl: a.cacheControl,
		lastMod:      a.lastMod,
		hasLastMod:   a.hasLastMod,
		validatedAt:  a.validatedAt,
		delta:        a.delta,
		groupDelta:   a.groupDelta,
	}
	e.suspect.Store(a.suspect)
	if p.cfg.PushValues {
		e.bodyDigest = push.DigestOf(a.body)
	}
	if p.sub != nil {
		// An object the channel can never announce must never be
		// leased — the object keeps pure-polling freshness
		// instead (see eventKeyResolvesTo).
		e.unpushable = !p.eventKeyResolvesTo(key) ||
			push.Event{Kind: push.KindUpdate, Key: key, Group: a.group}.Oversized()
	}
	if !a.suspect {
		e.polls.Store(1) // the admission fetch
	}
	// Value-domain objects run AdaptiveTTR over Δv; everything else LIMD.
	if a.isValue {
		e.isValue = true
		e.value = a.value
		e.valueDelta = a.valueDelta
		e.policy = core.NewAdaptiveTTR(core.AdaptiveTTRConfig{
			Delta:  a.valueDelta,
			Bounds: p.cfg.Bounds,
		})
	} else {
		e.policy = core.NewLIMD(core.LIMDConfig{Delta: a.delta, Bounds: p.cfg.Bounds})
	}
	if a.restoreTTR > 0 {
		if r, ok := e.policy.(interface{ RestoreTTR(time.Duration) }); ok {
			r.RestoreTTR(a.restoreTTR)
		}
	}

	e.size.Store(entrySize(key, a.body))
	actual, inserted, victims, capped := p.store.put(key, e, p.cfg.MaxObjects, p.cfg.MaxBytes)
	if capped {
		// The object is served but not admitted: no store entry, no
		// refresh schedule. The next request proxies again.
		e.capped = true
		p.cappedN.Add(1)
		return e, false
	}
	if !inserted {
		return actual, false
	}
	// Unwind the victims the admission displaced before scheduling the
	// newcomer, so their refresh slots are gone by the time ours exists.
	p.demote(victims)
	if a.group != "" {
		p.joinGroup(e, a.group, a.groupDelta, a.valueDelta)
	}
	if p.sub != nil && p.cfg.PushInterest && !e.unpushable &&
		!p.sub.DeclaredInterest().Matches(key, a.group) {
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
		return e, true
	}
	e.mu.RLock()
	ttr := e.policy.InitialTTR()
	if t, ok := e.policy.(interface{ TTR() time.Duration }); ok && a.restoreTTR > 0 {
		ttr = t.TTR() // restored schedule, not a cold restart at TTRmin
	}
	e.mu.RUnlock()
	if p.leaseTerm > 0 && p.flight.Marked(key) {
		// An update for the key was announced while this admission was in
		// flight and found nothing resident to refresh (see
		// handlePushEvent), so the body in hand may predate it and the
		// channel will not say so again: no lease, the first poll runs at
		// the paper-mode instant. Read after store.put on purpose — an
		// event that marks later than this finds the entry instead.
		p.reschedule(e, a.validatedAt.Add(ttr))
		return e, true
	}
	// A lease starts at install: a covered key's first poll already sits
	// at its phase inside the first term, not at validatedAt + TTR.
	p.rescheduleHybrid(e, a.validatedAt, ttr, true)
	return e, true
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
	if e.evicted.Load() {
		return
	}
	if e.isValue && valueDelta > 0 {
		for _, other := range gs.members {
			if !other.isValue {
				continue
			}
			other.mu.Lock()
			if other.paired {
				other.mu.Unlock()
				continue
			}
			pair := core.NewMutualValuePartitioned(core.MutualValueConfig{
				Delta:  valueDelta,
				Bounds: p.cfg.Bounds,
			})
			other.policy = pair.PolicyA()
			other.paired = true
			other.mu.Unlock()
			e.mu.Lock()
			e.policy = pair.PolicyB()
			e.paired = true
			e.mu.Unlock()
			e.partner = other
			other.partner = e
			break
		}
	}
	gs.members = append(gs.members, e)
}

// upstreamResponse is the distilled result of one origin poll.
type upstreamResponse struct {
	notModified bool
	body        []byte
	contentType string
	lastMod     time.Time
	hasLastMod  bool
	history     []time.Time
	header      http.Header
}

// fetch performs one upstream request and records its outcome in the
// proxy's upstream-health state: every origin interaction — admission
// fetches, scheduled polls, triggered and pushed polls — flows through
// here, so UpstreamStatus always reflects the most recent contact.
func (p *Proxy) fetch(key string, since time.Time) (*upstreamResponse, error) {
	resp, err := p.fetchUpstream(key, since)
	now := p.cfg.Clock()
	p.upMu.Lock()
	if err != nil {
		p.upstreamErrs++
		p.lastUpstreamErr = err.Error()
		p.lastUpstreamErrAt = now
	} else {
		p.lastUpstreamOKAt = now
	}
	p.upMu.Unlock()
	return resp, err
}

// UpstreamStatus reports the proxy's most recent origin contact: the
// error counter feeding broadway_upstream_errors_total, and the last
// error's detail — kept here, off the client-facing 502 body, for
// /healthz to surface to operators.
type UpstreamStatus struct {
	// Errors counts failed upstream requests (transport errors and
	// non-200/304 statuses), across every fetch path.
	Errors uint64
	// LastError is the most recent failure's detail ("" before any).
	LastError string
	// LastErrorAt and LastOKAt are the instants of the most recent
	// failed and successful upstream requests (zero before any). The
	// upstream is considered reachable while LastOKAt >= LastErrorAt.
	LastErrorAt time.Time
	LastOKAt    time.Time
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

// fetchUpstream performs a GET against the origin, conditional when
// since is non-zero. key carries the canonical path-plus-query, which is
// replayed onto the upstream URL.
func (p *Proxy) fetchUpstream(key string, since time.Time) (*upstreamResponse, error) {
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
	resp, err := p.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()

	out := &upstreamResponse{header: resp.Header}
	if lm := resp.Header.Get("Last-Modified"); lm != "" {
		if t, err := http.ParseTime(lm); err == nil {
			out.lastMod = t
			out.hasLastMod = true
		}
	}
	if hist, err := httpx.HistoryFrom(resp.Header); err == nil {
		out.history = hist
	}
	switch resp.StatusCode {
	case http.StatusNotModified:
		out.notModified = true
		return out, nil
	case http.StatusOK:
		body, err := io.ReadAll(io.LimitReader(resp.Body, 32<<20))
		if err != nil {
			return nil, err
		}
		out.body = body
		out.contentType = resp.Header.Get("Content-Type")
		return out, nil
	default:
		return nil, fmt.Errorf("webproxy: origin returned %s", resp.Status)
	}
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
	Hits uint64
	// Misses counts requests that entered the admission path.
	Misses uint64
	// Evictions counts objects displaced by replacement or Evict.
	Evictions uint64
	// Capped counts admissions refused residency: single objects larger
	// than MaxBytes, served uncached.
	Capped uint64
	// ResidentObjects and ResidentBytes are the current store footprint.
	ResidentObjects int
	ResidentBytes   int64
	// RegularPolls, TriggeredPolls, and PushedPolls count successful
	// refresh polls of cached objects by what demanded them: the TTR (or
	// lease) schedule, a mutual-consistency controller, or a pushed event
	// whose payload could not be installed. Admission and promotion
	// fetches are misses, not polls. Their sum is the validation traffic
	// this proxy costs its upstream.
	RegularPolls   uint64
	TriggeredPolls uint64
	PushedPolls    uint64
	// UpstreamErrors counts failed upstream fetches (all paths); the
	// last error's detail is on UpstreamStatus, not here and never on
	// a client-facing response body.
	UpstreamErrors uint64
	// PushConnected reports whether the invalidation channel is healthy.
	PushConnected bool
	// PushEvents counts update notifications received on the channel.
	PushEvents uint64
	// PushPolls counts pushed polls the channel converted events into.
	PushPolls uint64
	// PushFallbacks counts healthy→disconnected transitions, each of
	// which ran a staleness-bounded catch-up sweep.
	PushFallbacks uint64
	// ToleranceOverrides counts runtime Δ/Δv changes applied through
	// the /admin/tolerance action (see OverrideTolerance).
	ToleranceOverrides uint64
}

// CacheStats returns the proxy-wide cache counters. Hits is summed on
// demand — resident entries' counters plus the totals their shards
// retired at eviction — so the hit path carries no shared counter.
func (p *Proxy) CacheStats() CacheStats {
	cs := CacheStats{
		Misses:          p.misses.Load(),
		Evictions:       p.evictions.Load(),
		Capped:          p.cappedN.Load(),
		ResidentObjects: p.store.len(),
		ResidentBytes:   p.store.residentBytes(),
		RegularPolls:    p.polls[pollRegular].Load(),
		TriggeredPolls:  p.polls[pollTriggered].Load(),
		PushedPolls:     p.polls[pollPushed].Load(),
		UpstreamErrors:  p.UpstreamStatus().Errors,
		PushConnected:   p.pushHealthy.Load(),
		PushEvents:      p.pushEvents.Load(),
		PushPolls:       p.pushPolls.Load(),
		PushFallbacks:   p.pushFallbacks.Load(),

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
		Grouped:   e.group != "",
	}
}

// ResidentBytes returns the byte ledger's current total.
func (p *Proxy) ResidentBytes() int64 { return p.store.residentBytes() }

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
