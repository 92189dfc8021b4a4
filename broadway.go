// Package broadway is a from-scratch reproduction of "Maintaining Mutual
// Consistency for Cached Web Objects" (Urgaonkar, Ninan, Raunak, Shenoy,
// Ramamritham — ICDCS 2001): adaptive cache-consistency mechanisms for
// individual web objects (LIMD in the temporal domain, adaptive TTR in
// the value domain) and mutual-consistency mechanisms for groups of
// related objects, together with the event-driven proxy/origin simulator
// and synthetic workloads used to reproduce the paper's evaluation, and a
// live net/http caching proxy running the same algorithms.
//
// This package is the public facade: it re-exports the types a downstream
// user needs and provides the high-level entry points. The subsystems
// live in internal/ packages:
//
//	internal/core         consistency policies (the paper's contribution)
//	internal/sim          deterministic discrete-event engine
//	internal/origin       simulated origin server
//	internal/proxy        simulated caching proxy
//	internal/metrics      fidelity evaluation (Eq. 13/14, mutual semantics)
//	internal/trace        workload model and trace files
//	internal/tracegen     synthetic workload generators (Tables 2 and 3)
//	internal/experiments  reproduction of every table and figure
//	internal/depgraph     related-object discovery (§5.2)
//	internal/httpx        proposed HTTP/1.1 extensions (§5.1)
//	internal/webserver    live HTTP origin
//	internal/webproxy     live HTTP caching proxy (the Squid future work)
//	internal/push         origin-driven invalidation channel (hybrid push–pull)
//	internal/ops          operational surface (/metrics, /healthz, admin API)
//	internal/sched        (At, seq) min-heap: refresh schedule and sim event queue
//	internal/singleflight duplicate-suppressed cache admission
//
// # Live proxy architecture
//
// The live proxy (WebProxy) is built for concurrent operation at scale.
// Cached objects live in a sharded store (2^k shards selected by FNV
// hash, per-shard RWMutex), so hits on different objects never contend
// on a global lock and the response body is shared rather than copied.
// Refreshes are ordered by a min-heap schedule keyed on each object's
// next poll instant and executed by a bounded pool of poll workers
// (WebProxyConfig.PollWorkers), routed so that all objects of one
// consistency group serialize on the same worker — which keeps the
// mutual-consistency controllers single-threaded per group while
// unrelated objects refresh in parallel, and confines a slow origin to
// the single worker its hash routes to rather than stalling the whole
// proxy. Concurrent first requests for one object are
// collapsed into a single origin fetch by a singleflight group, and
// upstream failures retry under capped exponential backoff without
// disturbing the policy's learned TTR state.
//
// Cache residency is bounded by WebProxyConfig.MaxObjects and the
// WebProxyConfig.MaxBytes memory budget, enforced by consistency-aware
// replacement: each shard doubles as a CLOCK (second-chance) ring, hits mark an access bit with a lock-free atomic
// operation so the hit path gains no lock, and members of
// mutual-consistency groups carry extra second chances in the victim
// scan — evicting one member would silently weaken the whole group's
// mutual guarantee, so the policy prefers ungrouped victims of equal
// heat. An evicted object is fully unwound: descheduled from the
// refresh heap (it never polls the origin again), detached from its
// group controller, and safe against concurrent re-admission through
// the singleflight group. An object that alone exceeds MaxBytes is
// served uncached (X-Cache: BYPASS). Proxy-wide counters
// (hits, misses, evictions, capped admissions, resident bytes) are
// exposed through WebProxy.CacheStats.
//
// The paper's machinery is pure pull; the live stack can layer an
// origin-driven invalidation channel on top of it (hybrid push–pull): a
// push-enabled WebOrigin streams per-object update events over an
// SSE-style /events endpoint (wire protocol in internal/push), the
// proxy converts each event into an immediate poll through the same
// group-affinity workers, and regular TTR polls stretch toward the
// upper bound while the channel is healthy — so consistency traffic
// follows the origin's churn instead of the poll schedule. With
// value-carrying push (WithPushValues on the origin,
// WebProxyConfig.PushValues on the proxy) the events carry the new body
// itself — digest-verified, size-negotiated per stream — and the proxy
// installs it with no confirmation poll at all: one message per update,
// fleet-wide through relays. The channel is an optimization, never a
// correctness dependency: a disconnect falls back to pure paper-mode
// polling with a staleness-bounded catch-up sweep, so the Δt guarantee
// never silently widens.
//
// # Quick start
//
//	tr := broadway.TraceCNNFN()
//	res, err := broadway.RunTemporal(broadway.TemporalScenario{
//		Trace: tr,
//		Delta: 10 * time.Minute,
//		Policy: func() broadway.Policy {
//			return broadway.NewLIMD(broadway.LIMDConfig{Delta: 10 * time.Minute})
//		},
//	})
//	fmt.Println(res.Report) // polls, violations, fidelity
package broadway

import (
	"io"
	"time"

	"broadway/internal/core"
	"broadway/internal/depgraph"
	"broadway/internal/experiments"
	"broadway/internal/httpx"
	"broadway/internal/metrics"
	"broadway/internal/ops"
	"broadway/internal/push"
	"broadway/internal/trace"
	"broadway/internal/tracegen"
	"broadway/internal/webproxy"
	"broadway/internal/webserver"
)

// Core consistency types (see internal/core for full documentation).
type (
	// ObjectID identifies a cached web object (typically its URL).
	ObjectID = core.ObjectID
	// Policy computes an object's TTR sequence from poll outcomes.
	Policy = core.Policy
	// PollOutcome is the protocol-visible result of one poll.
	PollOutcome = core.PollOutcome
	// TTRBounds clamp computed TTRs to [Min, Max].
	TTRBounds = core.TTRBounds
	// LIMDConfig parameterizes the linear-increase/multiplicative-
	// decrease Δt policy (paper §3.1).
	LIMDConfig = core.LIMDConfig
	// LIMD is the adaptive Δt-consistency policy.
	LIMD = core.LIMD
	// AdaptiveTTRConfig parameterizes the Δv policy (paper §4.1).
	AdaptiveTTRConfig = core.AdaptiveTTRConfig
	// AdaptiveTTR is the adaptive Δv-consistency policy.
	AdaptiveTTR = core.AdaptiveTTR
	// Periodic is the poll-every-Δ baseline.
	Periodic = core.Periodic
	// TriggerMode selects the mutual temporal approach (§3.2).
	TriggerMode = core.TriggerMode
	// MutualTimeConfig parameterizes the mutual temporal controller.
	MutualTimeConfig = core.MutualTimeConfig
	// MutualTimeController coordinates triggered polls within a group.
	MutualTimeController = core.MutualTimeController
	// MutualValueConfig parameterizes the mutual value policies (§4.2).
	MutualValueConfig = core.MutualValueConfig
	// MutualValueAdaptive tracks f(a,b) as a virtual object.
	MutualValueAdaptive = core.MutualValueAdaptive
	// MutualValuePartitioned splits δ across the pair.
	MutualValuePartitioned = core.MutualValuePartitioned
	// Func is the tracked function f over two object values.
	Func = core.Func
	// DifferenceFunc is f(a,b) = a − b.
	DifferenceFunc = core.DifferenceFunc
	// ViolationInference estimates violations hidden by plain HTTP.
	ViolationInference = core.ViolationInference
)

// Trigger modes for mutual temporal consistency.
const (
	// TriggerNone leaves related objects on their own schedules.
	TriggerNone = core.TriggerNone
	// TriggerAll polls all related objects on any detected update.
	TriggerAll = core.TriggerAll
	// TriggerFaster polls only related objects changing at least as
	// fast (the paper's heuristic).
	TriggerFaster = core.TriggerFaster
)

// NewLIMD returns the paper's adaptive Δt-consistency policy.
func NewLIMD(cfg LIMDConfig) *LIMD { return core.NewLIMD(cfg) }

// NewAdaptiveTTR returns the paper's adaptive Δv-consistency policy.
func NewAdaptiveTTR(cfg AdaptiveTTRConfig) *AdaptiveTTR { return core.NewAdaptiveTTR(cfg) }

// NewPeriodic returns the poll-every-period baseline policy.
func NewPeriodic(period time.Duration) *Periodic { return core.NewPeriodic(period) }

// NewMutualTimeController returns a controller for one group of related
// objects.
func NewMutualTimeController(cfg MutualTimeConfig) *MutualTimeController {
	return core.NewMutualTimeController(cfg)
}

// NewMutualValueAdaptive returns the virtual-object pair policy.
func NewMutualValueAdaptive(cfg MutualValueConfig) *MutualValueAdaptive {
	return core.NewMutualValueAdaptive(cfg)
}

// NewMutualValuePartitioned returns the partitioned pair controller.
func NewMutualValuePartitioned(cfg MutualValueConfig) *MutualValuePartitioned {
	return core.NewMutualValuePartitioned(cfg)
}

// Workload types.
type (
	// Trace is an object's timestamped update history.
	Trace = trace.Trace
	// Update is one modification in a trace.
	Update = trace.Update
	// NewsConfig parameterizes the synthetic news-trace generator.
	NewsConfig = tracegen.NewsConfig
	// StockConfig parameterizes the synthetic stock-trace generator.
	StockConfig = tracegen.StockConfig
)

// GenerateNews generates a diurnal news-update trace.
func GenerateNews(cfg NewsConfig) (*Trace, error) { return tracegen.News(cfg) }

// GenerateStock generates a bounded random-walk stock trace.
func GenerateStock(cfg StockConfig) (*Trace, error) { return tracegen.Stock(cfg) }

// Preset traces matched to the paper's Tables 2 and 3.
func TraceCNNFN() *Trace      { return tracegen.CNNFN() }
func TraceNYTAP() *Trace      { return tracegen.NYTAP() }
func TraceNYTReuters() *Trace { return tracegen.NYTReuters() }
func TraceGuardian() *Trace   { return tracegen.Guardian() }
func TraceATT() *Trace        { return tracegen.ATT() }
func TraceYahoo() *Trace      { return tracegen.Yahoo() }

// TraceByName returns a preset trace by its name (cnn-fn, nyt-ap,
// nyt-reuters, guardian, att, yahoo).
func TraceByName(name string) (*Trace, error) { return tracegen.ByName(name) }

// ReadTrace parses a trace file written by WriteTrace.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.Read(r) }

// WriteTrace serializes a trace.
func WriteTrace(w io.Writer, tr *Trace) error { return trace.Write(w, tr) }

// Scenario runners (simulation + evaluation in one call).
type (
	// TemporalScenario is an individual Δt-consistency simulation.
	TemporalScenario = experiments.TemporalScenario
	// TemporalRunResult couples the report with the refresh log.
	TemporalRunResult = experiments.TemporalRunResult
	// MutualTemporalScenario is an M_t simulation of a group of two or
	// more related objects.
	MutualTemporalScenario = experiments.MutualTemporalScenario
	// MutualTemporalRunResult couples the group report with the logs.
	MutualTemporalRunResult = experiments.MutualTemporalRunResult
	// MutualValueScenario is a two-object M_v simulation.
	MutualValueScenario = experiments.MutualValueScenario
	// MutualValueRunResult couples the pair report with the logs.
	MutualValueRunResult = experiments.MutualValueRunResult
	// ValueApproach selects adaptive vs partitioned for M_v.
	ValueApproach = experiments.ValueApproach
	// TemporalReport carries Δt fidelity metrics (Eq. 13/14).
	TemporalReport = metrics.TemporalReport
	// MutualTemporalReport carries M_t fidelity metrics.
	MutualTemporalReport = metrics.MutualTemporalReport
	// MutualValueReport carries M_v fidelity metrics.
	MutualValueReport = metrics.MutualValueReport
)

// Value-domain approaches.
const (
	// ApproachAdaptive is the virtual-object technique (Eq. 11–12).
	ApproachAdaptive = experiments.ApproachAdaptive
	// ApproachPartitioned splits δ across the pair.
	ApproachPartitioned = experiments.ApproachPartitioned
)

// RunTemporal simulates one object under a Δt policy and evaluates it.
func RunTemporal(sc TemporalScenario) (TemporalRunResult, error) {
	return experiments.RunTemporal(sc)
}

// RunMutualTemporal simulates a group of related objects under LIMD plus
// a mutual trigger mode and evaluates it.
func RunMutualTemporal(sc MutualTemporalScenario) (MutualTemporalRunResult, error) {
	return experiments.RunMutualTemporal(sc)
}

// RunMutualValue simulates a value pair under the chosen M_v approach and
// evaluates it.
func RunMutualValue(sc MutualValueScenario) (MutualValueRunResult, error) {
	return experiments.RunMutualValue(sc)
}

// Related-object discovery (§5.2).
type (
	// DependencyGraph records which objects are related; its connected
	// components are consistency groups.
	DependencyGraph = depgraph.Graph
)

// NewDependencyGraph returns an empty dependency graph.
func NewDependencyGraph() *DependencyGraph { return depgraph.New() }

// ExtractEmbedded scans HTML for embedded object URLs (syntactic
// relationships).
func ExtractEmbedded(html string) []string { return depgraph.ExtractEmbedded(html) }

// HTTP extension types (§5.1).
type (
	// Tolerances carries Δ/group/δ as cache-control directives.
	Tolerances = httpx.Tolerances
)

// Live HTTP components (the paper's future work, in Go).
type (
	// WebOrigin is a live HTTP origin server with IMS validation and
	// the proposed protocol extensions.
	WebOrigin = webserver.Origin
	// WebOriginOption customizes a WebOrigin.
	WebOriginOption = webserver.Option
	// WebProxy is a live caching proxy running the core policies.
	WebProxy = webproxy.Proxy
	// WebProxyConfig parameterizes a WebProxy. The push payload cap,
	// the relay's heartbeat and slow-consumer allowance, and the disk
	// tier's grace window are fixed defaults, not fields.
	WebProxyConfig = webproxy.Config
	// WebProxyCacheStats aggregates proxy-wide cache counters.
	WebProxyCacheStats = webproxy.CacheStats
	// WebProxyObjectStats reports cache activity for one object.
	WebProxyObjectStats = webproxy.Stats
	// WebProxyPushStats reports the invalidation channel's state.
	WebProxyPushStats = webproxy.PushStats
	// WebProxyRelayStats reports the downstream event relay's state
	// (WebProxyConfig.RelayEvents): a relay-enabled proxy serves its own
	// invalidation stream so child proxies subscribe to it exactly as it
	// subscribes to its origin.
	WebProxyRelayStats = webproxy.RelayStats
	// WebProxyDiskStats reports the persistent disk tier's state
	// (WebProxyConfig.DiskDir): restarts rehydrate the cache warm and
	// replacement victims demote to disk instead of being lost.
	WebProxyDiskStats = webproxy.DiskStats
	// PushEvent is one frame of the origin-driven invalidation stream.
	PushEvent = push.Event
	// PushHubStats is an event hub's backpressure snapshot: replay-ring
	// occupancy and per-subscriber lag, visible on both the origin
	// (WebOrigin.PushHubStats) and every relay (WebProxy.RelayStats).
	PushHubStats = push.HubStats
	// WebProxyUpstreamStatus reports a proxy's upstream reachability:
	// failed-fetch count, last error detail, and last success instant.
	// The detail lives here (and on /healthz) — never on a client-facing
	// 502 body.
	WebProxyUpstreamStatus = webproxy.UpstreamStatus
	// WebOriginStats aggregates an origin's serving counters and its
	// event hub's state.
	WebOriginStats = webserver.OriginStats
)

// Operational surface: /metrics (Prometheus text format), /healthz, and
// a token-gated admin API over any combination of a WebProxy and a
// WebOrigin. Mount an OpsHandler on its own listener; see
// cmd/mcproxy's -ops-listen flag and examples/edgefleet.
type (
	// OpsHandler serves /metrics, /healthz, and /admin/*.
	OpsHandler = ops.Handler
	// OpsConfig parameterizes an OpsHandler.
	OpsConfig = ops.Config
	// OpsHealth is the /healthz response body.
	OpsHealth = ops.Health
	// OpsScrape is a parsed Prometheus exposition (see ParseOpsExposition).
	OpsScrape = ops.Scrape
	// OpsLabel is one label pair on a scraped series.
	OpsLabel = ops.Label
)

// NewOpsHandler returns the operational-surface handler for a node. At
// least one of cfg.Proxy and cfg.Origin must be set.
func NewOpsHandler(cfg OpsConfig) (*OpsHandler, error) { return ops.NewHandler(cfg) }

// ParseOpsExposition parses and strictly validates a Prometheus text
// exposition (such as an OpsHandler /metrics response body): every
// sample must be typed, series must be unique, label syntax must be
// legal. Monitoring integration tests and cmd/opscheck are built on it.
func ParseOpsExposition(r io.Reader) (*OpsScrape, error) { return ops.ParseExposition(r) }

// NewWebOrigin returns a live HTTP origin server.
func NewWebOrigin(opts ...WebOriginOption) *WebOrigin { return webserver.NewOrigin(opts...) }

// WithHistoryExtension enables the X-Modification-History header on a
// WebOrigin.
func WithHistoryExtension(enabled bool) WebOriginOption {
	return webserver.WithHistoryExtension(enabled)
}

// WithPushEvents enables the origin-driven invalidation stream on a
// WebOrigin at the given path ("" selects /events). Point
// WebProxyConfig.PushURL at it for hybrid push–pull consistency.
func WithPushEvents(path string) WebOriginOption {
	return webserver.WithPushEvents(path)
}

// WithPushHeartbeat sets the invalidation stream's keepalive interval
// (implies WithPushEvents at the default path).
func WithPushHeartbeat(interval time.Duration) WebOriginOption {
	return webserver.WithPushHeartbeat(interval)
}

// WithPushValues makes the origin's update events carry the object's
// new body (value-carrying push): a proxy running
// with WebProxyConfig.PushValues installs the pushed body directly —
// digest-verified — with no confirmation poll. cap bounds the body size
// one frame carries, in bytes (<= 0 selects the default cap); larger
// bodies travel as chunk sets of cap-sized frames. A WebProxy asks for
// payloads up to the default cap (64 KiB), so a stream to one carries
// the smaller of the two. Implies WithPushEvents at the default path.
func WithPushValues(cap int) WebOriginOption {
	return webserver.WithPushValues(cap)
}

// NewWebProxy returns a live caching proxy; call Start to launch its
// refresher and Close to stop it.
func NewWebProxy(cfg WebProxyConfig) (*WebProxy, error) { return webproxy.New(cfg) }
