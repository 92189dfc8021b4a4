// Package experiments reproduces every table and figure of the paper's
// evaluation (§6). Each FigureN/TableN function runs the corresponding
// simulations on the synthetic stand-in workloads and returns the series
// or rows the paper reports; cmd/repro renders them to CSV and ASCII
// charts, and bench_test.go wraps each in a testing.B benchmark.
//
// The scenario runners below are the simulations those functions share.
// RunMutualTemporal runs a group of any size: the paper's figures pass a
// pair, the group-size ablation passes up to four objects.
package experiments

import (
	"fmt"
	"time"

	"broadway/internal/core"
	"broadway/internal/metrics"
	"broadway/internal/origin"
	"broadway/internal/proxy"
	"broadway/internal/sim"
	"broadway/internal/simtime"
	"broadway/internal/trace"
)

// TemporalScenario describes one individual-consistency simulation in the
// temporal domain.
type TemporalScenario struct {
	// Trace drives the object.
	Trace *trace.Trace
	// Delta is the Δt tolerance.
	Delta time.Duration
	// Policy builds the consistency policy (called once per run).
	Policy func() core.Policy
	// WithHistory enables the modification-history extension at the
	// origin.
	WithHistory bool
	// Latency is the fixed one-way network latency between proxy and
	// origin (§6.1.1; default zero).
	Latency time.Duration
}

// TemporalRunResult couples the fidelity report with the refresh log for
// callers that also need the raw schedule (Fig. 4 plots TTR over time).
type TemporalRunResult struct {
	Report metrics.TemporalReport
	Log    []metrics.Refresh
}

// RunTemporal executes the scenario to the trace horizon and evaluates it.
func RunTemporal(sc TemporalScenario) (TemporalRunResult, error) {
	engine := sim.New(sc.Latency)
	org := origin.New()
	const id core.ObjectID = "obj"
	if err := org.Host(id, sc.Trace, sc.WithHistory); err != nil {
		return TemporalRunResult{}, err
	}
	px := proxy.New(engine, org)
	if err := px.RegisterObject(id, sc.Policy()); err != nil {
		return TemporalRunResult{}, err
	}
	if err := engine.Run(simtime.At(sc.Trace.Duration)); err != nil {
		return TemporalRunResult{}, err
	}
	log := px.Log(id)
	return TemporalRunResult{
		Report: metrics.EvaluateTemporal(sc.Trace, log, sc.Delta, sc.Trace.Duration),
		Log:    log,
	}, nil
}

// MutualTemporalScenario describes one mutual-consistency simulation in
// the temporal domain: a group of related objects (a pair in the paper's
// figures; the definitions extend to n objects, §2), each under its own
// LIMD policy, coordinated by one trigger controller.
type MutualTemporalScenario struct {
	// Traces drive the members, one object each; at least two.
	Traces []*trace.Trace
	// DeltaIndividual is the Δt tolerance of each object's own LIMD.
	DeltaIndividual time.Duration
	// DeltaMutual is the mutual tolerance δ.
	DeltaMutual time.Duration
	// Mode selects baseline / triggered / heuristic.
	Mode core.TriggerMode
	// RateTolerance overrides the heuristic's "approximately the same
	// rate" factor (0 keeps the default of 0.8).
	RateTolerance float64
	// WithHistory enables the history extension for every member.
	WithHistory bool
}

// MutualTemporalRunResult carries the group evaluation plus per-object
// logs, in the order of the scenario's Traces.
type MutualTemporalRunResult struct {
	Report metrics.MutualTemporalReport
	Logs   [][]metrics.Refresh
}

// RunMutualTemporal executes the scenario until the shortest trace ends.
func RunMutualTemporal(sc MutualTemporalScenario) (MutualTemporalRunResult, error) {
	if len(sc.Traces) < 2 {
		return MutualTemporalRunResult{}, fmt.Errorf("experiments: group needs at least 2 traces")
	}
	engine := sim.New(0)
	org := origin.New()
	px := proxy.New(engine, org)
	ids := make([]core.ObjectID, len(sc.Traces))
	horizon := sc.Traces[0].Duration
	for i, tr := range sc.Traces {
		ids[i] = core.ObjectID(fmt.Sprintf("obj-%d", i))
		if err := org.Host(ids[i], tr, sc.WithHistory); err != nil {
			return MutualTemporalRunResult{}, err
		}
		if err := px.RegisterObject(ids[i], core.NewLIMD(core.LIMDConfig{Delta: sc.DeltaIndividual})); err != nil {
			return MutualTemporalRunResult{}, err
		}
		if tr.Duration < horizon {
			horizon = tr.Duration
		}
	}
	ctrl := core.NewMutualTimeController(core.MutualTimeConfig{
		Delta:         sc.DeltaMutual,
		Mode:          sc.Mode,
		RateTolerance: sc.RateTolerance,
	})
	if err := px.RegisterGroup(ids, ctrl); err != nil {
		return MutualTemporalRunResult{}, err
	}
	if err := engine.Run(simtime.At(horizon)); err != nil {
		return MutualTemporalRunResult{}, err
	}
	logs := make([][]metrics.Refresh, len(ids))
	for i, id := range ids {
		logs[i] = px.Log(id)
	}
	return MutualTemporalRunResult{
		Report: metrics.EvaluateMutualTemporal(sc.Traces, logs, sc.DeltaMutual, horizon),
		Logs:   logs,
	}, nil
}

// ValueApproach selects the value-domain mutual-consistency mechanism.
type ValueApproach int

const (
	// ApproachAdaptive is the virtual-object technique (Eq. 11–12).
	ApproachAdaptive ValueApproach = iota + 1
	// ApproachPartitioned splits δ across the objects (difference f).
	ApproachPartitioned
)

// String returns the approach name used in reports.
func (a ValueApproach) String() string {
	switch a {
	case ApproachAdaptive:
		return "adaptive"
	case ApproachPartitioned:
		return "partitioned"
	default:
		return fmt.Sprintf("ValueApproach(%d)", int(a))
	}
}

// MutualValueScenario describes one mutual-consistency simulation in the
// value domain.
type MutualValueScenario struct {
	TraceA, TraceB *trace.Trace
	// DeltaMutual is the mutual tolerance δ on the difference function.
	DeltaMutual float64
	// Approach selects adaptive vs partitioned.
	Approach ValueApproach
	// Bounds clamp the TTRs; the zero value selects the experiment
	// defaults (2 s floor, 5 min cap — quote traces tick every few
	// seconds).
	Bounds core.TTRBounds
}

// DefaultValueBounds are the TTR bounds used in the value-domain
// experiments.
var DefaultValueBounds = core.TTRBounds{Min: 2 * time.Second, Max: 5 * time.Minute}

// MutualValueRunResult carries the pair evaluation plus per-object logs.
type MutualValueRunResult struct {
	Report     metrics.MutualValueReport
	LogA, LogB []metrics.Refresh
}

// RunMutualValue executes the scenario until the shorter trace ends.
func RunMutualValue(sc MutualValueScenario) (MutualValueRunResult, error) {
	engine := sim.New(0)
	org := origin.New()
	const idA, idB core.ObjectID = "a", "b"
	if err := org.Host(idA, sc.TraceA, false); err != nil {
		return MutualValueRunResult{}, err
	}
	if err := org.Host(idB, sc.TraceB, false); err != nil {
		return MutualValueRunResult{}, err
	}
	bounds := sc.Bounds
	if bounds.Min == 0 && bounds.Max == 0 {
		bounds = DefaultValueBounds
	}
	px := proxy.New(engine, org)
	cfg := core.MutualValueConfig{
		Delta:  sc.DeltaMutual,
		Bounds: bounds,
	}
	switch sc.Approach {
	case ApproachAdaptive:
		if err := px.RegisterPair(idA, idB, core.NewMutualValueAdaptive(cfg)); err != nil {
			return MutualValueRunResult{}, err
		}
	case ApproachPartitioned:
		part := core.NewMutualValuePartitioned(cfg)
		if err := px.RegisterObject(idA, part.PolicyA()); err != nil {
			return MutualValueRunResult{}, err
		}
		if err := px.RegisterObject(idB, part.PolicyB()); err != nil {
			return MutualValueRunResult{}, err
		}
	default:
		return MutualValueRunResult{}, fmt.Errorf("experiments: unknown approach %v", sc.Approach)
	}
	horizon := sc.TraceA.Duration
	if sc.TraceB.Duration < horizon {
		horizon = sc.TraceB.Duration
	}
	if err := engine.Run(simtime.At(horizon)); err != nil {
		return MutualValueRunResult{}, err
	}
	logA, logB := px.Log(idA), px.Log(idB)
	return MutualValueRunResult{
		Report: metrics.EvaluateMutualValue(sc.TraceA, sc.TraceB, logA, logB,
			core.DifferenceFunc{}, sc.DeltaMutual, horizon),
		LogA: logA,
		LogB: logB,
	}, nil
}
