package webproxy

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"testing"
	"time"

	"broadway/internal/core"
	"broadway/internal/httpx"
	"broadway/internal/metrics"
	simorigin "broadway/internal/origin"
	simproxy "broadway/internal/proxy"
	"broadway/internal/sim"
	"broadway/internal/simtime"
	"broadway/internal/trace"
	"broadway/internal/tracegen"
	"broadway/internal/webserver"
)

// This file is the trace-replay conformance battery: the live proxy is
// driven through internal/tracegen presets on the harness's stepped
// virtual clock ("simtime" for the live stack), with the push channel on
// and off, and the Δt / mutual-consistency violation rates it actually
// delivers are compared against what the discrete-event simulator
// predicts for the same trace and policy parameters.
//
// Replay discipline (harness.play): the clock holds still until the
// topology is quiescent, then moves directly to the next interesting
// instant — a trace update or the earliest scheduled refresh. Origin
// updates land on whole seconds while refresh instants carry a
// sub-second phase, so the two event families never collide and every
// run is deterministic.

// clipRound clips a trace to the horizon and rounds update instants to
// whole seconds (the webserver origin is HTTP-date-granular), keeping
// them strictly increasing and strictly positive.
func clipRound(tr *trace.Trace, horizon time.Duration) *trace.Trace {
	out := &trace.Trace{Name: tr.Name, Kind: tr.Kind, Duration: horizon, InitialValue: tr.InitialValue}
	prev := time.Duration(0)
	for _, u := range tr.Updates {
		at := u.At.Round(time.Second)
		if at <= prev {
			at = prev + time.Second
		}
		if at > horizon {
			break
		}
		out.Updates = append(out.Updates, trace.Update{At: at, Value: u.Value})
		prev = at
	}
	if err := out.Validate(); err != nil {
		panic(err)
	}
	return out
}

// replayObject is one object driven through the live proxy.
type replayObject struct {
	path string
	tr   *trace.Trace
	tol  httpx.Tolerances
	// inject, when set, runs after each of the object's origin updates
	// (with the 1-based revision) — the corruption hook value-domain
	// conformance uses to interleave hostile events with clean ones.
	inject func(o *webserver.Origin, rev int)
	// pad, when positive, appends that many whitespace bytes to every
	// revision's body. Whitespace keeps a value trace parseable (the
	// proxy trims before reading the decimal) while making the object
	// large enough to exercise the chunk and delta rungs of the ladder.
	pad int
}

// replayBody renders the origin body for revision rev of o (rev 0 is
// the pre-trace seed). Temporal traces serve versioned text; value
// traces serve the traced value as a decimal body, which is what makes
// the live proxy run the Δv machinery and lets the evaluator compare
// cached values against the trace's ground truth.
func replayBody(o replayObject, rev int) []byte {
	var b []byte
	if o.tr.Kind == trace.Value {
		v := o.tr.InitialValue
		if rev > 0 {
			v = o.tr.Updates[rev-1].Value
		}
		b = []byte(strconv.FormatFloat(v, 'f', -1, 64) + "\n")
	} else {
		b = []byte(fmt.Sprintf("%s rev %d", o.path, rev))
	}
	if o.pad > 0 {
		b = append(b, bytes.Repeat([]byte(" "), o.pad)...)
	}
	return b
}

// replayResult carries the measured side of one conformance run.
type replayResult struct {
	// h is the replayed topology, for its proxies' counters.
	h *harness
	// logs are the leaf's refresh logs, pushStats its channel counters;
	// originPolls counts the requests the origin served.
	logs        map[string][]metrics.Refresh
	pushStats   PushStats
	originPolls uint64
	// applied counts leaf observations that installed a pushed payload
	// with no request upstream; pushedPolls counts the leaf's pushed
	// CONFIRMATION polls (the fallback rung) — zero on a clean
	// value-carrying run.
	applied, pushedPolls uint64
}

// admissionPhase offsets object admission from the whole-second grid the
// trace updates live on, so scheduled refreshes (admission + TTR sums)
// never collide with update instants and replay order stays
// deterministic.
const admissionPhase = 37 * time.Millisecond

// Event forms for confTopology: valueEvents is the shipped origin's,
// every event carrying the new body; strippedEvents serves each event
// stripped of its body (topology.strip), the payload-free frame a
// degraded rung leaves, so every pushed job is a confirmation poll.
const (
	valueEvents    = true
	strippedEvents = false
)

// confTopology is the battery's live stack: hops proxies configured by
// cfg below an origin with the history extension on, subscribed to its
// events when pushOn, in the form withValues names.
func confTopology(hops int, cfg Config, pushOn, withValues bool) topology {
	tp := topology{hops: hops, push: pushOn, cfg: cfg, origin: []webserver.Option{webserver.WithHistoryExtension(true)}}
	if pushOn && !withValues {
		return withStrippedEvents(tp)
	}
	return tp
}

// replay drives objs through tp on the stepped clock: it seeds revision 0
// of each at the epoch, admits each through the leaf off the whole-second
// grid, and replays their merged update schedule — with the actions acts
// schedules — up to horizon, recording the leaf's refresh logs.
func replay(t *testing.T, tp topology, objs []replayObject, horizon time.Duration, acts func(h *harness) []step) replayResult {
	t.Helper()
	h := newHarness(t, tp)
	for _, o := range objs {
		h.origin.Set(o.path, replayBody(o, 0), "")
		if !o.tol.IsZero() {
			h.origin.SetTolerances(o.path, o.tol)
		}
	}
	h.stepTo(h.clk.base.Add(admissionPhase))
	for _, o := range objs {
		if code, body, _ := h.leaf().get(o.path); code != http.StatusOK {
			t.Fatalf("admission of %s: %d %s", o.path, code, body)
		}
	}
	var steps []step
	if acts != nil {
		steps = acts(h)
	}
	for _, o := range objs {
		for r, u := range o.tr.Updates {
			o, rev := o, r+1
			steps = append(steps, step{at: u.At, do: func() {
				h.origin.Set(o.path, replayBody(o, rev), "")
				if o.inject != nil {
					o.inject(h.origin, rev)
				}
			}})
		}
	}
	h.play(horizon, steps)

	res := replayResult{h: h, logs: make(map[string][]metrics.Refresh), pushStats: h.leaf().PushStats(), originPolls: h.origin.Stats().Polls}
	for _, o := range h.leaf().observations() {
		at := simtime.At(o.At.Sub(h.clk.base))
		res.logs[o.Key] = append(res.logs[o.Key], metrics.Refresh{
			At: at, Modified: o.Modified, Value: o.Value, Triggered: o.Triggered || o.Pushed,
		})
		// A sibling the channel vouched for is current at this instant,
		// though nothing polled it.
		for _, k := range o.Vouched {
			res.logs[k] = append(res.logs[k], metrics.Refresh{At: at, Sync: true})
		}
		if o.Applied {
			res.applied++
		} else if o.Pushed {
			res.pushedPolls++
		}
	}
	return res
}

// predictTemporal runs the discrete-event simulator over the same trace
// and parameters and evaluates the paper's Δt metrics.
func predictTemporal(t *testing.T, tr *trace.Trace, delta time.Duration, bounds core.TTRBounds) (metrics.TemporalReport, uint64) {
	t.Helper()
	eng := sim.New(0)
	org := simorigin.New()
	if err := org.Host("obj", tr, true); err != nil {
		t.Fatal(err)
	}
	px := simproxy.New(eng, org)
	if err := px.RegisterObject("obj", core.NewLIMD(core.LIMDConfig{Delta: delta, Bounds: bounds})); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(simtime.At(tr.Duration)); err != nil {
		t.Fatal(err)
	}
	return metrics.EvaluateTemporal(tr, px.Log("obj"), delta, tr.Duration), org.TotalPolls()
}

// predictMutual runs the simulator over a grouped pair with triggered
// mutual consistency.
func predictMutual(t *testing.T, trA, trB *trace.Trace, delta, groupDelta time.Duration, bounds core.TTRBounds) metrics.MutualTemporalReport {
	t.Helper()
	eng := sim.New(0)
	org := simorigin.New()
	if err := org.Host("a", trA, true); err != nil {
		t.Fatal(err)
	}
	if err := org.Host("b", trB, true); err != nil {
		t.Fatal(err)
	}
	px := simproxy.New(eng, org)
	for id, tr := range map[core.ObjectID]*trace.Trace{"a": trA, "b": trB} {
		_ = tr
		if err := px.RegisterObject(id, core.NewLIMD(core.LIMDConfig{Delta: delta, Bounds: bounds})); err != nil {
			t.Fatal(err)
		}
	}
	ctrl := core.NewMutualTimeController(core.MutualTimeConfig{Delta: groupDelta, Mode: core.TriggerAll})
	if err := px.RegisterGroup([]core.ObjectID{"a", "b"}, ctrl); err != nil {
		t.Fatal(err)
	}
	horizon := trA.Duration
	if trB.Duration < horizon {
		horizon = trB.Duration
	}
	if err := eng.Run(simtime.At(horizon)); err != nil {
		t.Fatal(err)
	}
	return metrics.EvaluateMutualTemporal([]*trace.Trace{trA, trB}, [][]metrics.Refresh{px.Log("a"), px.Log("b")}, groupDelta, horizon)
}

// violationRate is violations per poll (the complement of Eq. 13).
func violationRate(violations, polls int) float64 {
	if polls == 0 {
		return 0
	}
	return float64(violations) / float64(polls)
}

// Conformance parameters: Δ = 60s with TTR ∈ [60s, 30min] over the first
// eight hours of the CNN/FN preset — the paper's operating point scaled
// to a CI-sized window.
const (
	confDelta   = time.Minute
	confHorizon = 8 * time.Hour
)

var confBounds = core.TTRBounds{Min: time.Minute, Max: 30 * time.Minute}

func confTrace(t *testing.T) *trace.Trace {
	tr := clipRound(tracegen.CNNFN(), confHorizon)
	if tr.NumUpdates() < 10 {
		t.Fatalf("clipped trace has only %d updates; the battery would prove nothing", tr.NumUpdates())
	}
	return tr
}

// TestConformanceTemporalPullMatchesSimulator replays the CNN/FN preset
// through the live proxy in pure paper mode and checks the measured Δt
// fidelity lands within tolerance of the simulator's prediction.
func TestConformanceTemporalPullMatchesSimulator(t *testing.T) {
	tr := confTrace(t)
	pred, _ := predictTemporal(t, tr, confDelta, confBounds)

	res := replay(t, confTopology(1, Config{
		DefaultDelta: confDelta,
		Bounds:       confBounds,
	}, false, strippedEvents), []replayObject{{path: "/news", tr: tr}}, confHorizon, nil)
	log := res.logs["/news"]
	if len(log) < 3 {
		t.Fatalf("live replay recorded only %d polls", len(log))
	}
	meas := metrics.EvaluateTemporal(tr, log, confDelta, confHorizon)
	t.Logf("predicted: %v", pred)
	t.Logf("measured:  %v (origin polls %d)", meas, res.originPolls)

	const tol = 0.08
	if d := meas.FidelityByViolations - pred.FidelityByViolations; d < -tol || d > tol {
		t.Errorf("per-poll fidelity diverged: measured %.3f predicted %.3f",
			meas.FidelityByViolations, pred.FidelityByViolations)
	}
	if d := meas.FidelityByTime - pred.FidelityByTime; d < -tol || d > tol {
		t.Errorf("time-weighted fidelity diverged: measured %.3f predicted %.3f",
			meas.FidelityByTime, pred.FidelityByTime)
	}
	// The poll volumes must be of the same magnitude too — matching
	// fidelity at wildly different cost would mean the live proxy is not
	// running the paper's policy.
	if lo, hi := pred.Polls/2, pred.Polls*2; meas.Polls < lo || meas.Polls > hi {
		t.Errorf("poll volume diverged: measured %d predicted %d", meas.Polls, pred.Polls)
	}
}

// TestConformanceTemporalPushHalvesPollsWithoutLosingFidelity: with push
// enabled against the same churning origin, origin poll count drops at
// least 2x versus pure polling on the same trace while the measured Δt
// violation rate is equal or lower.
func TestConformanceTemporalPushHalvesPollsWithoutLosingFidelity(t *testing.T) {
	tr := confTrace(t)
	obj := []replayObject{{path: "/news", tr: tr}}

	pull := replay(t, confTopology(1, Config{
		DefaultDelta: confDelta,
		Bounds:       confBounds,
	}, false, strippedEvents), obj, confHorizon, nil)
	push := replay(t, confTopology(1, Config{
		DefaultDelta: confDelta,
		Bounds:       confBounds,
		PushStretch:  16,
	}, true, strippedEvents), obj, confHorizon, nil)

	measPull := metrics.EvaluateTemporal(tr, pull.logs["/news"], confDelta, confHorizon)
	measPush := metrics.EvaluateTemporal(tr, push.logs["/news"], confDelta, confHorizon)
	t.Logf("pull: %v (origin polls %d)", measPull, pull.originPolls)
	t.Logf("push: %v (origin polls %d, stats %+v)", measPush, push.originPolls, push.pushStats)

	if push.originPolls*2 > pull.originPolls {
		t.Errorf("push did not halve origin polls: pull=%d push=%d", pull.originPolls, push.originPolls)
	}
	rPull := violationRate(measPull.Violations, measPull.Polls)
	rPush := violationRate(measPush.Violations, measPush.Polls)
	if rPush > rPull+1e-9 {
		t.Errorf("push raised the Δt violation rate: pull=%.4f push=%.4f", rPull, rPush)
	}
	if measPush.FidelityByTime+1e-9 < measPull.FidelityByTime {
		t.Errorf("push lowered time-weighted fidelity: pull=%.4f push=%.4f",
			measPull.FidelityByTime, measPush.FidelityByTime)
	}
	if push.pushStats.Polls == 0 {
		t.Error("push run never executed a pushed poll; the channel was inert")
	}
}

// TestConformanceMutualPairMatchesSimulator replays a grouped pair
// (CNN/FN + NYT/Reuters) and compares the measured mutual-consistency
// sync-violation rate against the simulator's prediction, with push off
// and on.
func TestConformanceMutualPairMatchesSimulator(t *testing.T) {
	const groupDelta = 2 * time.Minute
	trA := clipRound(tracegen.CNNFN(), confHorizon)
	trB := clipRound(tracegen.NYTReuters(), confHorizon)
	pred := predictMutual(t, trA, trB, confDelta, groupDelta, confBounds)

	objs := []replayObject{
		{path: "/a", tr: trA, tol: httpx.Tolerances{Group: "news", GroupDelta: groupDelta}},
		{path: "/b", tr: trB, tol: httpx.Tolerances{Group: "news", GroupDelta: groupDelta}},
	}
	cfg := Config{
		DefaultDelta: confDelta,
		Bounds:       confBounds,
		Mode:         core.TriggerAll,
	}
	for _, pushOn := range []bool{false, true} {
		name := "pull"
		run := cfg
		if pushOn {
			name = "push"
			run.PushStretch = 16
		}
		res := replay(t, confTopology(1, run, pushOn, strippedEvents), objs, confHorizon, nil)
		meas := metrics.EvaluateMutualTemporal([]*trace.Trace{trA, trB}, [][]metrics.Refresh{res.logs["/a"], res.logs["/b"]}, groupDelta, confHorizon)
		t.Logf("%s measured:  %v (origin polls %d)", name, meas, res.originPolls)
		t.Logf("%s predicted: %v", name, pred)

		rMeas := violationRate(meas.SyncViolations, meas.Polls)
		rPred := violationRate(pred.SyncViolations, pred.Polls)
		// The live stack may only ever do better than the predicted
		// pull-mode rate (push adds polls exactly where updates happen);
		// it must never be meaningfully worse.
		if rMeas > rPred+0.08 {
			t.Errorf("%s: mutual sync-violation rate %.4f exceeds predicted %.4f", name, rMeas, rPred)
		}
		if meas.Polls == 0 {
			t.Errorf("%s: no polls recorded", name)
		}
		// Every poll the evaluator counts was an origin request: the sync
		// instants a leased sibling is credited with are not polls.
		if meas.Polls != int(res.originPolls) {
			t.Errorf("%s: evaluator counted %d polls, the origin served %d", name, meas.Polls, res.originPolls)
		}
		// Under push, a sibling's triggered poll is replaced by the
		// channel's vouching only where the lease carries it: §3.2's bound
		// holds at every update either way.
		if pushOn && meas.SyncViolations != 0 {
			t.Errorf("push: %d mutual sync violations, want none", meas.SyncViolations)
		}
	}
}
