package webproxy

import (
	"strings"
	"testing"
	"time"

	"broadway/internal/core"
	"broadway/internal/httpx"
	"broadway/internal/metrics"
	simorigin "broadway/internal/origin"
	simproxy "broadway/internal/proxy"
	"broadway/internal/push"
	"broadway/internal/sim"
	"broadway/internal/simtime"
	"broadway/internal/trace"
	"broadway/internal/tracegen"
	"broadway/internal/webserver"
)

// This file is the value-domain conformance battery of ISSUE 5: the
// Table 3 stock presets (AT&T, Yahoo) replayed through the live stack
// on the stepped virtual clock. Pull mode is held against the
// discrete-event simulator's AdaptiveTTR prediction exactly as the
// temporal battery does with LIMD; push mode must deliver the
// tentpole's promise — every update installed from the event payload
// itself, zero Δv violations, zero confirmation polls — one-hop and
// through a relaying parent, and with hostile injections (digest
// mismatches, over-cap payloads) demonstrably degrading to a pushed
// poll without widening the staleness bound.

// Value conformance parameters: Δv sized to each preset's tick
// volatility (Table 3's operating regime), TTR ∈ [10s, 5min], horizons
// clipped to CI-sized windows dense enough to prove something
// (AT&T ≈ one tick / 16.5s, Yahoo ≈ one / 4.9s).
const (
	attDelta     = 0.10
	yahooDelta   = 1.0
	attHorizon   = time.Hour
	yahooHorizon = 20 * time.Minute
)

var valueBounds = core.TTRBounds{Min: 10 * time.Second, Max: 5 * time.Minute}

// valueTrace clips and second-aligns a stock preset.
func valueTrace(t *testing.T, tr *trace.Trace, horizon time.Duration) *trace.Trace {
	t.Helper()
	clipped := clipRound(tr, horizon)
	if clipped.NumUpdates() < 20 {
		t.Fatalf("clipped %s has only %d ticks; the battery would prove nothing",
			tr.Name, clipped.NumUpdates())
	}
	return clipped
}

// predictValue runs the discrete-event simulator over the trace with
// the paper's adaptive Δv policy and evaluates the value-domain report.
func predictValue(t *testing.T, tr *trace.Trace, delta float64, bounds core.TTRBounds) (metrics.ValueReport, uint64) {
	t.Helper()
	eng := sim.New(0)
	org := simorigin.New()
	if err := org.Host("obj", tr, true); err != nil {
		t.Fatal(err)
	}
	px := simproxy.New(eng, org)
	if err := px.RegisterObject("obj", core.NewAdaptiveTTR(core.AdaptiveTTRConfig{
		Delta:  delta,
		Bounds: bounds,
	})); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(simtime.At(tr.Duration)); err != nil {
		t.Fatal(err)
	}
	return metrics.EvaluateValue(tr, px.Log("obj"), delta, tr.Duration), org.TotalPolls()
}

// sameInstantMoves counts ticks whose single-step move reaches delta.
// The per-poll violation metric compares the cached value just before a
// refresh against the server value AT the refresh instant; a payload
// applied at exactly the tick's virtual instant therefore "violates"
// whenever one tick alone moves ≥ Δv, even though cache and server
// switched atomically and no user could ever observe the divergence
// (OutOfSync stays 0). Those artifacts bound the violations a perfect
// value-push run may report.
func sameInstantMoves(tr *trace.Trace, delta float64) int {
	n := 0
	prev := tr.InitialValue
	for _, u := range tr.Updates {
		if d := u.Value - prev; d >= delta || -d >= delta {
			n++
		}
		prev = u.Value
	}
	return n
}

// assertValuePushPerfect applies the tentpole's Δv assertions to a
// value-push refresh log: no observable out-of-sync time at all, every
// refresh installing the exact server value of its instant, and no
// violations beyond the same-instant metric artifact.
func assertValuePushPerfect(t *testing.T, name string, tr *trace.Trace, log []metrics.Refresh, delta float64, meas metrics.ValueReport) {
	t.Helper()
	if meas.OutOfSync != 0 || meas.FidelityByTime != 1 {
		t.Errorf("%s: cache was Δv-out-of-sync for %v (time fidelity %.4f); value push must leave none",
			name, meas.OutOfSync, meas.FidelityByTime)
	}
	if artifacts := sameInstantMoves(tr, delta); meas.Violations > artifacts {
		t.Errorf("%s: %d Δv violations exceed the %d same-instant artifacts — real staleness leaked",
			name, meas.Violations, artifacts)
	}
	for _, r := range log {
		if got, want := r.Value, tr.ValueAt(r.At.Duration()); got != want {
			t.Fatalf("%s: refresh at %v installed %v, server held %v", name, r.At, got, want)
		}
	}
}

// valueReplayConfig is the shared live-stack configuration of the
// stock replays.
func valueReplayConfig(pushOn bool) Config {
	cfg := Config{
		DefaultDelta: time.Minute,
		Bounds:       valueBounds,
	}
	if pushOn {
		cfg.PushStretch = 16
	}
	return cfg
}

// twoHopValues configures both hops of the value two-hop replays: the
// temporal battery's parameters.
var twoHopValues = Config{DefaultDelta: confDelta, Bounds: confBounds, PushStretch: 16}

// runValuePreset replays one stock preset pull and push and applies the
// battery's assertions; inject, when non-nil, is wired into the push
// run's replay objects.
func runValuePreset(t *testing.T, tr *trace.Trace, delta float64, horizon time.Duration) {
	t.Helper()
	path := "/" + tr.Name
	tol := httpx.Tolerances{ValueDelta: delta}
	pred, predPolls := predictValue(t, tr, delta, valueBounds)

	// Pull fidelity: the live stack running AdaptiveTTR over the same
	// trace must land near the simulator's prediction, at comparable
	// poll cost — the same conformance bar the temporal presets clear.
	pull := replay(t, confTopology(1, valueReplayConfig(false), false, strippedEvents), []replayObject{{path: path, tr: tr, tol: tol}}, horizon, nil)
	measPull := metrics.EvaluateValue(tr, pull.logs[path], delta, horizon)
	t.Logf("%s pull measured:  %+v (origin polls %d)", tr.Name, measPull, pull.originPolls)
	t.Logf("%s pull predicted: %+v (origin polls %d)", tr.Name, pred, predPolls)
	const tol8 = 0.08
	if d := measPull.FidelityByViolations - pred.FidelityByViolations; d < -tol8 || d > tol8 {
		t.Errorf("%s: Δv per-poll fidelity diverged: measured %.3f predicted %.3f",
			tr.Name, measPull.FidelityByViolations, pred.FidelityByViolations)
	}
	if lo, hi := pred.Polls/2, pred.Polls*2; measPull.Polls < lo || measPull.Polls > hi {
		t.Errorf("%s: poll volume diverged: measured %d predicted %d", tr.Name, measPull.Polls, pred.Polls)
	}

	// Push: every tick rides the payload — zero Δv violations, zero
	// confirmation polls on the pushed path.
	push := replay(t, confTopology(1, valueReplayConfig(true), true, valueEvents), []replayObject{{path: path, tr: tr, tol: tol}}, horizon, nil)
	measPush := metrics.EvaluateValue(tr, push.logs[path], delta, horizon)
	t.Logf("%s push measured: %+v (origin polls %d, applied %d, pushed polls %d, stats %+v)",
		tr.Name, measPush, push.originPolls, push.applied, push.pushedPolls, push.pushStats)
	assertValuePushPerfect(t, tr.Name, tr, push.logs[path], delta, measPush)
	if push.pushedPolls != 0 {
		t.Errorf("%s: %d pushed confirmation polls; payload delivery must cost zero", tr.Name, push.pushedPolls)
	}
	if push.pushStats.ValueFallbacks != 0 {
		t.Errorf("%s: %d value fallbacks on the clean path", tr.Name, push.pushStats.ValueFallbacks)
	}
	if got, want := push.applied, uint64(tr.NumUpdates()); got != want {
		t.Errorf("%s: %d payload applications for %d ticks", tr.Name, got, want)
	}
	if push.originPolls >= pull.originPolls {
		t.Errorf("%s: value push saved no origin polls: pull=%d push=%d",
			tr.Name, pull.originPolls, push.originPolls)
	}
}

// TestConformanceValueATT replays the AT&T quote preset (Table 3's
// calm mover) pull vs push through the live stack.
func TestConformanceValueATT(t *testing.T) {
	runValuePreset(t, valueTrace(t, tracegen.ATT(), attHorizon), attDelta, attHorizon)
}

// TestConformanceValueYahoo replays the Yahoo quote preset (Table 3's
// volatile mover) pull vs push through the live stack.
func TestConformanceValueYahoo(t *testing.T) {
	runValuePreset(t, valueTrace(t, tracegen.Yahoo(), yahooHorizon), yahooDelta, yahooHorizon)
}

// TestConformanceValueTwoHop is the hierarchy half of the tentpole
// proof: an AT&T tick reaches a leaf through a relaying parent as one
// payload-carrying message — the leaf installs it with zero Δv
// violations and zero confirmation polls against the parent, and the
// parent issues zero confirmation polls against the origin.
func TestConformanceValueTwoHop(t *testing.T) {
	tr := valueTrace(t, tracegen.ATT(), attHorizon)
	path := "/" + tr.Name
	res := replay(t, confTopology(2, twoHopValues, true, valueEvents), []replayObject{{path: path, tr: tr,
		tol: httpx.Tolerances{ValueDelta: attDelta}}}, attHorizon, nil)
	parentPush, leafPush := res.h.root().PushStats(), res.pushStats

	meas := metrics.EvaluateValue(tr, res.logs[path], attDelta, attHorizon)
	t.Logf("leaf measured: %+v (origin polls %d, applied %d, pushed polls %d, parent %+v, leaf %+v)",
		meas, res.originPolls, res.applied, res.pushedPolls, parentPush, leafPush)
	assertValuePushPerfect(t, "two-hop "+tr.Name, tr, res.logs[path], attDelta, meas)
	if res.pushedPolls != 0 {
		t.Errorf("leaf issued %d confirmation polls; the payload must feed it directly", res.pushedPolls)
	}
	if res.applied == 0 {
		t.Error("leaf never installed a payload; the relay stripped the values")
	}
	if parentPush.ValueFallbacks != 0 {
		t.Errorf("parent fell back %d times on the clean path", parentPush.ValueFallbacks)
	}
	if leafPush.ValueFallbacks != 0 {
		t.Errorf("leaf fell back %d times on the clean path", leafPush.ValueFallbacks)
	}
	if res.h.root().relayHub().Seq == 0 {
		t.Error("parent relayed nothing")
	}
}

// TestConformanceValueLargeObjectTwoHop is the ladder's large-object
// acceptance run: the AT&T preset with every body padded past
// push.DefaultPayloadCap. The first payload must travel chunked to the
// parent (it exceeds the cap), every later tick must ride the delta
// rung at both hops (the padded bodies differ by a few bytes), and the
// Δv bound must hold with zero confirmation polls and zero fallbacks
// anywhere in the chain. (TestThreeHopOnePayloadPerVersionPerLink counts
// the chunk sets each link sends.)
func TestConformanceValueLargeObjectTwoHop(t *testing.T) {
	const largePad = push.DefaultPayloadCap + 16<<10
	tr := valueTrace(t, tracegen.ATT(), attHorizon/2)
	path := "/" + tr.Name
	res := replay(t, confTopology(2, twoHopValues, true, valueEvents), []replayObject{{path: path, tr: tr,
		tol: httpx.Tolerances{ValueDelta: attDelta}, pad: largePad}}, attHorizon/2, nil)
	parentPush, leafPush := res.h.root().PushStats(), res.pushStats

	meas := metrics.EvaluateValue(tr, res.logs[path], attDelta, attHorizon/2)
	t.Logf("leaf measured: %+v (origin polls %d, applied %d, pushed polls %d, parent %+v, leaf %+v)",
		meas, res.originPolls, res.applied, res.pushedPolls, parentPush, leafPush)
	assertValuePushPerfect(t, "large two-hop "+tr.Name, tr, res.logs[path], attDelta, meas)
	if res.pushedPolls != 0 {
		t.Errorf("leaf issued %d confirmation polls; the ladder must feed it directly", res.pushedPolls)
	}
	if parentPush.ValueFallbacks != 0 || leafPush.ValueFallbacks != 0 {
		t.Errorf("fallbacks on the clean path: parent %d leaf %d",
			parentPush.ValueFallbacks, leafPush.ValueFallbacks)
	}
	if parentPush.DeltaBaseMisses != 0 || leafPush.DeltaBaseMisses != 0 {
		t.Errorf("base misses on the clean path: parent %d leaf %d",
			parentPush.DeltaBaseMisses, leafPush.DeltaBaseMisses)
	}
	// The parent must have used both expensive-body rungs: chunks for the
	// first over-cap delivery, deltas once a base is held.
	if parentPush.ChunksAssembled == 0 {
		t.Errorf("parent assembled no chunk sets: %+v", parentPush)
	}
	if parentPush.DeltaApplied == 0 {
		t.Errorf("parent applied no deltas: %+v", parentPush)
	}
	if leafPush.DeltaApplied == 0 {
		t.Errorf("leaf applied no deltas: %+v", leafPush)
	}
	// Re-basing at the parent is what feeds the leaf's delta rung.
	if parentPush.DeltaRebased == 0 {
		t.Errorf("parent republished no delta sidecars: %+v", parentPush)
	}
}

// TestConformanceValueInjectionsFallBack drives the AT&T replay with
// hostile events interleaved after every clean update of two kinds —
// a forged payload whose digest does not cover it, and a body beyond
// the origin hub's payload cap (degraded to an invalidation at publish
// time). Every injection must fall back to exactly one pushed
// confirmation poll, the forged bytes must never be installed, and the
// Δv bound must hold exactly as on the clean run.
func TestConformanceValueInjectionsFallBack(t *testing.T) {
	tr := valueTrace(t, tracegen.ATT(), attHorizon/2)
	path := "/" + tr.Name
	var injected uint64
	obj := replayObject{
		path: path,
		tr:   tr,
		tol:  httpx.Tolerances{ValueDelta: attDelta},
		inject: func(o *webserver.Origin, rev int) {
			switch rev % 4 {
			case 1:
				// Forged payload: plausible body, digest that does not
				// cover it. The proxy must refuse it and poll.
				o.InjectPushEvent(push.Event{
					Kind: push.KindUpdate, Key: path,
					Body: []byte("999999.99\n"), HasBody: true,
					Digest: "00000000deadbeef",
				})
				injected++
			case 2:
				// Forged-base pure delta: no stream holds the base it
				// claims, and a pure delta has no full form to fall back
				// on, so the hub walks the whole ladder down to a
				// stripped invalidation and the proxy confirms by
				// polling. The hostile bytes can never be applied.
				o.InjectPushEvent(push.Event{
					Kind: push.KindUpdate, Key: path,
					Body: []byte{0x01, 0x02, '9', '9'}, HasBody: true,
					Digest:     push.DigestOf([]byte("unreachable")),
					BaseDigest: "00000000deadbeef", DeltaCodec: push.DeltaCodecBlock,
				})
				injected++
			case 3:
				// Over-cap payload: the origin hub degrades it to an
				// invalidation-only event at publish time; the proxy
				// sees a payload-less update and polls.
				o.InjectPushEvent(push.Event{
					Kind: push.KindUpdate, Key: path,
					Body: []byte(strings.Repeat("9", push.DefaultPayloadCap+1)), HasBody: true,
					Digest: push.DigestOf([]byte("unused")),
				})
				injected++
			}
		},
	}
	res := replay(t, confTopology(1, valueReplayConfig(true), true, valueEvents), []replayObject{obj}, attHorizon/2, nil)
	meas := metrics.EvaluateValue(tr, res.logs[path], attDelta, attHorizon/2)
	t.Logf("measured: %+v (injected %d, fallbacks %d, applied %d, pushed polls %d)",
		meas, injected, res.pushStats.ValueFallbacks, res.applied, res.pushedPolls)
	if injected == 0 {
		t.Fatal("the injection hook never ran; the test exercised nothing")
	}
	assertValuePushPerfect(t, "injected "+tr.Name, tr, res.logs[path], attDelta, meas)
	if res.pushStats.ValueFallbacks != injected {
		t.Errorf("fallbacks = %d, want one per injection (%d)", res.pushStats.ValueFallbacks, injected)
	}
	if res.pushedPolls != res.pushStats.ValueFallbacks {
		t.Errorf("pushed confirmation polls %d != fallbacks %d", res.pushedPolls, res.pushStats.ValueFallbacks)
	}
	// The forged value must never have been observed by the evaluator:
	// every logged value is one the trace actually produced.
	for _, r := range res.logs[path] {
		if r.Value > 1000 {
			t.Fatalf("forged value %.2f reached the cache", r.Value)
		}
	}
}

// TestConformanceTemporalGuardianPreset extends the temporal battery
// (satellite of ISSUE 5, ROADMAP open item) over the Guardian preset —
// the densest Table 2 trace (one update / ≈4.9 min) — with the same
// pull-fidelity and push-no-worse assertions as CNN/FN and NYT/AP.
func TestConformanceTemporalGuardianPreset(t *testing.T) {
	const horizon = 4 * time.Hour // dense trace: 4h already holds ~50 updates
	tr := clipRound(tracegen.Guardian(), horizon)
	if tr.NumUpdates() < 20 {
		t.Fatalf("clipped Guardian trace has only %d updates", tr.NumUpdates())
	}
	pred, _ := predictTemporal(t, tr, confDelta, confBounds)

	pull := replay(t, confTopology(1, Config{
		DefaultDelta: confDelta,
		Bounds:       confBounds,
	}, false, strippedEvents), []replayObject{{path: "/guardian", tr: tr}}, horizon, nil)
	measPull := metrics.EvaluateTemporal(tr, pull.logs["/guardian"], confDelta, horizon)
	t.Logf("predicted: %v", pred)
	t.Logf("pull measured: %v (origin polls %d)", measPull, pull.originPolls)

	const tol = 0.08
	if d := measPull.FidelityByViolations - pred.FidelityByViolations; d < -tol || d > tol {
		t.Errorf("per-poll fidelity diverged: measured %.3f predicted %.3f",
			measPull.FidelityByViolations, pred.FidelityByViolations)
	}
	if lo, hi := pred.Polls/2, pred.Polls*2; measPull.Polls < lo || measPull.Polls > hi {
		t.Errorf("poll volume diverged: measured %d predicted %d", measPull.Polls, pred.Polls)
	}

	push := replay(t, confTopology(1, Config{
		DefaultDelta: confDelta,
		Bounds:       confBounds,
		PushStretch:  16,
	}, true, strippedEvents), []replayObject{{path: "/guardian", tr: tr}}, horizon, nil)
	measPush := metrics.EvaluateTemporal(tr, push.logs["/guardian"], confDelta, horizon)
	t.Logf("push measured: %v (origin polls %d)", measPush, push.originPolls)
	rPull := violationRate(measPull.Violations, measPull.Polls)
	rPush := violationRate(measPush.Violations, measPush.Polls)
	if rPush > rPull+1e-9 {
		t.Errorf("push raised the Δt violation rate: pull=%.4f push=%.4f", rPull, rPush)
	}
	if push.originPolls >= pull.originPolls {
		t.Errorf("push saved no origin polls: pull=%d push=%d", pull.originPolls, push.originPolls)
	}
}
