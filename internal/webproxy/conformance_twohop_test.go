package webproxy

import (
	"testing"
	"time"

	"broadway/internal/metrics"
	"broadway/internal/trace"
	"broadway/internal/tracegen"
)

// This file extends the conformance battery over the proxy hierarchy:
// the same stepped-clock replay, through TWO proxies — the parent
// subscribes to the origin and relays, the leaf subscribes to (and
// fetches through) the parent. The harness's quiesce holds across the
// whole chain before the clock moves: both proxies drained, and both
// event hops fully processed.

// killUpstream schedules the origin's event endpoint to die at the trace
// offset at and come back two virtual minutes later — the mid-stream
// Reset path through the relay, while the replay keeps running. Both
// instants sit off the whole-second grid, so they never collide with
// trace updates.
func killUpstream(at time.Duration) func(h *harness) []step {
	const offGrid = 511 * time.Millisecond
	return func(h *harness) []step {
		return []step{
			{at: at + offGrid, do: func() { h.origin.SetPushAvailable(false) }},
			{at: at + 2*time.Minute + offGrid, do: func() { h.origin.SetPushAvailable(true) }},
		}
	}
}

// TestConformanceTwoHopRelayHoldsLeafDeltaBound is the hierarchy
// acceptance criterion of ISSUE 4: an origin update must reach a leaf
// proxy through a relaying parent with zero Δt violations on the
// replayed trace — the relay may add a hop, never staleness beyond Δ.
func TestConformanceTwoHopRelayHoldsLeafDeltaBound(t *testing.T) {
	tr := confTrace(t)
	res := replay(t, confTopology(2, Config{DefaultDelta: confDelta, Bounds: confBounds, PushStretch: 16}, true, strippedEvents),
		[]replayObject{{path: "/news", tr: tr}}, confHorizon, nil)
	leafPush, relay := res.pushStats, res.h.root().relayHub()
	log := res.logs["/news"]
	if len(log) < 3 {
		t.Fatalf("leaf recorded only %d polls", len(log))
	}
	meas := metrics.EvaluateTemporal(tr, log, confDelta, confHorizon)
	t.Logf("leaf measured: %v (origin polls %d, relay %+v)", meas, res.originPolls, relay)
	if meas.Violations != 0 {
		t.Errorf("leaf Δt violations through the relay: %d", meas.Violations)
	}
	if leafPush.Polls == 0 {
		t.Error("leaf never ran a pushed poll; the relay was inert")
	}
	if relay.Seq == 0 {
		t.Error("parent relayed nothing")
	}
	// Every origin update produces one relay event; the leaf must have
	// consumed the stream to its head.
	if leafPush.LastSeq != relay.Seq {
		t.Errorf("leaf stopped at relay seq %d of %d", leafPush.LastSeq, relay.Seq)
	}
}

// TestConformanceTwoHopSurvivesUpstreamKill replays the same trace with
// the parent's upstream stream killed mid-burst and revived two virtual
// minutes later. The mid-stream Reset must reach the leaf over its
// still-open stream (the bugfix path: a pre-fix subscriber swallowed
// it), and the leaf's Δt bound must hold across the outage — the
// parent's paper-mode polling, and the relay's publication of what those
// polls install, cover the blind window.
func TestConformanceTwoHopSurvivesUpstreamKill(t *testing.T) {
	tr := confTrace(t)
	// Kill just after the first third of the horizon: the trace is
	// guaranteed to still have updates in flight afterwards.
	res := replay(t, confTopology(2, Config{DefaultDelta: confDelta, Bounds: confBounds, PushStretch: 16}, true, strippedEvents),
		[]replayObject{{path: "/news", tr: tr}}, confHorizon, killUpstream(confHorizon/3))

	parentPush, leafPush := res.h.root().PushStats(), res.pushStats
	meas := metrics.EvaluateTemporal(tr, res.logs["/news"], confDelta, confHorizon)
	t.Logf("leaf measured: %v (parent push %+v, leaf push %+v)", meas, parentPush, leafPush)
	if parentPush.Fallbacks == 0 {
		t.Fatal("the kill never produced a parent fallback; the chaos exercised nothing")
	}
	if leafPush.Resets == 0 {
		t.Fatal("the parent's upstream loss never propagated a mid-stream Reset to the leaf")
	}
	// The Reset must ride the leaf's live stream: its own channel to the
	// parent never died, so no leaf fallback and no reconnect.
	if leafPush.Fallbacks != 0 || leafPush.Connects != 1 {
		t.Errorf("leaf stream flapped (connects=%d fallbacks=%d); the Reset should ride the live stream",
			leafPush.Connects, leafPush.Fallbacks)
	}
	// Across the blind window the chain degrades to the paper's pure
	// polling (parent sweeps, paper-mode polls, the relay publishing what
	// they install), so
	// the leaf's violation rate must stay within the simulator's
	// pure-pull prediction — the outage may cost push's zero-violation
	// luxury, never more than pull-mode staleness.
	pred, _ := predictTemporal(t, tr, confDelta, confBounds)
	rMeas := violationRate(meas.Violations, meas.Polls)
	rPred := violationRate(pred.Violations, pred.Polls)
	if rMeas > rPred+0.08 {
		t.Errorf("leaf violation rate %.4f exceeds pure-pull prediction %.4f across the outage",
			rMeas, rPred)
	}
}

// TestConformanceTemporalSecondPreset widens the battery beyond CNN/FN:
// the NYT/AP preset (slower churn, Table 2's second row) replayed pull
// vs push through the single-hop live stack, with the same
// simulator-divergence tolerances as the primary preset.
func TestConformanceTemporalSecondPreset(t *testing.T) {
	tr := clipRound(tracegen.NYTAP(), confHorizon)
	if tr.NumUpdates() < 5 {
		t.Fatalf("clipped NYT/AP trace has only %d updates", tr.NumUpdates())
	}
	pred, _ := predictTemporal(t, tr, confDelta, confBounds)

	pull := replay(t, confTopology(1, Config{
		DefaultDelta: confDelta,
		Bounds:       confBounds,
	}, false, strippedEvents), []replayObject{{path: "/nytap", tr: tr}}, confHorizon, nil)
	measPull := metrics.EvaluateTemporal(tr, pull.logs["/nytap"], confDelta, confHorizon)
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
	}, true, strippedEvents), []replayObject{{path: "/nytap", tr: tr}}, confHorizon, nil)
	measPush := metrics.EvaluateTemporal(tr, push.logs["/nytap"], confDelta, confHorizon)
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

// Interface check: the replay driver assumes trace updates are strictly
// increasing after clipRound; guard the assumption explicitly so a
// future preset change fails here, not as a mysterious replay stall.
func TestClipRoundKeepsUpdatesStrictlyIncreasing(t *testing.T) {
	for _, tr := range []*trace.Trace{tracegen.CNNFN(), tracegen.NYTAP(), tracegen.NYTReuters()} {
		clipped := clipRound(tr, confHorizon)
		prev := time.Duration(-1)
		for _, u := range clipped.Updates {
			if u.At <= prev {
				t.Fatalf("%s: update at %v not after %v", tr.Name, u.At, prev)
			}
			prev = u.At
		}
	}
}
