package metrics

import (
	"math"
	"testing"
	"time"

	"broadway/internal/core"
	"broadway/internal/simtime"
	"broadway/internal/trace"
)

func at(d time.Duration) simtime.Time { return simtime.At(d) }

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func tempTrace() *trace.Trace {
	return &trace.Trace{
		Name: "t", Kind: trace.Temporal, Duration: time.Hour,
		Updates: []trace.Update{
			{At: 10 * time.Minute}, {At: 20 * time.Minute}, {At: 45 * time.Minute},
		},
	}
}

// TestEvaluateTemporalHandComputed checks every number of a fully
// hand-computed scenario: updates at 10/20/45m, polls at 0/12/30/50m,
// Δ = 5m.
func TestEvaluateTemporalHandComputed(t *testing.T) {
	log := []Refresh{
		{At: at(0)},
		{At: at(12 * time.Minute), Modified: true, Version: 1},
		{At: at(30 * time.Minute), Modified: true, Version: 2},
		{At: at(50 * time.Minute), Modified: true, Version: 3},
	}
	rep := EvaluateTemporal(tempTrace(), log, 5*time.Minute, time.Hour)

	if rep.Polls != 4 {
		t.Errorf("Polls = %d, want 4", rep.Polls)
	}
	// Only the 12m→30m interval violates: first update after 12m is at
	// 20m, and 30−20 = 10m > Δ. (0→12: 12−10 = 2m ok; 30→50: 50−45 = 5m
	// = Δ, not >.)
	if rep.Violations != 1 {
		t.Errorf("Violations = %d, want 1", rep.Violations)
	}
	if !almostEqual(rep.FidelityByViolations, 0.75) {
		t.Errorf("f13 = %v, want 0.75", rep.FidelityByViolations)
	}
	// Out-of-sync: only within [12m,30m): stale from 20m, out of
	// tolerance from 25m to the 30m refresh = 5m.
	if rep.OutOfSync != 5*time.Minute {
		t.Errorf("OutOfSync = %v, want 5m", rep.OutOfSync)
	}
	if !almostEqual(rep.FidelityByTime, 1-5.0/60.0) {
		t.Errorf("f14 = %v", rep.FidelityByTime)
	}
}

func TestEvaluateTemporalPerfectPolling(t *testing.T) {
	// Polling every Δ = 5m: the baseline's fidelity must be exactly 1.
	var log []Refresh
	for at0 := time.Duration(0); at0 <= time.Hour; at0 += 5 * time.Minute {
		log = append(log, Refresh{At: at(at0)})
	}
	rep := EvaluateTemporal(tempTrace(), log, 5*time.Minute, time.Hour)
	if rep.Violations != 0 || rep.OutOfSync != 0 {
		t.Errorf("baseline: violations=%d outSync=%v, want 0/0", rep.Violations, rep.OutOfSync)
	}
	if rep.FidelityByViolations != 1 || rep.FidelityByTime != 1 {
		t.Error("baseline fidelity must be 1")
	}
}

func TestEvaluateTemporalNeverPolledAgain(t *testing.T) {
	// One initial fetch, never refreshed: out of sync from firstUpdate+Δ
	// to the horizon.
	log := []Refresh{{At: at(0)}}
	rep := EvaluateTemporal(tempTrace(), log, 5*time.Minute, time.Hour)
	if rep.Violations != 0 { // violations are only observed at polls
		t.Errorf("Violations = %d", rep.Violations)
	}
	want := time.Hour - 15*time.Minute
	if rep.OutOfSync != want {
		t.Errorf("OutOfSync = %v, want %v", rep.OutOfSync, want)
	}
}

func TestEvaluateTemporalEmptyLog(t *testing.T) {
	rep := EvaluateTemporal(tempTrace(), nil, 5*time.Minute, time.Hour)
	if rep.FidelityByViolations != 1 || rep.FidelityByTime != 0 {
		t.Errorf("empty log: f13=%v f14=%v", rep.FidelityByViolations, rep.FidelityByTime)
	}
}

func TestEvaluateTemporalStaticObject(t *testing.T) {
	static := &trace.Trace{Name: "s", Kind: trace.Temporal, Duration: time.Hour}
	log := []Refresh{{At: at(0)}, {At: at(30 * time.Minute)}}
	rep := EvaluateTemporal(static, log, 5*time.Minute, time.Hour)
	if rep.Violations != 0 || rep.OutOfSync != 0 {
		t.Error("static object can never be out of sync")
	}
}

func valTrace() *trace.Trace {
	return &trace.Trace{
		Name: "v", Kind: trace.Value, Duration: time.Hour, InitialValue: 100,
		Updates: []trace.Update{
			{At: 10 * time.Minute, Value: 101},
			{At: 20 * time.Minute, Value: 99.5},
		},
	}
}

// TestEvaluateValueHandComputed: initial 100, updates 10m→101, 20m→99.5;
// polls at 0/15/30m; Δv = 1.0.
func TestEvaluateValueHandComputed(t *testing.T) {
	log := []Refresh{
		{At: at(0), Value: 100},
		{At: at(15 * time.Minute), Modified: true, Version: 1, Value: 101},
		{At: at(30 * time.Minute), Modified: true, Version: 2, Value: 99.5},
	}
	rep := EvaluateValue(valTrace(), log, 1.0, time.Hour)
	if rep.Polls != 3 {
		t.Errorf("Polls = %d", rep.Polls)
	}
	// Poll@15: |101−100| = 1 ≥ 1 → violation. Poll@30: |99.5−101| = 1.5
	// → violation.
	if rep.Violations != 2 {
		t.Errorf("Violations = %d, want 2", rep.Violations)
	}
	// Out of sync over [10m,15m) and [20m,30m) → 15m total.
	if rep.OutOfSync != 15*time.Minute {
		t.Errorf("OutOfSync = %v, want 15m", rep.OutOfSync)
	}
	if !almostEqual(rep.FidelityByViolations, 1.0/3.0) {
		t.Errorf("f13 = %v", rep.FidelityByViolations)
	}
	if !almostEqual(rep.FidelityByTime, 0.75) {
		t.Errorf("f14 = %v", rep.FidelityByTime)
	}
}

func TestEvaluateValueWithinTolerance(t *testing.T) {
	// Δv = 2: the same scenario never drifts by 2.
	log := []Refresh{
		{At: at(0), Value: 100},
		{At: at(15 * time.Minute), Modified: true, Value: 101},
		{At: at(30 * time.Minute), Modified: true, Value: 99.5},
	}
	rep := EvaluateValue(valTrace(), log, 2.0, time.Hour)
	if rep.Violations != 0 || rep.OutOfSync != 0 {
		t.Errorf("violations=%d outSync=%v, want clean", rep.Violations, rep.OutOfSync)
	}
}

func mutualTraces() (*trace.Trace, *trace.Trace) {
	trA := &trace.Trace{
		Name: "a", Kind: trace.Temporal, Duration: time.Hour,
		Updates: []trace.Update{{At: 10 * time.Minute}, {At: 40 * time.Minute}},
	}
	trB := &trace.Trace{
		Name: "b", Kind: trace.Temporal, Duration: time.Hour,
		Updates: []trace.Update{{At: 12 * time.Minute}, {At: 30 * time.Minute}},
	}
	return trA, trB
}

// TestEvaluateMutualTemporalHandComputed: A updates 10/40m, B updates
// 12/30m; A polled 0/15/50m, B polled 0/13m; δ = 5m.
func TestEvaluateMutualTemporalHandComputed(t *testing.T) {
	trA, trB := mutualTraces()
	logA := []Refresh{{At: at(0)}, {At: at(15 * time.Minute)}, {At: at(50 * time.Minute)}}
	logB := []Refresh{{At: at(0)}, {At: at(13 * time.Minute), Triggered: true}}
	rep := EvaluateMutualTemporal([]*trace.Trace{trA, trB}, [][]Refresh{logA, logB}, 5*time.Minute, time.Hour)

	if rep.Members != 2 || rep.Polls != 5 {
		t.Errorf("Members/Polls = %d/%d, want 2/5", rep.Members, rep.Polls)
	}
	if rep.TriggeredPolls != 1 {
		t.Errorf("TriggeredPolls = %d, want 1", rep.TriggeredPolls)
	}
	// Only the refresh of A at 50m creates a violation: A's cached
	// version is then valid [40m,∞) while B's is [12m,30m) → distance
	// 10m > δ. All earlier states overlap or are within 5m.
	if rep.Violations != 1 {
		t.Errorf("Violations = %d, want 1", rep.Violations)
	}
	if rep.OutOfSync != 10*time.Minute { // from 50m to the 60m horizon
		t.Errorf("OutOfSync = %v, want 10m", rep.OutOfSync)
	}
	if !almostEqual(rep.FidelityByViolations, 0.8) {
		t.Errorf("f13 = %v, want 0.8", rep.FidelityByViolations)
	}
	if !almostEqual(rep.FidelityByTime, 1-10.0/60.0) {
		t.Errorf("f14 = %v", rep.FidelityByTime)
	}
}

// TestEvaluateMutualTemporalCreditsSyncInstants: the hand-computed pair
// above, plus one sync instant of B at A's 50m poll (the channel vouched
// for B then). It clears the sync violation that poll caused and, as a
// refresh instant, moves B's interval to [30m,∞), ending the interval
// violation too; Polls and TriggeredPolls do not count it.
func TestEvaluateMutualTemporalCreditsSyncInstants(t *testing.T) {
	trA, trB := mutualTraces()
	logA := []Refresh{{At: at(0)}, {At: at(15 * time.Minute), Modified: true}, {At: at(50 * time.Minute), Modified: true}}
	logB := []Refresh{{At: at(0)}, {At: at(13 * time.Minute), Modified: true, Triggered: true}}
	before := EvaluateMutualTemporal([]*trace.Trace{trA, trB}, [][]Refresh{logA, logB}, 5*time.Minute, time.Hour)
	if before.SyncViolations != 1 || before.Violations != 1 {
		t.Fatalf("test premise: A@50m violates both semantics without the sync instant: %+v", before)
	}

	logB = append(logB, Refresh{At: at(50 * time.Minute), Sync: true})
	rep := EvaluateMutualTemporal([]*trace.Trace{trA, trB}, [][]Refresh{logA, logB}, 5*time.Minute, time.Hour)
	if rep.Polls != before.Polls || rep.TriggeredPolls != before.TriggeredPolls {
		t.Errorf("Polls/TriggeredPolls = %d/%d, want %d/%d: a sync instant is not a poll",
			rep.Polls, rep.TriggeredPolls, before.Polls, before.TriggeredPolls)
	}
	if rep.SyncViolations != 0 || rep.FidelityBySync != 1 {
		t.Errorf("SyncViolations = %d (fSync %v), want the sync instant credited", rep.SyncViolations, rep.FidelityBySync)
	}
	if rep.Violations != 0 || rep.OutOfSync != 0 {
		t.Errorf("Violations = %d, OutOfSync = %v, want B's interval moved at 50m", rep.Violations, rep.OutOfSync)
	}
}

func TestEvaluateMutualTemporalSynchronizedPollsPerfect(t *testing.T) {
	trA, trB := mutualTraces()
	// Both polled together frequently: intervals always overlap within δ.
	var logA, logB []Refresh
	for at0 := time.Duration(0); at0 <= time.Hour; at0 += 2 * time.Minute {
		logA = append(logA, Refresh{At: at(at0)})
		logB = append(logB, Refresh{At: at(at0)})
	}
	rep := EvaluateMutualTemporal([]*trace.Trace{trA, trB}, [][]Refresh{logA, logB}, 5*time.Minute, time.Hour)
	if rep.Violations != 0 || rep.OutOfSync != 0 {
		t.Errorf("synchronized polling must be perfectly consistent: %+v", rep)
	}
}

func TestEvaluateMutualTemporalZeroDelta(t *testing.T) {
	// δ = 0 demands the versions coexisted: A's [40,∞) vs B's [12,30)
	// never coexists; even A's [10,40) vs B's [0,12) only touches at
	// t=12 via distance 0? No: [10,40) and [0,12) overlap over [10,12).
	trA, trB := mutualTraces()
	logA := []Refresh{{At: at(0)}, {At: at(15 * time.Minute)}}
	logB := []Refresh{{At: at(0)}}
	rep := EvaluateMutualTemporal([]*trace.Trace{trA, trB}, [][]Refresh{logA, logB}, 0, time.Hour)
	// After A@15m: ivA=[10,40) ivB=[0,12): overlap → distance 0 ≤ 0: in
	// sync. No violations despite δ=0.
	if rep.Violations != 0 {
		t.Errorf("Violations = %d, want 0", rep.Violations)
	}
}

func TestEvaluateMutualTemporalEmptyLog(t *testing.T) {
	trA, trB := mutualTraces()
	rep := EvaluateMutualTemporal([]*trace.Trace{trA, trB}, [][]Refresh{nil, nil}, time.Minute, time.Hour)
	if rep.FidelityByViolations != 1 || rep.FidelityByTime != 0 {
		t.Errorf("empty logs: %+v", rep)
	}
}

func mutualValueTraces() (*trace.Trace, *trace.Trace) {
	trA := &trace.Trace{
		Name: "a", Kind: trace.Value, Duration: time.Hour, InitialValue: 10,
		Updates: []trace.Update{{At: 10 * time.Minute, Value: 12}},
	}
	trB := &trace.Trace{
		Name: "b", Kind: trace.Value, Duration: time.Hour, InitialValue: 5,
		Updates: []trace.Update{{At: 30 * time.Minute, Value: 9}},
	}
	return trA, trB
}

// TestEvaluateMutualValueHandComputed: A initial 10 → 12@10m; B initial
// 5 → 9@30m; A polled 0/20m, B polled 0/40m; f = difference, δ = 1.5.
func TestEvaluateMutualValueHandComputed(t *testing.T) {
	trA, trB := mutualValueTraces()
	logA := []Refresh{{At: at(0), Value: 10}, {At: at(20 * time.Minute), Value: 12}}
	logB := []Refresh{{At: at(0), Value: 5}, {At: at(40 * time.Minute), Value: 9}}
	rep := EvaluateMutualValue(trA, trB, logA, logB, core.DifferenceFunc{}, 1.5, time.Hour)

	if rep.Polls != 4 {
		t.Errorf("Polls = %d, want 4", rep.Polls)
	}
	// Server f: 5 on [0,10), 7 on [10,30), 3 on [30,60]. Proxy f: 5 on
	// [0,20), 7 on [20,40), 3 from 40. Drift ≥ 1.5 over [10,20) and
	// [30,40). Each ends at a refresh that sees the drift → 2
	// violations.
	if rep.Violations != 2 {
		t.Errorf("Violations = %d, want 2", rep.Violations)
	}
	if rep.OutOfSync != 20*time.Minute {
		t.Errorf("OutOfSync = %v, want 20m", rep.OutOfSync)
	}
	if !almostEqual(rep.FidelityByViolations, 0.5) {
		t.Errorf("f13 = %v, want 0.5", rep.FidelityByViolations)
	}
	if !almostEqual(rep.FidelityByTime, 1-20.0/60.0) {
		t.Errorf("f14 = %v", rep.FidelityByTime)
	}
}

func TestEvaluateMutualValueCommonModeIgnored(t *testing.T) {
	// Both values jump by +100 at 10m; the difference never moves.
	trA := &trace.Trace{Name: "a", Kind: trace.Value, Duration: time.Hour, InitialValue: 10,
		Updates: []trace.Update{{At: 10 * time.Minute, Value: 110}}}
	trB := &trace.Trace{Name: "b", Kind: trace.Value, Duration: time.Hour, InitialValue: 5,
		Updates: []trace.Update{{At: 10 * time.Minute, Value: 105}}}
	logA := []Refresh{{At: at(0), Value: 10}}
	logB := []Refresh{{At: at(0), Value: 5}}
	rep := EvaluateMutualValue(trA, trB, logA, logB, core.DifferenceFunc{}, 1.0, time.Hour)
	if rep.Violations != 0 || rep.OutOfSync != 0 {
		t.Errorf("common-mode movement must not violate M_v: %+v", rep)
	}
}

func TestEvaluateMutualValueOtherFuncs(t *testing.T) {
	// With SumFunc the same common-mode scenario drifts by 200.
	trA := &trace.Trace{Name: "a", Kind: trace.Value, Duration: time.Hour, InitialValue: 10,
		Updates: []trace.Update{{At: 10 * time.Minute, Value: 110}}}
	trB := &trace.Trace{Name: "b", Kind: trace.Value, Duration: time.Hour, InitialValue: 5,
		Updates: []trace.Update{{At: 10 * time.Minute, Value: 105}}}
	logA := []Refresh{{At: at(0), Value: 10}}
	logB := []Refresh{{At: at(0), Value: 5}}
	rep := EvaluateMutualValue(trA, trB, logA, logB, core.SumFunc{}, 1.0, time.Hour)
	if rep.OutOfSync != 50*time.Minute {
		t.Errorf("OutOfSync = %v, want 50m (drift from 10m to horizon)", rep.OutOfSync)
	}
}

func TestEvaluateMutualValuePairPollSingleViolation(t *testing.T) {
	// A pair poll refreshes both objects at the same instant; the
	// violation at that instant must be counted once, not twice.
	trA, trB := mutualValueTraces()
	logA := []Refresh{{At: at(0), Value: 10}, {At: at(20 * time.Minute), Value: 12}}
	logB := []Refresh{{At: at(0), Value: 5}, {At: at(20 * time.Minute), Value: 5}}
	rep := EvaluateMutualValue(trA, trB, logA, logB, core.DifferenceFunc{}, 1.5, time.Hour)
	// Drift over [10,20) is 2 ≥ 1.5 → exactly one violation at 20m.
	// From 30m (B's update) drift is 4 with no further poll → out to
	// horizon.
	if rep.Violations != 1 {
		t.Errorf("Violations = %d, want 1 (deduplicated)", rep.Violations)
	}
}

func TestFidelityClamps(t *testing.T) {
	if fidelityRatio(10, 5) != 0 {
		t.Error("fidelity must clamp at 0")
	}
	if fidelityRatio(0, 0) != 1 {
		t.Error("no polls → fidelity 1")
	}
	if fidelityTime(2*time.Hour, time.Hour) != 0 {
		t.Error("time fidelity must clamp at 0")
	}
	if fidelityTime(0, 0) != 1 {
		t.Error("zero horizon → fidelity 1")
	}
}

func TestReportStrings(t *testing.T) {
	if (TemporalReport{}).String() == "" ||
		(MutualTemporalReport{}).String() == "" ||
		(MutualValueReport{}).String() == "" {
		t.Error("report strings must not be empty")
	}
}

func TestMeanAbsoluteDriftHandComputed(t *testing.T) {
	// A: 10 → 12 @10m. B: constant 5. Proxy refreshes A at 0 (10) and
	// 30m (12); B at 0 (5). f = A − B.
	trA := &trace.Trace{Name: "a", Kind: trace.Value, Duration: time.Hour, InitialValue: 10,
		Updates: []trace.Update{{At: 10 * time.Minute, Value: 12}}}
	trB := &trace.Trace{Name: "b", Kind: trace.Value, Duration: time.Hour, InitialValue: 5}
	logA := []Refresh{{At: at(0), Value: 10}, {At: at(30 * time.Minute), Value: 12}}
	logB := []Refresh{{At: at(0), Value: 5}}
	got := MeanAbsoluteDrift(trA, trB, logA, logB, core.DifferenceFunc{}, time.Hour)
	// Drift: 0 over [0,10m), 2 over [10m,30m), 0 after → integral = 40m·$ /
	// 60m = $0.666…
	want := 2.0 * 20 / 60
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("MeanAbsoluteDrift = %v, want %v", got, want)
	}
}

func TestMeanAbsoluteDriftDegenerate(t *testing.T) {
	trA, trB := mutualValueTraces()
	if MeanAbsoluteDrift(trA, trB, nil, nil, core.DifferenceFunc{}, time.Hour) != 0 {
		t.Error("empty logs must yield 0")
	}
	logA := []Refresh{{At: at(0), Value: 10}}
	if MeanAbsoluteDrift(trA, trB, logA, logA, core.DifferenceFunc{}, 0) != 0 {
		t.Error("zero horizon must yield 0")
	}
}

func TestMeanAbsoluteDriftPerfectTracking(t *testing.T) {
	// Proxy refreshes at every server update instant: drift is zero
	// except exactly at instants (measure-zero) → 0.
	trA, trB := mutualValueTraces()
	logA := []Refresh{{At: at(0), Value: 10}, {At: at(10 * time.Minute), Value: 12}}
	logB := []Refresh{{At: at(0), Value: 5}, {At: at(30 * time.Minute), Value: 9}}
	if got := MeanAbsoluteDrift(trA, trB, logA, logB, core.DifferenceFunc{}, time.Hour); got != 0 {
		t.Errorf("perfect tracking drift = %v, want 0", got)
	}
}

func TestEvaluateValueEmptyAndStatic(t *testing.T) {
	rep := EvaluateValue(valTrace(), nil, 1.0, time.Hour)
	if rep.FidelityByViolations != 1 || rep.FidelityByTime != 0 {
		t.Errorf("empty log: %+v", rep)
	}
	static := &trace.Trace{Name: "s", Kind: trace.Value, Duration: time.Hour, InitialValue: 100}
	log := []Refresh{{At: at(0), Value: 100}}
	rep = EvaluateValue(static, log, 0.5, time.Hour)
	if rep.Violations != 0 || rep.OutOfSync != 0 {
		t.Errorf("static value object: %+v", rep)
	}
}

func TestEvaluateMutualValueEmptyLogs(t *testing.T) {
	trA, trB := mutualValueTraces()
	rep := EvaluateMutualValue(trA, trB, nil, nil, core.DifferenceFunc{}, 1.0, time.Hour)
	if rep.FidelityByViolations != 1 || rep.FidelityByTime != 0 {
		t.Errorf("empty logs: %+v", rep)
	}
}
