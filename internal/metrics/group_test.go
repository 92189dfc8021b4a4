package metrics

import (
	"testing"
	"time"

	"broadway/internal/trace"
)

func groupTraces() []*trace.Trace {
	return []*trace.Trace{
		{Name: "a", Kind: trace.Temporal, Duration: time.Hour,
			Updates: []trace.Update{{At: 10 * time.Minute}, {At: 40 * time.Minute}}},
		{Name: "b", Kind: trace.Temporal, Duration: time.Hour,
			Updates: []trace.Update{{At: 12 * time.Minute}, {At: 30 * time.Minute}}},
		{Name: "c", Kind: trace.Temporal, Duration: time.Hour,
			Updates: []trace.Update{{At: 11 * time.Minute}}},
	}
}

// TestGroupThreeMembers: a hand-checked 3-object scenario. The third
// member is never refreshed after its initial fetch; once the others move
// on, the group goes out of sync.
func TestGroupThreeMembers(t *testing.T) {
	trs := groupTraces()
	logs := [][]Refresh{
		{{At: at(0)}, {At: at(15 * time.Minute), Modified: true}, {At: at(45 * time.Minute), Modified: true}},
		{{At: at(0)}, {At: at(15 * time.Minute), Modified: true}},
		{{At: at(0)}}, // c: initial fetch only; its cached copy dies at 11m
	}
	rep := EvaluateMutualTemporal(trs, logs, 5*time.Minute, time.Hour)

	if rep.Members != 3 || rep.Polls != 6 {
		t.Errorf("members/polls = %d/%d", rep.Members, rep.Polls)
	}
	// At 15m: a=[10,40) b=[12,30) c=[0,11). Max pairwise distance:
	// a-c = 0 gap? a starts 10, c ends 11 → overlap... [10,40) vs
	// [0,11): overlap [10,11) → 0. b-c: [12,30) vs [0,11) → 1m ≤ 5m.
	// In sync. At 45m: a=[40,∞) b=[12,30) c=[0,11): a-c distance 29m →
	// violated.
	if rep.Violations != 1 {
		t.Errorf("Violations = %d, want 1", rep.Violations)
	}
	if rep.OutOfSync != 15*time.Minute { // from 45m to horizon
		t.Errorf("OutOfSync = %v, want 15m", rep.OutOfSync)
	}
	// Sync semantics: detection polls are a@15m, a@45m, b@15m. c has
	// polls only at 0 → all three lack a c-poll within 5m → 3.
	if rep.SyncViolations != 3 {
		t.Errorf("SyncViolations = %d, want 3", rep.SyncViolations)
	}
}

// TestGroupCreditsSyncInstants: the three-member scenario above, with the
// channel vouching for c at both of a's updates and for b at a's second.
// Every member then has a poll or sync instant within δ of each
// update-detecting poll, and the sync instants move b's and c's intervals,
// so both semantics read clean; Polls and TriggeredPolls do not count them.
func TestGroupCreditsSyncInstants(t *testing.T) {
	trs := groupTraces()
	logs := [][]Refresh{
		{{At: at(0)}, {At: at(15 * time.Minute), Modified: true}, {At: at(45 * time.Minute), Modified: true}},
		{{At: at(0)}, {At: at(15 * time.Minute), Modified: true}, {At: at(45 * time.Minute), Sync: true}},
		{{At: at(0)}, {At: at(15 * time.Minute), Sync: true}, {At: at(45 * time.Minute), Sync: true}},
	}
	rep := EvaluateMutualTemporal(trs, logs, 5*time.Minute, time.Hour)
	if rep.Polls != 6 || rep.TriggeredPolls != 0 {
		t.Errorf("Polls/TriggeredPolls = %d/%d, want 6/0: sync instants are not polls", rep.Polls, rep.TriggeredPolls)
	}
	if rep.SyncViolations != 0 {
		t.Errorf("SyncViolations = %d, want the sync instants credited", rep.SyncViolations)
	}
	if rep.Violations != 0 || rep.OutOfSync != 0 {
		t.Errorf("Violations = %d, OutOfSync = %v, want b and c moved at their sync instants", rep.Violations, rep.OutOfSync)
	}
}

func TestGroupSynchronizedPerfect(t *testing.T) {
	trs := groupTraces()
	var logs [][]Refresh
	for range trs {
		var log []Refresh
		for at0 := time.Duration(0); at0 <= time.Hour; at0 += 2 * time.Minute {
			log = append(log, Refresh{At: at(at0), Modified: true})
		}
		logs = append(logs, log)
	}
	rep := EvaluateMutualTemporal(trs, logs, 5*time.Minute, time.Hour)
	if rep.SyncViolations != 0 || rep.Violations != 0 || rep.OutOfSync != 0 {
		t.Errorf("synchronized group must be perfect: %+v", rep)
	}
	if rep.FidelityBySync != 1 || rep.FidelityByViolations != 1 || rep.FidelityByTime != 1 {
		t.Errorf("fidelities = %v/%v/%v", rep.FidelityBySync, rep.FidelityByViolations, rep.FidelityByTime)
	}
}

func TestGroupDegenerateInputs(t *testing.T) {
	trs := groupTraces()
	// Mismatched lengths.
	rep := EvaluateMutualTemporal(trs, [][]Refresh{{}}, time.Minute, time.Hour)
	if rep.FidelityBySync != 1 {
		t.Error("degenerate input must return neutral report")
	}
	// One empty log.
	rep = EvaluateMutualTemporal(trs[:2], [][]Refresh{{{At: at(0)}}, {}}, time.Minute, time.Hour)
	if rep.FidelityByTime != 0 {
		t.Error("empty member log: group never evaluable, fully out of sync")
	}
	// Single member.
	rep = EvaluateMutualTemporal(trs[:1], [][]Refresh{{{At: at(0)}}}, time.Minute, time.Hour)
	if rep.FidelityByViolations != 1 {
		t.Error("single member is trivially consistent")
	}
}
