package metrics

import (
	"sort"
	"time"

	"broadway/internal/simtime"
	"broadway/internal/stats"
	"broadway/internal/trace"
)

// GroupTemporalReport summarizes M_t-consistency metrics for a group of
// n ≥ 2 related objects. The paper defines mutual consistency for two
// objects and notes the definitions generalize to n (§2); the natural
// generalization used here requires *every pair* in the group to satisfy
// Eq. 4 — equivalently, the maximum pairwise validity-interval distance
// must stay within δ.
type GroupTemporalReport struct {
	// Members is the group size.
	Members int
	// Polls counts polls across all members; sync instants are not
	// polls.
	Polls int
	// TriggeredPolls counts controller-triggered polls.
	TriggeredPolls int
	// SyncViolations counts update-detecting polls for which some
	// member had no poll or sync instant within δ (poll-phase semantics,
	// generalized).
	SyncViolations int
	// Violations counts refresh instants after which some pair of
	// cached versions was more than δ apart (interval semantics).
	Violations int
	// OutOfSync is the total time the group spent mutually
	// inconsistent under the interval semantics.
	OutOfSync time.Duration
	// Horizon is the evaluation window length.
	Horizon time.Duration
	// FidelityBySync is Eq. 13 with SyncViolations.
	FidelityBySync float64
	// FidelityByViolations is Eq. 13 with interval-semantics Violations.
	FidelityByViolations float64
	// FidelityByTime is Eq. 14 under the interval semantics.
	FidelityByTime float64
}

// EvaluateMutualTemporalGroup computes M_t metrics for a group of n
// objects given their traces and refresh logs (parallel slices). All
// logs must be sorted by time.
func EvaluateMutualTemporalGroup(traces []*trace.Trace, logs [][]Refresh, delta, horizon time.Duration) GroupTemporalReport {
	n := len(traces)
	rep := GroupTemporalReport{Members: n, Horizon: horizon}
	if n != len(logs) || n < 2 {
		rep.FidelityBySync = 1
		rep.FidelityByViolations = 1
		rep.FidelityByTime = 1
		return rep
	}
	empty := false
	for i := range logs {
		polls, triggered := countPolls(logs[i])
		rep.Polls += polls
		rep.TriggeredPolls += triggered
		if len(logs[i]) == 0 {
			empty = true
		}
	}
	if empty {
		rep.FidelityBySync = 1
		rep.FidelityByViolations = 1
		rep.FidelityByTime = 0
		rep.OutOfSync = horizon
		return rep
	}

	// Poll-phase semantics: an update-detecting poll of member i
	// violates if any other member lacks a poll or sync instant within δ
	// of it.
	sortedTimes := make([][]time.Duration, n)
	for i := range logs {
		ts := make([]time.Duration, len(logs[i]))
		for j := range logs[i] {
			ts[j] = logs[i][j].At.Duration()
		}
		sortedTimes[i] = ts
	}
	for i := range logs {
		for j := 1; j < len(logs[i]); j++ {
			r := logs[i][j]
			if !r.Modified || r.Sync || r.At.Duration() > horizon {
				continue
			}
			for k := range logs {
				if k == i {
					continue
				}
				if !hasPollWithin(sortedTimes[k], r.At.Duration(), delta) {
					rep.SyncViolations++
					break
				}
			}
		}
	}

	// Interval semantics: sweep all refresh events; the group is
	// violated when the maximum pairwise distance exceeds δ. Events at
	// the same instant apply atomically.
	type event struct {
		at     time.Duration
		member int
		idx    int
	}
	var events []event
	for i := range logs {
		for j := range logs[i] {
			events = append(events, event{at: logs[i][j].At.Duration(), member: i, idx: j})
		}
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].at < events[b].at })

	validity := func(tr *trace.Trace, at time.Duration) simtime.Interval {
		s, e := tr.ValidityInterval(at)
		end := simtime.MaxTime
		if e != time.Duration(1<<63-1) {
			end = simtime.At(e)
		}
		return simtime.Interval{Start: simtime.At(s), End: end}
	}

	intervals := make([]simtime.Interval, n)
	have := make([]bool, n)
	tl := stats.NewBoolTimeline(events[0].at, false)
	for idx := 0; idx < len(events); idx++ {
		ev := events[idx]
		if ev.at > horizon {
			continue
		}
		intervals[ev.member] = validity(traces[ev.member], logs[ev.member][ev.idx].At.Duration())
		have[ev.member] = true
		if idx+1 < len(events) && events[idx+1].at == ev.at {
			continue
		}
		all := true
		for i := range have {
			if !have[i] {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		violated := false
		for i := 0; i < n && !violated; i++ {
			for j := i + 1; j < n; j++ {
				if intervals[i].Distance(intervals[j]) > delta {
					violated = true
					break
				}
			}
		}
		if violated {
			rep.Violations++
		}
		tl.Set(ev.at, violated)
	}
	rep.OutOfSync = tl.TrueTotal(horizon)
	rep.FidelityBySync = fidelityRatio(rep.SyncViolations, rep.Polls)
	rep.FidelityByViolations = fidelityRatio(rep.Violations, rep.Polls)
	rep.FidelityByTime = fidelityTime(rep.OutOfSync, horizon)
	return rep
}
