// Package metrics computes the paper's evaluation metrics exactly, as a
// post-hoc pass over (a) the refresh log the proxy records and (b) the
// ground-truth workload trace. The paper's two fidelity definitions are
// both implemented:
//
//	Eq. 13: f = 1 − violations/polls          (per-poll fidelity)
//	Eq. 14: f = 1 − outOfSyncTime/duration    (time-weighted fidelity)
//
// Because the cached copy changes only at refresh instants and the server
// copy only at trace updates, every metric here is an exact sweep over
// those events — no sampling error.
package metrics

import (
	"fmt"
	"sort"
	"time"

	"broadway/internal/core"
	"broadway/internal/simtime"
	"broadway/internal/stats"
	"broadway/internal/trace"
)

// Refresh is one entry of a proxy's refresh log: the protocol-visible
// result of one poll, as recorded by the proxy.
type Refresh struct {
	// At is the server-side instant the poll observed (the instant the
	// refreshed copy is consistent with).
	At simtime.Time
	// Modified reports whether the poll found a new version.
	Modified bool
	// Version is the version obtained.
	Version int
	// Value is the value obtained (value traces).
	Value float64
	// Triggered marks polls requested by a mutual-consistency
	// controller rather than the object's own schedule.
	Triggered bool
	// Sync marks a synchronisation instant that is not a poll: the copy
	// was known current at At without a request — a push channel's lease
	// vouched for it when a group member's update ran §3.2 triggering.
	// The mutual temporal evaluators credit it as a sibling's poll within
	// δ and as a refresh instant of the interval semantics, but never
	// count it in Polls or TriggeredPolls, so the fidelity ratios are not
	// flattered by instants nobody paid for. The per-object evaluators
	// take poll logs only.
	Sync bool
}

// countPolls returns how many of log's entries are polls, and how many of
// those a mutual-consistency controller triggered; sync instants are
// neither.
func countPolls(log []Refresh) (polls, triggered int) {
	for _, r := range log {
		if r.Sync {
			continue
		}
		polls++
		if r.Triggered {
			triggered++
		}
	}
	return polls, triggered
}

// TemporalReport summarizes Δt-consistency metrics for one object.
type TemporalReport struct {
	// Polls is the number of polls in the log.
	Polls int
	// Violations is the number of polls that found the guarantee had
	// been violated since the previous poll (Eq. 13 numerator).
	Violations int
	// OutOfSync is the total time the cached copy was more than Δ
	// behind the server (Eq. 14 numerator).
	OutOfSync time.Duration
	// Horizon is the evaluation window length.
	Horizon time.Duration
	// FidelityByViolations is Eq. 13.
	FidelityByViolations float64
	// FidelityByTime is Eq. 14.
	FidelityByTime float64
}

// EvaluateTemporal computes the Δt report for one object from its trace
// and refresh log. delta is the Δt tolerance; horizon the evaluation
// window end (typically the trace duration). The log must be sorted by
// time (proxies record it in order); the first entry is the initial fetch.
func EvaluateTemporal(tr *trace.Trace, log []Refresh, delta, horizon time.Duration) TemporalReport {
	rep := TemporalReport{Polls: len(log), Horizon: horizon}
	if len(log) == 0 {
		rep.FidelityByViolations = 1
		rep.FidelityByTime = 0
		rep.OutOfSync = horizon
		return rep
	}

	// Violations at polls: for each consecutive pair of polls, the
	// guarantee was violated iff the first update after the earlier
	// poll happened more than Δ before the later poll (paper Fig. 1).
	for i := 1; i < len(log); i++ {
		prev, cur := log[i-1].At.Duration(), log[i].At.Duration()
		if first, ok := tr.NextUpdateAfter(prev); ok && first <= cur && cur-first > delta {
			rep.Violations++
		}
	}

	// Out-of-sync time: after a poll at p obtaining the version whose
	// validity ends at e, the copy goes stale at e and out of
	// Δ-tolerance at e+Δ; it stays out of sync until the next poll.
	for i := 0; i < len(log); i++ {
		p := log[i].At.Duration()
		windowEnd := horizon
		if i+1 < len(log) {
			windowEnd = log[i+1].At.Duration()
		}
		if e, ok := tr.NextUpdateAfter(p); ok {
			outFrom := e + delta
			if outFrom < windowEnd {
				rep.OutOfSync += windowEnd - outFrom
			}
		}
	}

	rep.FidelityByViolations = fidelityRatio(rep.Violations, rep.Polls)
	rep.FidelityByTime = fidelityTime(rep.OutOfSync, horizon)
	return rep
}

// ValueReport summarizes Δv-consistency metrics for one object.
type ValueReport struct {
	Polls                int
	Violations           int
	OutOfSync            time.Duration
	Horizon              time.Duration
	FidelityByViolations float64
	FidelityByTime       float64
}

// EvaluateValue computes the Δv report for one object: the cached value
// must stay within delta of the server's.
func EvaluateValue(tr *trace.Trace, log []Refresh, delta float64, horizon time.Duration) ValueReport {
	rep := ValueReport{Polls: len(log), Horizon: horizon}
	if len(log) == 0 {
		rep.FidelityByViolations = 1
		rep.FidelityByTime = 0
		rep.OutOfSync = horizon
		return rep
	}

	// Violations at polls: the poll reveals the server value; compare
	// with the cached value just before the refresh.
	for i := 1; i < len(log); i++ {
		cachedBefore := log[i-1].Value
		serverNow := tr.ValueAt(log[i].At.Duration())
		if abs(serverNow-cachedBefore) >= delta {
			rep.Violations++
		}
	}

	// Out-of-sync time: sweep server updates and proxy refreshes.
	rep.OutOfSync = valueOutOfSync(tr, log, delta, horizon,
		func(sv, pv float64) bool { return abs(sv-pv) >= delta })

	rep.FidelityByViolations = fidelityRatio(rep.Violations, rep.Polls)
	rep.FidelityByTime = fidelityTime(rep.OutOfSync, horizon)
	return rep
}

// valueOutOfSync integrates the time a predicate over (serverValue,
// proxyValue) holds, for one object.
func valueOutOfSync(tr *trace.Trace, log []Refresh, delta float64, horizon time.Duration, out func(sv, pv float64) bool) time.Duration {
	type event struct {
		at      time.Duration
		refresh int // index into log, or -1 for a server update
	}
	var events []event
	for _, u := range tr.Updates {
		if u.At <= horizon {
			events = append(events, event{at: u.At, refresh: -1})
		}
	}
	for i := range log {
		events = append(events, event{at: log[i].At.Duration(), refresh: i})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })

	// Before the first refresh the proxy holds nothing; evaluation
	// starts at the initial fetch.
	if len(log) == 0 {
		return horizon
	}
	start := log[0].At.Duration()
	proxyVal := log[0].Value
	tl := stats.NewBoolTimeline(start, false)
	for _, ev := range events {
		if ev.at < start || ev.at > horizon {
			continue
		}
		if ev.refresh >= 0 {
			proxyVal = log[ev.refresh].Value
		}
		serverVal := tr.ValueAt(ev.at)
		tl.Set(ev.at, out(serverVal, proxyVal))
	}
	return tl.TrueTotal(horizon)
}

// MutualTemporalReport summarizes M_t-consistency metrics for a pair.
//
// Two violation semantics are reported side by side:
//
//   - Sync (poll-phase) semantics — the counting the paper's §3.2
//     mechanism is built around: when a poll detects an update to one
//     object, the pair is considered violated unless the sibling has a
//     poll — or a sync instant (see Refresh.Sync) — within δ of that
//     instant ("an additional poll is triggered for an object only if its
//     next/previous poll instant is more than δ time units away"). Under
//     this metric the triggered-polls approach has fidelity 1 by
//     construction, exactly as the paper states.
//   - Interval semantics — the literal reading of Eq. 4: the cached
//     versions' server-validity intervals must come within δ of each
//     other. This is a weaker requirement at measurement time (a cached
//     copy that is still current never violates it) and is reported as a
//     stricter ground-truth cross-check.
type MutualTemporalReport struct {
	// Polls counts polls of both objects combined; sync instants are not
	// polls.
	Polls int
	// TriggeredPolls counts the subset requested by the mutual
	// controller.
	TriggeredPolls int
	// SyncViolations counts update-detecting polls with no sibling poll
	// or sync instant within δ (poll-phase semantics).
	SyncViolations int
	// Violations counts refresh instants after which the pair's cached
	// versions' validity intervals were more than δ apart (interval
	// semantics).
	Violations int
	// OutOfSync is the total time the pair spent mutually inconsistent
	// under the interval semantics.
	OutOfSync time.Duration
	// Horizon is the evaluation window length.
	Horizon time.Duration
	// FidelityBySync is Eq. 13 with SyncViolations — the figure the
	// paper's Fig. 5(b) reports.
	FidelityBySync float64
	// FidelityByViolations is Eq. 13 with interval-semantics Violations.
	FidelityByViolations float64
	// FidelityByTime is Eq. 14 under the interval semantics.
	FidelityByTime float64
}

// EvaluateMutualTemporal computes M_t metrics for a pair of objects per
// Eq. 4: the cached versions are mutually consistent iff the distance
// between their server-validity intervals is at most δ.
func EvaluateMutualTemporal(trA, trB *trace.Trace, logA, logB []Refresh, delta, horizon time.Duration) MutualTemporalReport {
	rep := MutualTemporalReport{Horizon: horizon}
	for _, log := range [][]Refresh{logA, logB} {
		polls, triggered := countPolls(log)
		rep.Polls += polls
		rep.TriggeredPolls += triggered
	}
	if len(logA) == 0 || len(logB) == 0 {
		rep.FidelityBySync = 1
		rep.FidelityByViolations = 1
		rep.FidelityByTime = 0
		rep.OutOfSync = horizon
		return rep
	}

	rep.SyncViolations = syncViolations(logA, logB, delta, horizon) +
		syncViolations(logB, logA, delta, horizon)

	type event struct {
		at time.Duration
		a  bool // refresh of A (else B)
		i  int  // log index
	}
	var events []event
	for i := range logA {
		events = append(events, event{at: logA[i].At.Duration(), a: true, i: i})
	}
	for i := range logB {
		events = append(events, event{at: logB[i].At.Duration(), a: false, i: i})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })

	validity := func(tr *trace.Trace, at time.Duration) simtime.Interval {
		s, e := tr.ValidityInterval(at)
		end := simtime.MaxTime
		if e != time.Duration(1<<63-1) {
			end = simtime.At(e)
		}
		return simtime.Interval{Start: simtime.At(s), End: end}
	}

	start := simtime.Max(simtime.At(events[0].at), 0)
	ivA := validity(trA, logA[0].At.Duration())
	ivB := validity(trB, logB[0].At.Duration())
	haveA, haveB := false, false
	tl := stats.NewBoolTimeline(start.Duration(), false)
	// Refreshes at the same instant (a triggered poll or a sync instant
	// synchronizing the sibling) apply atomically: the state is evaluated
	// once per distinct instant, after all refreshes at it.
	for idx := 0; idx < len(events); idx++ {
		ev := events[idx]
		if ev.at > horizon {
			continue
		}
		if ev.a {
			ivA = validity(trA, logA[ev.i].At.Duration())
			haveA = true
		} else {
			ivB = validity(trB, logB[ev.i].At.Duration())
			haveB = true
		}
		if idx+1 < len(events) && events[idx+1].at == ev.at {
			continue // more refreshes at this instant
		}
		if !haveA || !haveB {
			continue
		}
		violated := ivA.Distance(ivB) > delta
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

// syncViolations counts the update-detecting polls of logX (beyond the
// initial fetch) that have no logY poll or sync instant within delta
// (poll-phase semantics of §3.2). Both logs must be sorted by time.
func syncViolations(logX, logY []Refresh, delta, horizon time.Duration) int {
	yTimes := make([]time.Duration, len(logY))
	for i := range logY {
		yTimes[i] = logY[i].At.Duration()
	}
	count := 0
	for i := 1; i < len(logX); i++ {
		if !logX[i].Modified || logX[i].Sync || logX[i].At.Duration() > horizon {
			continue
		}
		if !hasPollWithin(yTimes, logX[i].At.Duration(), delta) {
			count++
		}
	}
	return count
}

// hasPollWithin reports whether sorted contains an instant within delta
// of at.
func hasPollWithin(sorted []time.Duration, at, delta time.Duration) bool {
	idx := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= at })
	if idx < len(sorted) && sorted[idx]-at <= delta {
		return true
	}
	if idx > 0 && at-sorted[idx-1] <= delta {
		return true
	}
	return false
}

// MutualValueReport summarizes M_v-consistency metrics for a pair.
type MutualValueReport struct {
	Polls                int
	Violations           int
	OutOfSync            time.Duration
	Horizon              time.Duration
	FidelityByViolations float64
	FidelityByTime       float64
}

// EvaluateMutualValue computes M_v metrics for a pair per Eq. 5: the
// drift |f(S_a,S_b) − f(P_a,P_b)| must stay below δ. Violations are
// counted once per refresh instant (comparing the server's f against the
// cached f just before the refresh applies); polls count each server poll
// individually, so a pair poll contributes two.
func EvaluateMutualValue(trA, trB *trace.Trace, logA, logB []Refresh, f core.Func, delta float64, horizon time.Duration) MutualValueReport {
	rep := MutualValueReport{
		Polls:   len(logA) + len(logB),
		Horizon: horizon,
	}
	if len(logA) == 0 || len(logB) == 0 {
		rep.FidelityByViolations = 1
		rep.FidelityByTime = 0
		rep.OutOfSync = horizon
		return rep
	}

	const (
		evUpdate  = iota // server-side update (either object)
		evRefresh        // proxy refresh
	)
	type event struct {
		at   time.Duration
		kind int
		a    bool
		i    int
	}
	var events []event
	for _, u := range trA.Updates {
		if u.At <= horizon {
			events = append(events, event{at: u.At, kind: evUpdate})
		}
	}
	for _, u := range trB.Updates {
		if u.At <= horizon {
			events = append(events, event{at: u.At, kind: evUpdate})
		}
	}
	for i := range logA {
		events = append(events, event{at: logA[i].At.Duration(), kind: evRefresh, a: true, i: i})
	}
	for i := range logB {
		events = append(events, event{at: logB[i].At.Duration(), kind: evRefresh, a: false, i: i})
	}
	// Refreshes at the same instant as updates must apply after them:
	// the poll observes the post-update server state.
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return events[i].kind < events[j].kind
	})

	start := minDuration(logA[0].At.Duration(), logB[0].At.Duration())
	pA, pB := logA[0].Value, logB[0].Value
	// Before its first refresh, treat each cached value as the server's
	// value at the evaluation start (the initial fetch fills it).
	tl := stats.NewBoolTimeline(start, false)
	lastViolationAt := time.Duration(-1)
	for _, ev := range events {
		if ev.at < start || ev.at > horizon {
			continue
		}
		if ev.kind == evRefresh {
			// Count a violation once per refresh instant, against the
			// pre-refresh cached pair.
			drift := abs(f.Eval(trA.ValueAt(ev.at), trB.ValueAt(ev.at)) - f.Eval(pA, pB))
			if drift >= delta && ev.at != lastViolationAt {
				rep.Violations++
				lastViolationAt = ev.at
			}
			if ev.a {
				pA = logA[ev.i].Value
			} else {
				pB = logB[ev.i].Value
			}
		}
		drift := abs(f.Eval(trA.ValueAt(ev.at), trB.ValueAt(ev.at)) - f.Eval(pA, pB))
		tl.Set(ev.at, drift >= delta)
	}
	rep.OutOfSync = tl.TrueTotal(horizon)
	rep.FidelityByViolations = fidelityRatio(rep.Violations, rep.Polls)
	rep.FidelityByTime = fidelityTime(rep.OutOfSync, horizon)
	return rep
}

// MeanAbsoluteDrift integrates |f(S_a,S_b) − f(P_a,P_b)| over time and
// divides by the window length: the time-weighted average tracking error
// of the cached pair. Fig. 8 of the paper visualizes exactly this
// quantity; the scalar makes the visual comparison quantitative.
func MeanAbsoluteDrift(trA, trB *trace.Trace, logA, logB []Refresh, f core.Func, horizon time.Duration) float64 {
	if len(logA) == 0 || len(logB) == 0 || horizon <= 0 {
		return 0
	}
	type event struct {
		at   time.Duration
		kind int // 0 = update, 1 = refresh
		a    bool
		i    int
	}
	var events []event
	for _, u := range trA.Updates {
		if u.At <= horizon {
			events = append(events, event{at: u.At})
		}
	}
	for _, u := range trB.Updates {
		if u.At <= horizon {
			events = append(events, event{at: u.At})
		}
	}
	for i := range logA {
		events = append(events, event{at: logA[i].At.Duration(), kind: 1, a: true, i: i})
	}
	for i := range logB {
		events = append(events, event{at: logB[i].At.Duration(), kind: 1, a: false, i: i})
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return events[i].kind < events[j].kind
	})

	start := minDuration(logA[0].At.Duration(), logB[0].At.Duration())
	pA, pB := logA[0].Value, logB[0].Value
	prevAt := start
	drift := 0.0
	var integral float64
	for _, ev := range events {
		if ev.at < start || ev.at > horizon {
			continue
		}
		integral += drift * float64(ev.at-prevAt)
		prevAt = ev.at
		if ev.kind == 1 {
			if ev.a {
				pA = logA[ev.i].Value
			} else {
				pB = logB[ev.i].Value
			}
		}
		drift = abs(f.Eval(trA.ValueAt(ev.at), trB.ValueAt(ev.at)) - f.Eval(pA, pB))
	}
	integral += drift * float64(horizon-prevAt)
	return integral / float64(horizon-start)
}

// fidelityRatio is Eq. 13, clamped into [0, 1].
func fidelityRatio(violations, polls int) float64 {
	if polls == 0 {
		return 1
	}
	return stats.Clamp(1-float64(violations)/float64(polls), 0, 1)
}

// fidelityTime is Eq. 14, clamped into [0, 1].
func fidelityTime(outOfSync, horizon time.Duration) float64 {
	if horizon <= 0 {
		return 1
	}
	return stats.Clamp(1-float64(outOfSync)/float64(horizon), 0, 1)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func minDuration(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

// String renders a compact single-line summary.
func (r TemporalReport) String() string {
	return fmt.Sprintf("polls=%d violations=%d f13=%.3f f14=%.3f outSync=%v",
		r.Polls, r.Violations, r.FidelityByViolations, r.FidelityByTime, r.OutOfSync)
}

// String renders a compact single-line summary.
func (r MutualTemporalReport) String() string {
	return fmt.Sprintf("polls=%d triggered=%d fSync=%.3f f13=%.3f f14=%.3f",
		r.Polls, r.TriggeredPolls, r.FidelityBySync, r.FidelityByViolations, r.FidelityByTime)
}

// String renders a compact single-line summary.
func (r MutualValueReport) String() string {
	return fmt.Sprintf("polls=%d violations=%d f13=%.3f f14=%.3f",
		r.Polls, r.Violations, r.FidelityByViolations, r.FidelityByTime)
}
