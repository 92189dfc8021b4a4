package stats

import (
	"fmt"
	"time"
)

// BoolTimeline accumulates the total time a boolean condition held, fed by
// state-change notifications. It backs the paper's out-of-sync-time
// fidelity metric (Eq. 14): f = 1 − (total out-of-sync time)/(trace
// duration).
//
// The zero value starts at instant 0 with the condition false; use
// NewBoolTimeline to start elsewhere.
type BoolTimeline struct {
	lastAt    time.Duration
	state     bool
	trueTotal time.Duration
	started   bool
}

// NewBoolTimeline returns a timeline beginning at the given offset with
// the given initial state.
func NewBoolTimeline(start time.Duration, state bool) *BoolTimeline {
	return &BoolTimeline{lastAt: start, state: state, started: true}
}

// Set records that the condition transitioned to state at the given
// offset. Instants must be nondecreasing; Set panics on regression since a
// time-weighted accumulator cannot un-count elapsed time.
func (b *BoolTimeline) Set(at time.Duration, state bool) {
	if !b.started {
		b.lastAt, b.started = at, true
	}
	if at < b.lastAt {
		panic(fmt.Sprintf("stats: BoolTimeline time regression: %v < %v", at, b.lastAt))
	}
	if b.state {
		b.trueTotal += at - b.lastAt
	}
	b.lastAt = at
	b.state = state
}

// TrueTotal returns the accumulated time the condition was true up to the
// given offset (which must be ≥ the last Set instant).
func (b *BoolTimeline) TrueTotal(now time.Duration) time.Duration {
	if !b.started || now < b.lastAt {
		return b.trueTotal
	}
	total := b.trueTotal
	if b.state {
		total += now - b.lastAt
	}
	return total
}

// State returns the current condition value.
func (b *BoolTimeline) State() bool { return b.state }

// Counter2h buckets event counts into fixed-width windows of simulated
// time. The paper's Fig. 4(a) plots "updates per 2 hours"; the window
// width is configurable.
type Counter2h struct {
	width  time.Duration
	counts map[int]int
	maxIdx int
}

// NewWindowCounter returns a counter with the given positive window width.
func NewWindowCounter(width time.Duration) *Counter2h {
	if width <= 0 {
		panic("stats: window width must be positive")
	}
	return &Counter2h{width: width, counts: make(map[int]int), maxIdx: -1}
}

// Observe counts one event at the given offset.
func (c *Counter2h) Observe(at time.Duration) {
	idx := int(at / c.width)
	c.counts[idx]++
	if idx > c.maxIdx {
		c.maxIdx = idx
	}
}

// Series returns one entry per window from 0 through the latest observed
// window: the window start offset and its event count.
func (c *Counter2h) Series() ([]time.Duration, []int) {
	if c.maxIdx < 0 {
		return nil, nil
	}
	times := make([]time.Duration, c.maxIdx+1)
	counts := make([]int, c.maxIdx+1)
	for i := 0; i <= c.maxIdx; i++ {
		times[i] = time.Duration(i) * c.width
		counts[i] = c.counts[i]
	}
	return times, counts
}
