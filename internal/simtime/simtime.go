// Package simtime provides the time model used throughout the simulator.
//
// Simulated instants (Time) are kept distinct from periods (time.Duration)
// so that instants cannot accidentally be added together. An instant is a
// nanosecond offset from the simulation epoch (Time zero). The package also
// provides half-open validity intervals, which are the foundation of the
// mutual-consistency semantics of the paper (Eq. 4): a cached version of an
// object is valid at the server over an interval [modified, superseded),
// and two cached versions are mutually consistent within tolerance δ iff
// the distance between their validity intervals is at most δ.
package simtime

import (
	"fmt"
	"time"
)

// Time is an instant in simulated time, measured as a nanosecond offset
// from the simulation epoch. The zero value is the epoch itself.
type Time int64

// Common reference instants.
const (
	// Epoch is the origin of simulated time.
	Epoch Time = 0
	// MaxTime is the largest representable instant. It is used as the
	// "never" sentinel for open-ended validity intervals.
	MaxTime Time = 1<<63 - 1
)

// At returns the instant d after the epoch.
func At(d time.Duration) Time { return Time(d) }

// Add returns the instant d after t. Adding a duration to MaxTime
// saturates at MaxTime rather than wrapping around.
func (t Time) Add(d time.Duration) Time {
	if t == MaxTime {
		return MaxTime
	}
	s := t + Time(d)
	if d > 0 && s < t { // overflow
		return MaxTime
	}
	return s
}

// Sub returns the period t−u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// Since returns the elapsed period from u to t (t−u). It is a readability
// alias for Sub used where t is "now".
func (t Time) Since(u Time) time.Duration { return t.Sub(u) }

// Duration returns the offset of t from the epoch as a period.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats t as an offset from the epoch, e.g. "2h3m0s". MaxTime
// formats as "∞" since it denotes "never".
func (t Time) String() string {
	if t == MaxTime {
		return "∞"
	}
	return time.Duration(t).String()
}

// Min returns the earlier of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Interval is a half-open span of simulated time [Start, End). An interval
// with End == MaxTime is open-ended ("still current"). The zero value is
// the empty interval [0, 0).
type Interval struct {
	Start Time
	End   Time
}

// NewInterval returns the interval [start, end). It panics if end precedes
// start, which always indicates a programming error in the caller.
func NewInterval(start, end Time) Interval {
	if end < start {
		panic(fmt.Sprintf("simtime: invalid interval [%v, %v)", start, end))
	}
	return Interval{Start: start, End: end}
}

// Open returns the open-ended interval [start, ∞).
func Open(start Time) Interval { return Interval{Start: start, End: MaxTime} }

// IsEmpty reports whether the interval contains no instants.
func (iv Interval) IsEmpty() bool { return iv.End <= iv.Start }

// Contains reports whether t lies within [Start, End).
func (iv Interval) Contains(t Time) bool { return t >= iv.Start && t < iv.End }

// Length returns End−Start. Open-ended intervals report the (enormous)
// span to MaxTime; callers that care should first Clip to a horizon.
func (iv Interval) Length() time.Duration {
	if iv.IsEmpty() {
		return 0
	}
	return iv.End.Sub(iv.Start)
}

// Overlaps reports whether the two intervals share at least one instant.
func (iv Interval) Overlaps(other Interval) bool {
	if iv.IsEmpty() || other.IsEmpty() {
		return false
	}
	return iv.Start < other.End && other.Start < iv.End
}

// Clip returns the portion of iv that lies within bounds.
func (iv Interval) Clip(bounds Interval) Interval {
	start := Max(iv.Start, bounds.Start)
	end := Min(iv.End, bounds.End)
	if end < start {
		return Interval{Start: start, End: start}
	}
	return Interval{Start: start, End: end}
}

// Distance returns the gap between the two intervals: zero when they
// overlap or touch, otherwise the span separating them. This is the
// quantity bounded by δ in the paper's M_t-consistency definition (Eq. 4):
// the cached versions of two related objects are mutually consistent iff
// Distance between their server-validity intervals is ≤ δ.
//
// Distance panics if either interval is empty, because the mutual
// consistency question is meaningless for a version that was never valid.
func (iv Interval) Distance(other Interval) time.Duration {
	if iv.IsEmpty() || other.IsEmpty() {
		panic("simtime: Distance on empty interval")
	}
	switch {
	case iv.Overlaps(other):
		return 0
	case iv.End <= other.Start:
		return other.Start.Sub(iv.End)
	default:
		return iv.Start.Sub(other.End)
	}
}

// String formats the interval as "[start, end)".
func (iv Interval) String() string {
	return fmt.Sprintf("[%v, %v)", iv.Start, iv.End)
}
