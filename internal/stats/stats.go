// Package stats provides small statistical estimators shared by the
// consistency policies and the experiment reports: exponentially weighted
// moving averages, running mean/variance (Welford), a minimum tracker,
// rate estimators for update processes, time-weighted accumulators,
// quantiles and clamping.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// EWMA is an exponentially weighted moving average with smoothing factor
// alpha in (0, 1]: larger alpha weighs recent observations more heavily.
// The zero value is unusable; construct with NewEWMA.
type EWMA struct {
	alpha   float64
	value   float64
	samples uint64
}

// NewEWMA returns an EWMA with the given smoothing factor. It panics if
// alpha is outside (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("stats: EWMA alpha %v outside (0,1]", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Observe folds a new sample into the average. The first sample
// initializes the average directly.
func (e *EWMA) Observe(v float64) {
	if e.samples == 0 {
		e.value = v
	} else {
		e.value = e.alpha*v + (1-e.alpha)*e.value
	}
	e.samples++
}

// Value returns the current average, or 0 before any samples.
func (e *EWMA) Value() float64 { return e.value }

// Samples returns the number of observations folded in so far.
func (e *EWMA) Samples() uint64 { return e.samples }

// Reset discards all state.
func (e *EWMA) Reset() { e.value, e.samples = 0, 0 }

// Welford accumulates running mean and variance using Welford's
// numerically stable online algorithm. The zero value is ready to use.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Observe folds in a sample.
func (w *Welford) Observe(v float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = v, v
	} else {
		w.min = math.Min(w.min, v)
		w.max = math.Max(w.max, v)
	}
	d := v - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (v - w.mean)
}

// Count returns the number of samples.
func (w *Welford) Count() uint64 { return w.n }

// Mean returns the sample mean, or 0 with no samples.
func (w *Welford) Mean() float64 { return w.mean }

// Min returns the smallest sample, or 0 with no samples.
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest sample, or 0 with no samples.
func (w *Welford) Max() float64 { return w.max }

// Variance returns the unbiased sample variance (n−1 denominator), or 0
// with fewer than two samples.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// RateEstimator estimates the rate of a point process (e.g. object
// updates) from observed event instants using an EWMA over inter-event
// gaps. It is the estimator behind the mutual-consistency heuristic's
// "changes at approximately the same or faster rate" test (paper §3.2).
type RateEstimator struct {
	gaps     *EWMA
	lastSeen time.Duration // most recent event instant as offset; <0 = none
	have     bool
}

// NewRateEstimator returns a rate estimator whose gap average uses the
// given EWMA smoothing factor.
func NewRateEstimator(alpha float64) *RateEstimator {
	return &RateEstimator{gaps: NewEWMA(alpha)}
}

// ObserveEvent records that an event occurred at the given offset from the
// epoch. Offsets must be nondecreasing; an event at or before the previous
// one only updates the anchor.
func (r *RateEstimator) ObserveEvent(at time.Duration) {
	if r.have && at > r.lastSeen {
		r.gaps.Observe(float64(at - r.lastSeen))
	}
	if !r.have || at > r.lastSeen {
		r.lastSeen = at
		r.have = true
	}
}

// MeanGap returns the smoothed mean inter-event gap, or 0 if fewer than
// two events have been observed.
func (r *RateEstimator) MeanGap() time.Duration {
	if r.gaps.Samples() == 0 {
		return 0
	}
	return time.Duration(r.gaps.Value())
}

// Rate returns events per second, or 0 when unknown.
func (r *RateEstimator) Rate() float64 {
	g := r.MeanGap()
	if g <= 0 {
		return 0
	}
	return float64(time.Second) / float64(g)
}

// Known reports whether the estimator has seen enough events (two) to
// produce a rate.
func (r *RateEstimator) Known() bool { return r.gaps.Samples() > 0 }

// MinTracker records the smallest value observed so far. It backs the
// TTR_observed_min term of the adaptive TTR formula (paper Eq. 10). The
// zero value is ready to use.
type MinTracker struct {
	min  float64
	have bool
}

// Observe folds in a value.
func (m *MinTracker) Observe(v float64) {
	if !m.have || v < m.min {
		m.min, m.have = v, true
	}
}

// Value returns the minimum observed value and whether any value has been
// observed.
func (m *MinTracker) Value() (float64, bool) { return m.min, m.have }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the samples using linear
// interpolation. It returns 0 for an empty slice. The input is not
// modified.
func Quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Clamp limits v to the closed interval [lo, hi]. It panics if lo > hi.
func Clamp(v, lo, hi float64) float64 {
	if lo > hi {
		panic(fmt.Sprintf("stats: Clamp bounds inverted: [%v, %v]", lo, hi))
	}
	return math.Max(lo, math.Min(hi, v))
}
