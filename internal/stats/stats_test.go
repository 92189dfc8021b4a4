package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestEWMAFirstSampleInitializes(t *testing.T) {
	e := NewEWMA(0.3)
	e.Observe(10)
	if !almostEqual(e.Value(), 10) {
		t.Errorf("Value = %v, want 10", e.Value())
	}
	if e.Samples() != 1 {
		t.Errorf("Samples = %d", e.Samples())
	}
}

func TestEWMASmoothing(t *testing.T) {
	e := NewEWMA(0.5)
	e.Observe(10)
	e.Observe(20)
	if !almostEqual(e.Value(), 15) {
		t.Errorf("Value = %v, want 15", e.Value())
	}
	e.Observe(30)
	if !almostEqual(e.Value(), 22.5) {
		t.Errorf("Value = %v, want 22.5", e.Value())
	}
}

func TestEWMAAlphaOneTracksLatest(t *testing.T) {
	e := NewEWMA(1)
	for _, v := range []float64{3, 7, -2} {
		e.Observe(v)
		if !almostEqual(e.Value(), v) {
			t.Errorf("alpha=1 Value = %v, want %v", e.Value(), v)
		}
	}
}

func TestEWMAReset(t *testing.T) {
	e := NewEWMA(0.5)
	e.Observe(5)
	e.Reset()
	if e.Value() != 0 || e.Samples() != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestEWMAInvalidAlphaPanics(t *testing.T) {
	for _, alpha := range []float64{0, -0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alpha=%v: expected panic", alpha)
				}
			}()
			NewEWMA(alpha)
		}()
	}
}

func TestRateEstimator(t *testing.T) {
	r := NewRateEstimator(1) // alpha=1: exact latest gap
	if r.Known() {
		t.Error("fresh estimator must not be Known")
	}
	r.ObserveEvent(10 * time.Second)
	if r.Known() || r.MeanGap() != 0 || r.Rate() != 0 {
		t.Error("one event is not enough for a rate")
	}
	r.ObserveEvent(30 * time.Second)
	if !r.Known() {
		t.Error("two events must produce a rate")
	}
	if r.MeanGap() != 20*time.Second {
		t.Errorf("MeanGap = %v", r.MeanGap())
	}
	if !almostEqual(r.Rate(), 0.05) {
		t.Errorf("Rate = %v, want 0.05/s", r.Rate())
	}
}

func TestRateEstimatorIgnoresRegression(t *testing.T) {
	r := NewRateEstimator(0.5)
	r.ObserveEvent(10 * time.Second)
	r.ObserveEvent(10 * time.Second) // duplicate: no gap recorded
	r.ObserveEvent(5 * time.Second)  // regression: ignored
	if r.Known() {
		t.Error("duplicates/regressions must not create gaps")
	}
	r.ObserveEvent(20 * time.Second)
	if r.MeanGap() != 10*time.Second {
		t.Errorf("MeanGap = %v, want 10s", r.MeanGap())
	}
}

func TestMinTracker(t *testing.T) {
	var m MinTracker
	if _, ok := m.Value(); ok {
		t.Error("fresh MinTracker must be empty")
	}
	m.Observe(5)
	m.Observe(3)
	m.Observe(8)
	v, ok := m.Value()
	if !ok || v != 3 {
		t.Errorf("Value = %v,%v", v, ok)
	}
	m.Observe(-1)
	if v, _ := m.Value(); v != -1 {
		t.Errorf("Value = %v after negative", v)
	}
}

func TestQuantile(t *testing.T) {
	samples := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-0.5, 1}, {2, 5},
	}
	for _, tt := range tests {
		if got := Quantile(samples, tt.q); !almostEqual(got, tt.want) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty Quantile must be 0")
	}
	// Interpolation between points.
	if got := Quantile([]float64{0, 10}, 0.25); !almostEqual(got, 2.5) {
		t.Errorf("interpolated Quantile = %v, want 2.5", got)
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Quantile(in, 0.5)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 10) != 5 || Clamp(-1, 0, 10) != 0 || Clamp(11, 0, 10) != 10 {
		t.Error("Clamp wrong")
	}
}

func TestClampInvertedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for inverted bounds")
		}
	}()
	Clamp(0, 1, -1)
}

func TestPropertyClampWithinBounds(t *testing.T) {
	f := func(v, a, b int32) bool {
		lo, hi := float64(a), float64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		got := Clamp(float64(v), lo, hi)
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
