package stats

import (
	"testing"
	"time"
)

func TestBoolTimeline(t *testing.T) {
	b := NewBoolTimeline(0, false)
	b.Set(10*time.Second, true)
	b.Set(25*time.Second, false)
	b.Set(30*time.Second, true)
	if got := b.TrueTotal(40 * time.Second); got != 25*time.Second {
		t.Errorf("TrueTotal = %v, want 25s", got)
	}
	if !b.State() {
		t.Error("final state should be true")
	}
}

func TestBoolTimelineRedundantSet(t *testing.T) {
	b := NewBoolTimeline(0, true)
	b.Set(10*time.Second, true) // no transition, still accumulates
	b.Set(20*time.Second, false)
	if got := b.TrueTotal(100 * time.Second); got != 20*time.Second {
		t.Errorf("TrueTotal = %v, want 20s", got)
	}
}

func TestBoolTimelineZeroValue(t *testing.T) {
	var b BoolTimeline
	b.Set(5*time.Second, true) // first Set anchors the start
	if got := b.TrueTotal(8 * time.Second); got != 3*time.Second {
		t.Errorf("TrueTotal = %v, want 3s", got)
	}
}

func TestBoolTimelineRegressionPanics(t *testing.T) {
	b := NewBoolTimeline(10*time.Second, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on time regression")
		}
	}()
	b.Set(5*time.Second, true)
}

func TestBoolTimelineTrueTotalBeforeLast(t *testing.T) {
	b := NewBoolTimeline(0, true)
	b.Set(10*time.Second, false)
	// Querying earlier than the last transition returns the committed total.
	if got := b.TrueTotal(5 * time.Second); got != 10*time.Second {
		t.Errorf("TrueTotal = %v", got)
	}
}

func TestWindowCounter(t *testing.T) {
	c := NewWindowCounter(2 * time.Hour)
	c.Observe(30 * time.Minute)
	c.Observe(90 * time.Minute)
	c.Observe(3 * time.Hour)
	c.Observe(9 * time.Hour)

	times, counts := c.Series()
	if len(times) != 5 {
		t.Fatalf("windows = %d, want 5 (0h..8h)", len(times))
	}
	wantCounts := []int{2, 1, 0, 0, 1}
	for i, want := range wantCounts {
		if counts[i] != want {
			t.Errorf("window %d count = %d, want %d", i, counts[i], want)
		}
		if times[i] != time.Duration(i)*2*time.Hour {
			t.Errorf("window %d start = %v", i, times[i])
		}
	}
}

func TestWindowCounterEmpty(t *testing.T) {
	c := NewWindowCounter(time.Hour)
	times, counts := c.Series()
	if times != nil || counts != nil {
		t.Error("empty counter must return nil series")
	}
}

func TestWindowCounterInvalidWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive width")
		}
	}()
	NewWindowCounter(0)
}
