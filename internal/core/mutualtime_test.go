package core

import (
	"testing"
	"time"

	"broadway/internal/simtime"
)

func newController(mode TriggerMode) *MutualTimeController {
	return NewMutualTimeController(MutualTimeConfig{
		Delta: 5 * time.Minute,
		Mode:  mode,
	})
}

// feedRate teaches the controller that id updates with the given period.
func feedRate(c *MutualTimeController, id ObjectID, period time.Duration, n int) {
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		at += period
		c.ObserveOutcome(id, PollOutcome{
			Now: simtime.At(at + time.Second), Prev: simtime.At(at - period),
			Modified: true, LastModified: simtime.At(at), HasLastModified: true,
		})
	}
}

func TestTriggerModeString(t *testing.T) {
	if TriggerNone.String() != "baseline" || TriggerAll.String() != "triggered" ||
		TriggerFaster.String() != "heuristic" {
		t.Error("mode names wrong")
	}
	if TriggerMode(42).String() == "" {
		t.Error("unknown mode must format")
	}
}

func TestParseTriggerMode(t *testing.T) {
	for _, tt := range []struct {
		name string
		want TriggerMode
		ok   bool
	}{
		{"baseline", TriggerNone, true},
		{"triggered", TriggerAll, true},
		{"heuristic", TriggerFaster, true},
		{"", 0, false},
		{"bogus", 0, false},
		{"Triggered", 0, false},
		{"TriggerMode(42)", 0, false},
	} {
		got, err := ParseTriggerMode(tt.name)
		if (err == nil) != tt.ok || got != tt.want {
			t.Errorf("ParseTriggerMode(%q) = %v, %v; want %v, ok=%v", tt.name, got, err, tt.want, tt.ok)
		}
		if tt.ok && got.String() != tt.name {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), tt.name)
		}
	}
}

func TestBaselineNeverTriggers(t *testing.T) {
	c := newController(TriggerNone)
	got := c.ShouldTrigger("a", "b",
		simtime.At(time.Hour), simtime.At(0), simtime.At(2*time.Hour))
	if got {
		t.Error("baseline must never trigger")
	}
	if c.Triggered() != 0 {
		t.Error("trigger count must stay 0")
	}
}

func TestTriggerAllTriggersWhenFarFromPolls(t *testing.T) {
	c := newController(TriggerAll)
	// b was polled 30m ago, next poll in 30m: both beyond δ=5m.
	got := c.ShouldTrigger("a", "b",
		simtime.At(time.Hour), simtime.At(30*time.Minute), simtime.At(90*time.Minute))
	if !got {
		t.Error("must trigger when no poll falls within δ")
	}
	if c.Triggered() != 1 {
		t.Errorf("Triggered = %d", c.Triggered())
	}
}

func TestNoTriggerWhenRecentPollWithinDelta(t *testing.T) {
	c := newController(TriggerAll)
	// b polled 3m ago (≤ δ): the recent poll already bounds the lag.
	got := c.ShouldTrigger("a", "b",
		simtime.At(time.Hour), simtime.At(57*time.Minute), simtime.At(2*time.Hour))
	if got {
		t.Error("recent poll within δ must suppress the trigger")
	}
}

func TestNoTriggerWhenNextPollWithinDelta(t *testing.T) {
	c := newController(TriggerAll)
	// b's next scheduled poll is 4m away (≤ δ).
	got := c.ShouldTrigger("a", "b",
		simtime.At(time.Hour), simtime.At(0), simtime.At(64*time.Minute))
	if got {
		t.Error("imminent poll within δ must suppress the trigger")
	}
}

func TestNoSelfTrigger(t *testing.T) {
	c := newController(TriggerAll)
	if c.ShouldTrigger("a", "a", simtime.At(time.Hour), simtime.At(0), simtime.At(2*time.Hour)) {
		t.Error("an object must not trigger itself")
	}
}

func TestHeuristicSkipsSlowerObjects(t *testing.T) {
	c := newController(TriggerFaster)
	feedRate(c, "fast", 2*time.Minute, 10)
	feedRate(c, "slow", 40*time.Minute, 10)

	now := simtime.At(100 * time.Hour)
	farPrev, farNext := simtime.At(99*time.Hour), simtime.At(101*time.Hour)

	// Fast object updated → slow sibling is NOT triggered.
	if c.ShouldTrigger("fast", "slow", now, farPrev, farNext) {
		t.Error("heuristic must skip slower-changing objects")
	}
	// Slow object updated → fast sibling IS triggered.
	if !c.ShouldTrigger("slow", "fast", now, farPrev, farNext) {
		t.Error("heuristic must trigger faster-changing objects")
	}
}

func TestForgetDiscardsOneObjectsState(t *testing.T) {
	c := newController(TriggerFaster)
	feedRate(c, "fast", 2*time.Minute, 10)
	feedRate(c, "slow", 40*time.Minute, 10)

	// Forgetting the slow object (a cache evicted it) returns it to the
	// warm-up behavior: unknown rates err on the side of triggering.
	c.Forget("slow")
	if got := c.EstimatedRate("slow"); got != 0 {
		t.Errorf("EstimatedRate after Forget = %v, want 0", got)
	}
	now := simtime.At(100 * time.Hour)
	farPrev, farNext := simtime.At(99*time.Hour), simtime.At(101*time.Hour)
	if !c.ShouldTrigger("fast", "slow", now, farPrev, farNext) {
		t.Error("forgotten object must be treated as unknown-rate (trigger)")
	}
	// The sibling's learned rate survives.
	if c.EstimatedRate("fast") == 0 {
		t.Error("Forget of one object discarded another's rate")
	}
	// Re-learning starts clean: stale lastMod no longer suppresses the
	// re-admitted object's fresh history.
	feedRate(c, "slow", 40*time.Minute, 10)
	if c.EstimatedRate("slow") == 0 {
		t.Error("forgotten object could not re-learn its rate")
	}
}

func TestHeuristicTriggersComparableRates(t *testing.T) {
	c := newController(TriggerFaster)
	feedRate(c, "a", 10*time.Minute, 10)
	feedRate(c, "b", 11*time.Minute, 10) // ≈9% slower: "approximately the same"

	now := simtime.At(100 * time.Hour)
	if !c.ShouldTrigger("a", "b", now, simtime.At(99*time.Hour), simtime.At(101*time.Hour)) {
		t.Error("comparable rates must trigger")
	}
}

func TestHeuristicUnknownRatesTrigger(t *testing.T) {
	c := newController(TriggerFaster)
	// No rate evidence at all: err on the side of fidelity.
	if !c.ShouldTrigger("a", "b", simtime.At(time.Hour), simtime.At(0), simtime.At(2*time.Hour)) {
		t.Error("unknown rates must trigger")
	}
}

func TestObserveOutcomeDeduplicatesHistory(t *testing.T) {
	c := newController(TriggerFaster)
	// Two polls whose histories overlap: the shared instant must be
	// counted once.
	c.ObserveOutcome("a", PollOutcome{
		Now: simtime.At(20 * time.Minute), Prev: simtime.At(0),
		Modified: true, HasLastModified: true, LastModified: simtime.At(15 * time.Minute),
		History: []simtime.Time{simtime.At(5 * time.Minute), simtime.At(15 * time.Minute)},
	})
	c.ObserveOutcome("a", PollOutcome{
		Now: simtime.At(40 * time.Minute), Prev: simtime.At(20 * time.Minute),
		Modified: true, HasLastModified: true, LastModified: simtime.At(35 * time.Minute),
		History: []simtime.Time{simtime.At(15 * time.Minute), simtime.At(25 * time.Minute), simtime.At(35 * time.Minute)},
	})
	// Gaps observed: 10m (5→15), 10m (15→25), 10m (25→35) → rate 1/600s.
	if got := c.EstimatedRate("a"); got < 1.0/601 || got > 1.0/599 {
		t.Errorf("EstimatedRate = %v, want ≈1/600", got)
	}
}

func TestObserveOutcomeIgnoresUnmodified(t *testing.T) {
	c := newController(TriggerFaster)
	c.ObserveOutcome("a", PollOutcome{Now: simtime.At(time.Hour), Prev: simtime.At(0)})
	if c.EstimatedRate("a") != 0 {
		t.Error("unmodified polls must not create rate evidence")
	}
}

func TestControllerReset(t *testing.T) {
	c := newController(TriggerAll)
	feedRate(c, "a", time.Minute, 5)
	c.ShouldTrigger("a", "b", simtime.At(time.Hour), simtime.At(0), simtime.At(2*time.Hour))
	c.Reset()
	if c.Triggered() != 0 || c.EstimatedRate("a") != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestMutualTimeConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  MutualTimeConfig
	}{
		{"zero delta", MutualTimeConfig{Mode: TriggerAll}},
		{"bad mode", MutualTimeConfig{Delta: time.Minute}},
		{"bad tolerance", MutualTimeConfig{Delta: time.Minute, Mode: TriggerAll, RateTolerance: 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			NewMutualTimeController(tt.cfg)
		})
	}
}
