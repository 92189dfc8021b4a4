package core

import (
	"testing"
	"testing/quick"
	"time"

	"broadway/internal/simtime"
)

func minutes(m float64) time.Duration { return time.Duration(m * float64(time.Minute)) }

func defaultLIMD() *LIMD {
	return NewLIMD(LIMDConfig{Delta: 10 * time.Minute})
}

// outcome builds an unmodified poll outcome at the given instants.
func outcome(prev, now time.Duration) PollOutcome {
	return PollOutcome{Now: simtime.At(now), Prev: simtime.At(prev)}
}

// modifiedOutcome builds a modified poll outcome whose most recent update
// happened at lastMod.
func modifiedOutcome(prev, now, lastMod time.Duration) PollOutcome {
	return PollOutcome{
		Now: simtime.At(now), Prev: simtime.At(prev),
		Modified: true, LastModified: simtime.At(lastMod), HasLastModified: true,
	}
}

// tally drives a LIMD through the classifier NextTTR runs, counting the
// outcomes per LIMD case (1–4).
type tally struct {
	l *LIMD
	n [5]int
}

func (t *tally) next(o PollOutcome) time.Duration {
	t.n[t.l.observe(o)]++
	return t.l.TTR()
}

func TestLIMDDefaults(t *testing.T) {
	l := defaultLIMD()
	cfg := l.Config()
	if cfg.Bounds.Min != 10*time.Minute {
		t.Errorf("TTRmin = %v, want Δ", cfg.Bounds.Min)
	}
	if cfg.Bounds.Max != 60*time.Minute {
		t.Errorf("TTRmax = %v, want 60m", cfg.Bounds.Max)
	}
	if cfg.LinearFactor != 0.2 || cfg.Epsilon != 0.02 {
		t.Errorf("l=%v ε=%v, want paper defaults", cfg.LinearFactor, cfg.Epsilon)
	}
	if l.InitialTTR() != 10*time.Minute {
		t.Errorf("InitialTTR = %v, want TTRmin", l.InitialTTR())
	}
	if l.Name() != "limd" {
		t.Errorf("Name = %q", l.Name())
	}
}

func TestLIMDCase1LinearIncrease(t *testing.T) {
	tl := tally{l: defaultLIMD()}
	// No modification: TTR grows by the linear factor each poll.
	got := tl.next(outcome(0, minutes(10)))
	if got != minutes(12) {
		t.Errorf("first increase = %v, want 12m", got)
	}
	got = tl.next(outcome(minutes(10), minutes(22)))
	if got != time.Duration(float64(minutes(12))*1.2) {
		t.Errorf("second increase = %v", got)
	}
	if tl.n[1] != 2 {
		t.Errorf("case-1 count = %d", tl.n[1])
	}
}

func TestLIMDCase1CapsAtTTRMax(t *testing.T) {
	l := defaultLIMD()
	prev := time.Duration(0)
	now := minutes(10)
	for i := 0; i < 50; i++ {
		l.NextTTR(outcome(prev, now))
		prev, now = now, now+l.TTR()
	}
	if l.TTR() != 60*time.Minute {
		t.Errorf("TTR = %v, want TTRmax after long quiet period", l.TTR())
	}
}

func TestLIMDCase2FixedMultiplicativeDecrease(t *testing.T) {
	l := NewLIMD(LIMDConfig{Delta: 10 * time.Minute, MultiplicativeFactor: 0.5})
	// Grow the TTR to TTRmax first so the halving is visible above the
	// TTRmin clamp.
	prev, now := time.Duration(0), minutes(10)
	for i := 0; i < 20; i++ {
		l.NextTTR(outcome(prev, now))
		prev, now = now, now+l.TTR()
	}
	before := l.TTR() // 60m
	// Violation: update 15m before the poll → out of sync by 15m > Δ.
	tl := tally{l: l}
	got := tl.next(modifiedOutcome(now, now+minutes(30), now+minutes(15)))
	if got != before/2 {
		t.Errorf("TTR after violation = %v, want %v", got, before/2)
	}
	if tl.n[2] != 1 {
		t.Errorf("case-2 count = %d", tl.n[2])
	}
}

func TestLIMDCase2AdaptiveM(t *testing.T) {
	l := defaultLIMD() // MultiplicativeFactor 0 → adaptive m = Δ/outSync
	// Grow to TTRmax so the decrease is observable above the TTRmin clamp.
	prev, now := time.Duration(0), minutes(10)
	for i := 0; i < 20; i++ {
		l.NextTTR(outcome(prev, now))
		prev, now = now, now+l.TTR()
	}
	if l.TTR() != 60*time.Minute {
		t.Fatalf("setup: TTR = %v", l.TTR())
	}
	// First update 20m before the poll → outSync = 20m, m = 10/20 = 0.5.
	got := l.NextTTR(modifiedOutcome(now, now+minutes(40), now+minutes(20)))
	if want := 30 * time.Minute; got != want {
		t.Errorf("TTR = %v, want %v (adaptive m)", got, want)
	}
}

func TestLIMDCase2AdaptiveMDeeperViolationBacksOffHarder(t *testing.T) {
	run := func(outSyncMin float64) time.Duration {
		l := defaultLIMD()
		// Grow the TTR toward TTRmax so the decrease is not masked by
		// the TTRmin clamp.
		prev, now := time.Duration(0), minutes(10)
		for i := 0; i < 20; i++ {
			l.NextTTR(outcome(prev, now))
			prev, now = now, now+l.TTR()
		}
		// First update right after the previous poll; poll arrives
		// outSyncMin later.
		return l.NextTTR(modifiedOutcome(now, now+minutes(outSyncMin), now))
	}
	shallow := run(15) // out of sync 15m
	deep := run(45)    // out of sync 45m
	if deep >= shallow {
		t.Errorf("deeper violation must shrink TTR more: deep=%v shallow=%v", deep, shallow)
	}
}

func TestLIMDCase2FloorsAtTTRMin(t *testing.T) {
	l := NewLIMD(LIMDConfig{Delta: 10 * time.Minute, MultiplicativeFactor: 0.1})
	// Repeated violations must never push TTR below TTRmin.
	prev, now := time.Duration(0), minutes(30)
	for i := 0; i < 10; i++ {
		l.NextTTR(modifiedOutcome(prev, now, prev+time.Minute))
		prev, now = now, now+minutes(30)
	}
	if l.TTR() != 10*time.Minute {
		t.Errorf("TTR = %v, want TTRmin floor", l.TTR())
	}
}

func TestLIMDCase3FineTune(t *testing.T) {
	tl := tally{l: defaultLIMD()}
	// Update at 24m, poll at 25m: modified, within Δ → case 3.
	before := tl.l.TTR()
	got := tl.next(modifiedOutcome(minutes(15), minutes(25), minutes(24)))
	want := time.Duration(float64(before) * 1.02)
	if got != want {
		t.Errorf("TTR = %v, want %v (ε fine-tune)", got, want)
	}
	if tl.n[3] != 1 {
		t.Errorf("case-3 count = %d", tl.n[3])
	}
}

func TestLIMDCase4ColdObjectResets(t *testing.T) {
	l := defaultLIMD()
	// Establish a modification anchor at 5m.
	l.NextTTR(modifiedOutcome(0, minutes(10), minutes(5)))
	// Let the TTR grow.
	prev, now := minutes(10), minutes(20)
	for i := 0; i < 20; i++ {
		l.NextTTR(outcome(prev, now))
		prev, now = now, now+l.TTR()
	}
	if l.TTR() != 60*time.Minute {
		t.Fatalf("setup: TTR = %v, want TTRmax", l.TTR())
	}
	// A new update more than ColdThreshold (60m) after the last known
	// one: case 4, snap to TTRmin. The update itself is recent (no
	// violation would fire anyway, but case 4 takes priority).
	tl := tally{l: l}
	got := tl.next(modifiedOutcome(prev, now, now-time.Minute))
	if got != 10*time.Minute {
		t.Errorf("TTR = %v, want TTRmin after cold restart", got)
	}
	if tl.n[4] != 1 {
		t.Errorf("case-4 count = %d", tl.n[4])
	}
}

func TestLIMDCase4TakesPriorityOverViolation(t *testing.T) {
	tl := tally{l: NewLIMD(LIMDConfig{Delta: 10 * time.Minute, ColdThreshold: 30 * time.Minute})}
	tl.next(modifiedOutcome(0, minutes(10), minutes(5)))
	// Next update at 100m (long after the 30m cold threshold), polled
	// only at 130m → also a violation; cold handling must win and give
	// exactly TTRmin.
	got := tl.next(modifiedOutcome(minutes(10), minutes(130), minutes(100)))
	if got != 10*time.Minute {
		t.Errorf("TTR = %v, want TTRmin (case 4 priority)", got)
	}
	if tl.n[4] != 1 || tl.n[2] != 0 {
		t.Errorf("case counts: 4→%d 2→%d", tl.n[4], tl.n[2])
	}
}

func TestLIMDHistoryRevealsHiddenViolation(t *testing.T) {
	// Fig. 1(b): two updates since the last poll; the most recent is
	// within Δ but the first is not. Plain HTTP misses the violation;
	// the history extension reveals it.
	mk := func(history []simtime.Time) time.Duration {
		l := defaultLIMD()
		l.NextTTR(outcome(0, minutes(10))) // grow a little: TTR=12m
		o := modifiedOutcome(minutes(10), minutes(40), minutes(35))
		o.History = history
		return l.NextTTR(o)
	}
	plain := mk(nil)
	withHistory := mk([]simtime.Time{simtime.At(minutes(12)), simtime.At(minutes(35))})
	if plain != time.Duration(float64(minutes(12))*1.02) {
		t.Errorf("plain HTTP treated as case 3: got %v", plain)
	}
	if withHistory >= plain {
		t.Errorf("history must expose the violation: %v >= %v", withHistory, plain)
	}
}

func TestLIMDReset(t *testing.T) {
	l := defaultLIMD()
	l.NextTTR(outcome(0, minutes(10)))
	if l.TTR() == l.InitialTTR() {
		t.Fatal("setup: TTR unchanged")
	}
	l.Reset()
	if l.TTR() != l.InitialTTR() {
		t.Errorf("Reset did not restore TTRmin")
	}
}

func TestLIMDConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  LIMDConfig
	}{
		{"zero delta", LIMDConfig{}},
		{"l too big", LIMDConfig{Delta: time.Minute, LinearFactor: 1}},
		{"l negative", LIMDConfig{Delta: time.Minute, LinearFactor: -0.5}},
		{"m too big", LIMDConfig{Delta: time.Minute, MultiplicativeFactor: 1}},
		{"m negative", LIMDConfig{Delta: time.Minute, MultiplicativeFactor: -0.5}},
		{"epsilon negative", LIMDConfig{Delta: time.Minute, Epsilon: -0.1}},
		{"bounds inverted", LIMDConfig{Delta: time.Minute,
			Bounds: TTRBounds{Min: time.Hour, Max: time.Minute}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			NewLIMD(tt.cfg)
		})
	}
}

// TestLIMDCaseCountOutOfRange checks that every poll outcome lands in
// one of the four LIMD cases: the classifier never yields a case number
// outside 1–4, whatever the poll sequence.
func TestLIMDCaseCountOutOfRange(t *testing.T) {
	f := func(steps []struct {
		GapMin   uint16
		Modified bool
		ModAgo   uint16
	}) bool {
		l := defaultLIMD()
		now := time.Duration(0)
		for _, st := range steps {
			prev := now
			now += time.Duration(st.GapMin%240+1) * time.Minute
			o := outcome(prev, now)
			if st.Modified {
				o = modifiedOutcome(prev, now, now-time.Duration(st.ModAgo)*time.Second%(now-prev))
			}
			if c := l.observe(o); c < 1 || c > 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropertyLIMDTTRWithinBounds drives LIMD with arbitrary poll
// sequences and asserts the paper's clamp invariant: the TTR always stays
// within [TTRmin, TTRmax].
func TestPropertyLIMDTTRWithinBounds(t *testing.T) {
	f := func(steps []struct {
		GapMin   uint16
		Modified bool
		ModAgo   uint16
	}) bool {
		l := defaultLIMD()
		bounds := l.Config().Bounds
		now := time.Duration(0)
		for _, s := range steps {
			prev := now
			now += time.Duration(s.GapMin%300)*time.Minute + time.Minute
			o := PollOutcome{Now: simtime.At(now), Prev: simtime.At(prev)}
			if s.Modified {
				modAt := now - time.Duration(s.ModAgo%200)*time.Minute
				if modAt < prev {
					modAt = prev + time.Second
				}
				o.Modified = true
				o.LastModified = simtime.At(modAt)
				o.HasLastModified = true
			}
			ttr := l.NextTTR(o)
			if ttr < bounds.Min || ttr > bounds.Max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLIMDTracksUpdateRate is the behavioral heart of §3.1: for an object
// changing much more slowly than Δ, LIMD must settle near the object's
// own period rather than polling every Δ.
func TestLIMDTracksUpdateRate(t *testing.T) {
	l := NewLIMD(LIMDConfig{Delta: time.Minute, Bounds: TTRBounds{Min: time.Minute, Max: time.Hour}})
	// Object updates every 30 minutes; Δ = 1 minute. Simulate polls at
	// the TTR the policy requests.
	updatePeriod := 30 * time.Minute
	now := time.Duration(0)
	polls := 0
	for now < 48*time.Hour {
		prev := now
		now += l.TTR()
		polls++
		lastUpdate := now.Truncate(updatePeriod)
		modified := lastUpdate > prev && lastUpdate > 0
		o := PollOutcome{Now: simtime.At(now), Prev: simtime.At(prev)}
		if modified {
			o.Modified = true
			o.LastModified = simtime.At(lastUpdate)
			o.HasLastModified = true
		}
		l.NextTTR(o)
	}
	// A Δ-periodic poller would poll 2880 times in 48h. LIMD should do
	// far better (paper reports ~6× for CNN/FN at Δ=1m).
	if polls > 2880/3 {
		t.Errorf("polls = %d; LIMD failed to adapt to the 30m update period", polls)
	}
}
