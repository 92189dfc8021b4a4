package simtime

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeAdd(t *testing.T) {
	tests := []struct {
		name string
		t    Time
		d    time.Duration
		want Time
	}{
		{"zero plus zero", Epoch, 0, Epoch},
		{"epoch plus hour", Epoch, time.Hour, At(time.Hour)},
		{"negative duration", At(2 * time.Hour), -time.Hour, At(time.Hour)},
		{"max saturates", MaxTime, time.Hour, MaxTime},
		{"overflow saturates", MaxTime - 1, time.Hour, MaxTime},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.t.Add(tt.d); got != tt.want {
				t.Errorf("(%v).Add(%v) = %v, want %v", tt.t, tt.d, got, tt.want)
			}
		})
	}
}

func TestTimeSub(t *testing.T) {
	a := At(3 * time.Hour)
	b := At(time.Hour)
	if got := a.Sub(b); got != 2*time.Hour {
		t.Errorf("Sub = %v, want 2h", got)
	}
	if got := b.Sub(a); got != -2*time.Hour {
		t.Errorf("Sub = %v, want -2h", got)
	}
}

func TestTimeOrdering(t *testing.T) {
	a, b := At(time.Minute), At(time.Hour)
	if !a.Before(b) || b.Before(a) {
		t.Error("Before ordering wrong")
	}
	if !b.After(a) || a.After(b) {
		t.Error("After ordering wrong")
	}
	if a.Before(a) || a.After(a) {
		t.Error("a neither before nor after itself")
	}
}

func TestMinMaxAbsDiff(t *testing.T) {
	a, b := At(time.Minute), At(time.Hour)
	if Min(a, b) != a || Min(b, a) != a {
		t.Error("Min wrong")
	}
	if Max(a, b) != b || Max(b, a) != b {
		t.Error("Max wrong")
	}
}

func TestTimeString(t *testing.T) {
	if got := At(90 * time.Second).String(); got != "1m30s" {
		t.Errorf("String = %q, want 1m30s", got)
	}
	if got := MaxTime.String(); got != "∞" {
		t.Errorf("MaxTime.String = %q", got)
	}
}

func TestIntervalBasics(t *testing.T) {
	iv := Interval{At(time.Minute), At(time.Hour)}
	if iv.IsEmpty() {
		t.Error("non-empty interval reported empty")
	}
	if iv.Length() != 59*time.Minute {
		t.Errorf("Length = %v", iv.Length())
	}
	if !iv.Contains(At(time.Minute)) {
		t.Error("interval must contain its start")
	}
	if iv.Contains(At(time.Hour)) {
		t.Error("half-open interval must not contain its end")
	}
	if !iv.Contains(At(30 * time.Minute)) {
		t.Error("interval must contain midpoint")
	}

	empty := Interval{At(time.Minute), At(time.Minute)}
	if !empty.IsEmpty() || empty.Length() != 0 {
		t.Error("point interval must be empty with zero length")
	}
	if empty.Contains(At(time.Minute)) {
		t.Error("empty interval contains nothing")
	}
}

func TestOpenInterval(t *testing.T) {
	iv := Open(At(time.Hour))
	if iv.IsEmpty() {
		t.Error("open interval is not empty")
	}
	if !iv.Contains(At(100 * time.Hour)) {
		t.Error("open interval contains all later instants")
	}
	if iv.End != MaxTime {
		t.Error("open interval must end at MaxTime")
	}
}

func TestIntervalOverlaps(t *testing.T) {
	mk := func(s, e time.Duration) Interval { return Interval{At(s), At(e)} }
	tests := []struct {
		name string
		a, b Interval
		want bool
	}{
		{"disjoint", mk(0, time.Minute), mk(2*time.Minute, 3*time.Minute), false},
		{"touching", mk(0, time.Minute), mk(time.Minute, 2*time.Minute), false},
		{"overlap", mk(0, 2*time.Minute), mk(time.Minute, 3*time.Minute), true},
		{"nested", mk(0, time.Hour), mk(time.Minute, 2*time.Minute), true},
		{"identical", mk(0, time.Minute), mk(0, time.Minute), true},
		{"empty vs any", mk(time.Minute, time.Minute), mk(0, time.Hour), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Overlaps(tt.b); got != tt.want {
				t.Errorf("Overlaps = %v, want %v", got, tt.want)
			}
			if got := tt.b.Overlaps(tt.a); got != tt.want {
				t.Errorf("Overlaps (sym) = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestIntervalDistance(t *testing.T) {
	mk := func(s, e time.Duration) Interval { return Interval{At(s), At(e)} }
	tests := []struct {
		name string
		a, b Interval
		want time.Duration
	}{
		{"overlapping", mk(0, 2*time.Minute), mk(time.Minute, 3*time.Minute), 0},
		{"touching", mk(0, time.Minute), mk(time.Minute, 2*time.Minute), 0},
		{"gap", mk(0, time.Minute), mk(3*time.Minute, 4*time.Minute), 2 * time.Minute},
		{"open ended overlap", Open(At(time.Minute)), mk(2*time.Minute, 3*time.Minute), 0},
		{"before open", mk(0, time.Minute), Open(At(5 * time.Minute)), 4 * time.Minute},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Distance(tt.b); got != tt.want {
				t.Errorf("Distance = %v, want %v", got, tt.want)
			}
			if got := tt.b.Distance(tt.a); got != tt.want {
				t.Errorf("Distance (sym) = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestIntervalDistancePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty interval distance")
		}
	}()
	empty := Interval{Epoch, Epoch}
	empty.Distance(Open(Epoch))
}

// boundedTime maps arbitrary int64s into a sane simulated-time range so the
// quick-check properties exercise realistic values without overflow.
func boundedTime(v int64) Time {
	if v < 0 {
		v = -v
	}
	return Time(v % int64(10*365*24*time.Hour))
}

func TestPropertyDistanceSymmetric(t *testing.T) {
	f := func(a1, a2, b1, b2 int64) bool {
		s1, e1 := boundedTime(a1), boundedTime(a2)
		s2, e2 := boundedTime(b1), boundedTime(b2)
		iv1 := Interval{Min(s1, e1), Max(s1, e1) + 1}
		iv2 := Interval{Min(s2, e2), Max(s2, e2) + 1}
		return iv1.Distance(iv2) == iv2.Distance(iv1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyDistanceZeroIffOverlapOrTouch(t *testing.T) {
	f := func(a1, a2, b1, b2 int64) bool {
		s1, e1 := boundedTime(a1), boundedTime(a2)
		s2, e2 := boundedTime(b1), boundedTime(b2)
		iv1 := Interval{Min(s1, e1), Max(s1, e1) + 1}
		iv2 := Interval{Min(s2, e2), Max(s2, e2) + 1}
		d := iv1.Distance(iv2)
		touchOrOverlap := iv1.Overlaps(iv2) || iv1.End == iv2.Start || iv2.End == iv1.Start
		return (d == 0) == touchOrOverlap
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyAddSubRoundTrip(t *testing.T) {
	f := func(base int64, delta int32) bool {
		tm := boundedTime(base)
		d := time.Duration(delta)
		return tm.Add(d).Sub(tm) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxTimeLengthDoesNotOverflow(t *testing.T) {
	iv := Open(Epoch)
	if iv.Length() <= 0 {
		t.Error("open interval length must be positive")
	}
	if int64(iv.Length()) != math.MaxInt64 {
		t.Errorf("open-from-epoch length = %d", iv.Length())
	}
}
