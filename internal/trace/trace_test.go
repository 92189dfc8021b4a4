package trace

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func newsTrace() *Trace {
	return &Trace{
		Name:     "news",
		Kind:     Temporal,
		Duration: time.Hour,
		Updates: []Update{
			{At: 10 * time.Minute},
			{At: 20 * time.Minute},
			{At: 45 * time.Minute},
		},
	}
}

func stockTrace() *Trace {
	return &Trace{
		Name:         "stock",
		Kind:         Value,
		Duration:     time.Hour,
		InitialValue: 100,
		Updates: []Update{
			{At: 10 * time.Minute, Value: 101},
			{At: 20 * time.Minute, Value: 99.5},
			{At: 45 * time.Minute, Value: 103},
		},
	}
}

func TestValidateAcceptsGoodTraces(t *testing.T) {
	for _, tr := range []*Trace{newsTrace(), stockTrace()} {
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: Validate = %v", tr.Name, err)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Trace)
		wantErr error
	}{
		{"empty name", func(tr *Trace) { tr.Name = "" }, ErrNoName},
		{"bad kind", func(tr *Trace) { tr.Kind = 0 }, ErrBadKind},
		{"zero duration", func(tr *Trace) { tr.Duration = 0 }, ErrBadDuration},
		{"unordered", func(tr *Trace) { tr.Updates[1].At = 5 * time.Minute }, ErrUnordered},
		{"duplicate instant", func(tr *Trace) { tr.Updates[1].At = tr.Updates[0].At }, ErrUnordered},
		{"after window", func(tr *Trace) { tr.Updates[2].At = 2 * time.Hour }, ErrOutOfWindow},
		{"negative instant", func(tr *Trace) { tr.Updates[0].At = -time.Minute }, ErrNegativeInstant},
		{"NaN initial value", func(tr *Trace) { tr.InitialValue = math.NaN() }, ErrNonFinite},
		{"infinite update value", func(tr *Trace) { tr.Updates[1].Value = math.Inf(-1) }, ErrNonFinite},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tr := newsTrace()
			tt.mutate(tr)
			if err := tr.Validate(); !errors.Is(err, tt.wantErr) {
				t.Errorf("Validate = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestVersionAt(t *testing.T) {
	tr := newsTrace()
	tests := []struct {
		at   time.Duration
		want int
	}{
		{0, 0},
		{9 * time.Minute, 0},
		{10 * time.Minute, 1}, // inclusive at the update instant
		{15 * time.Minute, 1},
		{20 * time.Minute, 2},
		{time.Hour, 3},
	}
	for _, tt := range tests {
		if got := tr.VersionAt(tt.at); got != tt.want {
			t.Errorf("VersionAt(%v) = %d, want %d", tt.at, got, tt.want)
		}
	}
}

func TestValueAt(t *testing.T) {
	tr := stockTrace()
	tests := []struct {
		at   time.Duration
		want float64
	}{
		{0, 100},
		{10 * time.Minute, 101},
		{19 * time.Minute, 101},
		{30 * time.Minute, 99.5},
		{time.Hour, 103},
	}
	for _, tt := range tests {
		if got := tr.ValueAt(tt.at); got != tt.want {
			t.Errorf("ValueAt(%v) = %v, want %v", tt.at, got, tt.want)
		}
	}
}

func TestLastModifiedAt(t *testing.T) {
	tr := newsTrace()
	if _, ok := tr.LastModifiedAt(5 * time.Minute); ok {
		t.Error("no modification before first update")
	}
	got, ok := tr.LastModifiedAt(25 * time.Minute)
	if !ok || got != 20*time.Minute {
		t.Errorf("LastModifiedAt = %v,%v", got, ok)
	}
}

func TestUpdatesIn(t *testing.T) {
	tr := newsTrace()
	got := tr.UpdatesIn(10*time.Minute, 45*time.Minute)
	if len(got) != 2 {
		t.Fatalf("UpdatesIn half-open window = %d updates, want 2", len(got))
	}
	if got[0].At != 20*time.Minute || got[1].At != 45*time.Minute {
		t.Errorf("wrong updates: %v", got)
	}
	if len(tr.UpdatesIn(45*time.Minute, time.Hour)) != 0 {
		t.Error("window after last update must be empty")
	}
	if len(tr.UpdatesIn(0, time.Hour)) != 3 {
		t.Error("full window must contain all updates")
	}
}

func TestNextUpdateAfter(t *testing.T) {
	tr := newsTrace()
	got, ok := tr.NextUpdateAfter(10 * time.Minute)
	if !ok || got != 20*time.Minute {
		t.Errorf("NextUpdateAfter = %v,%v", got, ok)
	}
	if _, ok := tr.NextUpdateAfter(45 * time.Minute); ok {
		t.Error("no update after the last one")
	}
	got, ok = tr.NextUpdateAfter(0)
	if !ok || got != 10*time.Minute {
		t.Errorf("NextUpdateAfter(0) = %v,%v", got, ok)
	}
}

func TestValidityInterval(t *testing.T) {
	tr := newsTrace()
	start, end := tr.ValidityInterval(15 * time.Minute)
	if start != 10*time.Minute || end != 20*time.Minute {
		t.Errorf("ValidityInterval = [%v,%v)", start, end)
	}
	start, end = tr.ValidityInterval(5 * time.Minute)
	if start != 0 || end != 10*time.Minute {
		t.Errorf("pre-trace interval = [%v,%v)", start, end)
	}
	start, end = tr.ValidityInterval(50 * time.Minute)
	if start != 45*time.Minute || end != time.Duration(math.MaxInt64) {
		t.Errorf("open interval = [%v,%v)", start, end)
	}
}

func TestMeanGapAndSummarize(t *testing.T) {
	tr := newsTrace()
	if got := tr.MeanGap(); got != 20*time.Minute {
		t.Errorf("MeanGap = %v, want 20m", got)
	}
	c := tr.Summarize()
	if c.NumUpdates != 3 || c.Name != "news" || c.Kind != Temporal {
		t.Errorf("Summarize = %+v", c)
	}

	sc := stockTrace().Summarize()
	if sc.MinValue != 99.5 || sc.MaxValue != 103 {
		t.Errorf("stock min/max = %v/%v", sc.MinValue, sc.MaxValue)
	}

	empty := &Trace{Name: "e", Kind: Temporal, Duration: time.Hour}
	if empty.MeanGap() != 0 {
		t.Error("empty trace MeanGap must be 0")
	}
}

func TestCharacteristicsString(t *testing.T) {
	if s := newsTrace().Summarize().String(); s == "" {
		t.Error("empty temporal characteristics string")
	}
	if s := stockTrace().Summarize().String(); s == "" {
		t.Error("empty value characteristics string")
	}
}

func TestKindString(t *testing.T) {
	if Temporal.String() != "temporal" || Value.String() != "value" {
		t.Error("Kind.String wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind must still format")
	}
}

// buildTrace constructs a valid trace from arbitrary raw gaps, for
// property tests.
func buildTrace(rawGaps []uint16) *Trace {
	tr := &Trace{Name: "prop", Kind: Temporal}
	at := time.Duration(0)
	for _, g := range rawGaps {
		at += time.Duration(g)*time.Second + time.Second
		tr.Updates = append(tr.Updates, Update{At: at})
	}
	tr.Duration = at + time.Hour
	return tr
}

func TestPropertyVersionMonotone(t *testing.T) {
	f := func(rawGaps []uint16, probes []uint32) bool {
		tr := buildTrace(rawGaps)
		if tr.Validate() != nil {
			return false
		}
		ats := make([]time.Duration, len(probes))
		for i, p := range probes {
			ats[i] = time.Duration(p) * time.Millisecond
		}
		sort.Slice(ats, func(i, j int) bool { return ats[i] < ats[j] })
		prev := -1
		for _, at := range ats {
			v := tr.VersionAt(at)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyValidityIntervalContainsProbe(t *testing.T) {
	f := func(rawGaps []uint16, probe uint32) bool {
		tr := buildTrace(rawGaps)
		at := time.Duration(probe) * time.Millisecond
		start, end := tr.ValidityInterval(at)
		return start <= at && at < end
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyVersionCountsUpdatesIn(t *testing.T) {
	f := func(rawGaps []uint16, probe uint32) bool {
		tr := buildTrace(rawGaps)
		at := time.Duration(probe) * time.Millisecond
		return tr.VersionAt(at) == len(tr.UpdatesIn(-1, at))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
