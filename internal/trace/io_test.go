package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestRoundTrip(t *testing.T) {
	for _, orig := range []*Trace{newsTrace(), stockTrace()} {
		t.Run(orig.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Write(&buf, orig); err != nil {
				t.Fatalf("Write: %v", err)
			}
			got, err := Read(&buf)
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			assertTracesEqual(t, orig, got)
		})
	}
}

func assertTracesEqual(t *testing.T, want, got *Trace) {
	t.Helper()
	if got.Name != want.Name || got.Kind != want.Kind ||
		got.Duration != want.Duration || got.InitialValue != want.InitialValue {
		t.Fatalf("header mismatch: got %+v, want %+v", got, want)
	}
	if len(got.Updates) != len(want.Updates) {
		t.Fatalf("update count = %d, want %d", len(got.Updates), len(want.Updates))
	}
	for i := range want.Updates {
		if got.Updates[i] != want.Updates[i] {
			t.Fatalf("update %d = %+v, want %+v", i, got.Updates[i], want.Updates[i])
		}
	}
}

func TestWriteRejectsInvalid(t *testing.T) {
	tr := newsTrace()
	tr.Name = ""
	var buf bytes.Buffer
	if err := Write(&buf, tr); err == nil {
		t.Fatal("Write must reject invalid traces")
	}
}

func TestReadErrors(t *testing.T) {
	tests := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"bad magic", "not a trace\n"},
		{"missing separator", "# broadway trace v1\nname: x\nkind: temporal\nduration: 1h\n"},
		{"unknown kind", "# broadway trace v1\nname: x\nkind: weird\nduration: 1h\n---\n"},
		{"unknown header", "# broadway trace v1\nfoo: bar\n---\n"},
		{"bad duration", "# broadway trace v1\nname: x\nkind: temporal\nduration: soon\n---\n"},
		{"bad initial", "# broadway trace v1\nname: x\nkind: value\nduration: 1h\ninitial: abc\n---\n"},
		{"malformed header line", "# broadway trace v1\njunk\n---\n"},
		{"malformed record", "# broadway trace v1\nname: x\nkind: temporal\nduration: 1h\n---\n5m\n"},
		{"bad record instant", "# broadway trace v1\nname: x\nkind: temporal\nduration: 1h\n---\nxyz,0\n"},
		{"bad record value", "# broadway trace v1\nname: x\nkind: temporal\nduration: 1h\n---\n5m,zz\n"},
		{"invalid content", "# broadway trace v1\nname: x\nkind: temporal\nduration: 1h\n---\n5m,0\n4m,0\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(tt.input)); err == nil {
				t.Error("Read must fail")
			}
		})
	}
}

// TestReadRejectsNonFiniteValues: ParseFloat accepts NaN and ±Inf, but
// no trace may hold them; a NaN value would score as in sync forever.
func TestReadRejectsNonFiniteValues(t *testing.T) {
	const head = "# broadway trace v1\nname: x\nkind: value\nduration: 1h\n"
	for name, input := range map[string]string{
		"initial NaN":  head + "initial: NaN\n---\n1s,1\n",
		"initial +Inf": head + "initial: +Inf\n---\n",
		"update NaN":   head + "initial: 1\n---\n1s,NaN\n",
		"update +Inf":  head + "initial: 1\n---\n1s,+Inf\n",
		"update -Inf":  head + "initial: 1\n---\n1s,2\n2s,-Inf\n",
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(input)); !errors.Is(err, ErrNonFinite) {
				t.Errorf("Read = %v, want %v", err, ErrNonFinite)
			}
		})
	}
}

func TestReadSkipsBlankLines(t *testing.T) {
	input := "# broadway trace v1\nname: x\n\nkind: temporal\nduration: 1h\n---\n\n5m,0\n\n"
	tr, err := Read(strings.NewReader(input))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if tr.NumUpdates() != 1 {
		t.Errorf("NumUpdates = %d", tr.NumUpdates())
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(rawGaps []uint16, centsValues []int16, initial int16) bool {
		tr := &Trace{Name: "prop", Kind: Value, InitialValue: float64(initial) / 100}
		at := time.Duration(0)
		for i, g := range rawGaps {
			at += time.Duration(g)*time.Millisecond + time.Millisecond
			v := 0.0
			if i < len(centsValues) {
				v = float64(centsValues[i]) / 100
			}
			tr.Updates = append(tr.Updates, Update{At: at, Value: v})
		}
		tr.Duration = at + time.Minute

		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if got.NumUpdates() != tr.NumUpdates() || got.InitialValue != tr.InitialValue {
			return false
		}
		for i := range tr.Updates {
			if got.Updates[i] != tr.Updates[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
