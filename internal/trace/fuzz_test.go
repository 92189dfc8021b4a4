package trace

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzRead exercises the trace-file parser with arbitrary bytes: it must
// reject garbage gracefully (error, not panic), accept only finite values,
// and round-trip every field of whatever it accepts.
func FuzzRead(f *testing.F) {
	var seed bytes.Buffer
	if err := Write(&seed, &Trace{
		Name: "seed", Kind: Value, Duration: 1000, InitialValue: 1,
		Updates: []Update{{At: 1, Value: 2}, {At: 5, Value: 3}},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("# broadway trace v1\nname: x\nkind: temporal\nduration: 1h\n---\n")
	f.Add("junk")
	f.Add("# broadway trace v1\nname: x\nkind: value\nduration: 1h\ninitial: NaN\n---\n1s,+Inf\n")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := Read(strings.NewReader(input))
		if err != nil {
			return
		}
		if !finite(tr.InitialValue) || slices.ContainsFunc(tr.Updates, func(u Update) bool { return !finite(u.Value) }) {
			t.Fatalf("accepted a non-finite value: initial %v, updates %v", tr.InitialValue, tr.Updates)
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("accepted trace failed to serialize: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.Name != tr.Name || back.Kind != tr.Kind || back.Duration != tr.Duration ||
			back.InitialValue != tr.InitialValue || !slices.Equal(back.Updates, tr.Updates) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", back, tr)
		}
	})
}
