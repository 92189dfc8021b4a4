package main

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenDir holds what `repro -ablations` prints, as report.txt, and
// every CSV series it writes.
const goldenDir = "testdata/ablations"

// TestAblationsGolden pins the paper's tables and figures: the report
// and the CSV series of `repro -ablations` must match goldenDir, numbers
// to a relative 1e-9, so that floating-point contraction on another
// architecture cannot fail it, and all other text byte for byte. The
// report's last line, which names the output directory, is left out. A
// change that moves a figure rewrites the files with
// `go test ./cmd/repro -run AblationsGolden -update` and explains each
// figure that moved.
func TestAblationsGolden(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-ablations", "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	report, _, found := strings.Cut(out.String(), "\nCSV series written to ")
	if !found {
		t.Fatal("the report does not name its output directory")
	}
	got := map[string]string{"report.txt": report}
	csvs, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range csvs {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got[filepath.Base(path)] = string(b)
	}

	if *update {
		if err := os.RemoveAll(goldenDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, text := range got {
			if err := os.WriteFile(filepath.Join(goldenDir, name), []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	want, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%d files written, %d golden", len(got), len(want))
	}
	for _, de := range want {
		b, err := os.ReadFile(filepath.Join(goldenDir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		text, ok := got[de.Name()]
		if !ok {
			t.Errorf("%s: not written", de.Name())
			continue
		}
		if line := firstDiff(text, string(b)); line > 0 {
			t.Errorf("%s:%d differs from the golden file", de.Name(), line)
		}
	}
}

// number matches a decimal number as the report and the CSVs print one.
var number = regexp.MustCompile(`[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?`)

// firstDiff compares got with want line by line: the numbers in a line
// to a relative 1e-9, the text around them byte for byte. It returns the
// first line, counted from 1, that differs, and 0 when none does.
func firstDiff(got, want string) int {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range max(len(g), len(w)) {
		if i >= len(g) || i >= len(w) || !sameLine(g[i], w[i]) {
			return i + 1
		}
	}
	return 0
}

func sameLine(got, want string) bool {
	gn, wn := number.FindAllStringIndex(got, -1), number.FindAllStringIndex(want, -1)
	if len(gn) != len(wn) {
		return false
	}
	gEnd, wEnd := 0, 0
	for i := range gn {
		if got[gEnd:gn[i][0]] != want[wEnd:wn[i][0]] {
			return false
		}
		a, errA := strconv.ParseFloat(got[gn[i][0]:gn[i][1]], 64)
		b, errB := strconv.ParseFloat(want[wn[i][0]:wn[i][1]], 64)
		if errA != nil || errB != nil || math.Abs(a-b) > 1e-9*max(math.Abs(a), math.Abs(b)) {
			return false
		}
		gEnd, wEnd = gn[i][1], wn[i][1]
	}
	return got[gEnd:] == want[wEnd:]
}
