package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"broadway/internal/cli"
)

func TestList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"table1", "table2", "table3", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"} {
		if !strings.Contains(out, id) {
			t.Errorf("missing %s in -list output", id)
		}
	}
}

func TestSingleExperimentWritesCSV(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"-only", "fig4", "-out", dir, "-ascii=false"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig4_a.csv", "fig4_b.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("reading %s: %v", name, err)
		}
		if !strings.HasPrefix(string(data), "series,") {
			t.Errorf("%s: missing CSV header", name)
		}
	}
	if !strings.Contains(buf.String(), "Figure 4") {
		t.Error("missing title in report")
	}
}

func TestUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-only", "fig99", "-out", t.TempDir()}, &buf); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}

func TestTableExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-only", "table2", "-out", t.TempDir()}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "cnn-fn") || !strings.Contains(out, "113") {
		t.Errorf("table2 output incomplete:\n%s", out)
	}
}

func TestAblationRunnable(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-only", "ablation-push", "-out", t.TempDir(), "-ascii=false"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "guardian") {
		t.Error("ablation-push output incomplete")
	}
}

func TestASCIIChartsRendered(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-only", "fig4", "-out", t.TempDir(), "-ascii=true"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "x: time (hours)") {
		t.Error("ASCII chart axes missing")
	}
}

func TestBadFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &buf); err == nil {
		t.Fatal("bad flag must fail")
	}
}

// TestFlagErrorStatus: main adds nothing to what the FlagSet printed: a
// bad flag exits 2, and -h exits 0 with no error line.
func TestFlagErrorStatus(t *testing.T) {
	for _, c := range []struct {
		arg    string
		status int
	}{{"-bad-flag", 2}, {"-h", 0}} {
		var stderr bytes.Buffer
		if got := cli.Status("repro", run([]string{c.arg}, io.Discard), &stderr); got != c.status || stderr.Len() > 0 {
			t.Errorf("%s: exit status %d, main printed %q; want %d and nothing", c.arg, got, stderr.String(), c.status)
		}
	}
}
