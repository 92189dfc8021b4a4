package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"broadway/internal/cli"
	"broadway/internal/trace"
	"broadway/internal/tracegen"
)

func TestTemporalScenario(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-scenario", "temporal", "-trace", "cnn-fn", "-delta", "10m", "-policy", "limd"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "cnn-fn") || !strings.Contains(out, "polls=") {
		t.Errorf("output = %q", out)
	}
}

func TestMutualTemporalScenario(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-scenario", "mutual-temporal", "-trace", "cnn-fn",
		"-trace2", "nyt-ap", "-mode", "heuristic"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fSync=") {
		t.Errorf("output = %q", buf.String())
	}
}

func TestMutualValueScenario(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-scenario", "mutual-value", "-trace", "yahoo",
		"-trace2", "att", "-vdelta", "1.0", "-approach", "partitioned"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "partitioned") {
		t.Errorf("output = %q", buf.String())
	}
}

func TestTraceFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, tracegen.CNNFN()); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var buf bytes.Buffer
	if err := run([]string{"-scenario", "temporal", "-trace", path}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cnn-fn") {
		t.Errorf("output = %q", buf.String())
	}
}

func TestErrors(t *testing.T) {
	tests := [][]string{
		{"-scenario", "bogus"},
		{"-scenario", "temporal", "-trace", "no-such-trace"},
		{"-scenario", "temporal", "-policy", "bogus"},
		{"-scenario", "mutual-temporal", "-mode", "bogus"},
		{"-scenario", "mutual-value", "-trace", "yahoo", "-trace2", "att", "-approach", "bogus"},
		{"-not-a-flag"},
		{"-delta", "0"},
		{"-delta", "-1s"},
		{"-delta", "2h"}, // above the 60 min TTR max
		{"-scenario", "mutual-temporal", "-mdelta", "0"},
		{"-scenario", "mutual-temporal", "-mdelta", "-1s"},
		{"-scenario", "mutual-value", "-trace", "yahoo", "-trace2", "att", "-vdelta", "0"},
		{"-scenario", "mutual-value", "-trace", "yahoo", "-trace2", "att", "-vdelta", "-0.5"},
	}
	for _, args := range tests {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v) must fail", args)
		}
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
		if got := cli.Status("mcsim", run([]string{c.arg}, io.Discard), &stderr); got != c.status || stderr.Len() > 0 {
			t.Errorf("%s: exit status %d, main printed %q; want %d and nothing", c.arg, got, stderr.String(), c.status)
		}
	}
}
