package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"broadway/internal/cli"
	"broadway/internal/trace"
)

func TestPresetToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "att.trace")
	var buf bytes.Buffer
	if err := run([]string{"-preset", "att", "-o", path}, &buf); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "att" || tr.NumUpdates() != 653 {
		t.Errorf("trace = %s/%d", tr.Name, tr.NumUpdates())
	}
}

func TestPresetToStdout(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-preset", "cnn-fn"}, &buf); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumUpdates() != 113 {
		t.Errorf("updates = %d", tr.NumUpdates())
	}
}

func TestCustomNews(t *testing.T) {
	path := filepath.Join(t.TempDir(), "n.trace")
	var buf bytes.Buffer
	err := run([]string{"-news", "-name", "mysite", "-duration", "24h",
		"-updates", "42", "-start-hour", "8", "-o", path}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := os.Open(path)
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "mysite" || tr.NumUpdates() != 42 {
		t.Errorf("trace = %s/%d", tr.Name, tr.NumUpdates())
	}
}

func TestCustomStock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.trace")
	var buf bytes.Buffer
	err := run([]string{"-stock", "-name", "mystock", "-duration", "1h",
		"-ticks", "99", "-initial", "50", "-min", "48", "-max", "52", "-o", path}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := os.Open(path)
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumUpdates() != 99 {
		t.Errorf("ticks = %d", tr.NumUpdates())
	}
}

func TestSummarize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "y.trace")
	var buf bytes.Buffer
	if err := run([]string{"-preset", "yahoo", "-o", path}, &buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := run([]string{"-summarize", path}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2204 updates") {
		t.Errorf("summary = %q", buf.String())
	}
	if err := run([]string{"-summarize", path, "-preset", "att"}, &buf); err == nil {
		t.Error("-summarize with -preset must fail, not let one win")
	}
}

func TestErrors(t *testing.T) {
	tests := [][]string{
		{},                      // no action
		{"-preset", "bogus"},    // unknown preset
		{"-summarize", "/nope"}, // unreadable file
		{"-news", "-updates", "-5"},
		{"-stock", "-min", "10", "-max", "5", "-initial", "7"},
		{"-bad-flag"},
		{"-stock", "-news"}, // more than one action
		{"-preset", "att", "-news"},
	}
	for _, args := range tests {
		var buf, stderr bytes.Buffer
		err := run(args, &buf)
		if err == nil {
			t.Errorf("run(%v) must fail", args)
			continue
		}
		if cli.Status("tracegen", err, &stderr) == 2 {
			continue // a flag error: the FlagSet printed it
		}
		if msg := stderr.String(); !strings.HasPrefix(msg, "tracegen: ") || strings.HasPrefix(msg, "tracegen: tracegen:") {
			t.Errorf("run(%v) prints %q: want the command name once", args, msg)
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
		if got := cli.Status("tracegen", run([]string{c.arg}, io.Discard), &stderr); got != c.status || stderr.Len() > 0 {
			t.Errorf("%s: exit status %d, main printed %q; want %d and nothing", c.arg, got, stderr.String(), c.status)
		}
	}
}

type closeFails struct{ bytes.Buffer }

func (*closeFails) Close() error { return errors.New("disk full") }

func TestOutputCloseError(t *testing.T) {
	defer func(orig func(string) (io.WriteCloser, error)) { create = orig }(create)
	create = func(string) (io.WriteCloser, error) { return new(closeFails), nil }
	if err := run([]string{"-preset", "att", "-o", "att.trace"}, io.Discard); err == nil || err.Error() != "disk full" {
		t.Errorf("err = %v, want the -o file's Close error", err)
	}
}
