package cli

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"testing"
)

func TestStatus(t *testing.T) {
	parse := func(args ...string) error {
		fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Int("n", 0, "a number")
		return Parse(fs, args)
	}
	cases := []struct {
		name   string
		err    error
		status int
		stderr string
	}{
		{"success", parse("-n", "3"), 0, ""},
		{"-h", parse("-h"), 0, ""},
		{"-help", parse("-help"), 0, ""},
		{"undefined flag", parse("-bad-flag"), 2, ""},
		{"bad value", parse("-n", "x"), 2, ""},
		{"run error", errors.New("no input"), 1, "cmd: no input\n"},
		{"run error naming the command", errors.New("cmd: no input"), 1, "cmd: no input\n"},
	}
	for _, c := range cases {
		var stderr bytes.Buffer
		if got := Status("cmd", c.err, &stderr); got != c.status || stderr.String() != c.stderr {
			t.Errorf("%s: status %d, stderr %q; want %d, %q", c.name, got, stderr.String(), c.status, c.stderr)
		}
	}
}
