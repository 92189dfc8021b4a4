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

// TestParseRefusesStrayArguments: an argument left after the flags fails
// as a bad flag does, with exit status 2 and one error line on the flag
// set's output, wherever it stands among the flags.
func TestParseRefusesStrayArguments(t *testing.T) {
	const want = "unexpected argument \"stray\": cmd takes flags only\n"
	for _, args := range [][]string{{"stray"}, {"-n", "3", "stray"}, {"stray", "-n", "3"}} {
		var out, stderr bytes.Buffer
		fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
		fs.SetOutput(&out)
		fs.Int("n", 0, "a number")
		if got := Status("cmd", Parse(fs, args), &stderr); got != 2 || out.String() != want || stderr.Len() > 0 {
			t.Errorf("%q: status %d, flag output %q, stderr %q; want 2, %q and nothing", args, got, out.String(), stderr.String(), want)
		}
	}
}
