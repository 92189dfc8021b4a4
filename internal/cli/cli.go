// Package cli is what every command does with its flags' errors. A
// flag.FlagSet built with flag.ContinueOnError prints a bad flag's error
// above its usage itself, and prints the usage alone for -h and -help; a
// command's main must not print either again.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
)

// reported is an error the FlagSet has already printed.
type reported struct{ error }

func (r reported) Unwrap() error { return r.error }

// Parse parses args into fs, marking a failure as printed by fs. The
// commands take flags only, so an argument left over after them fails
// too, its one error line printed to fs's output.
func Parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return reported{err}
	}
	if fs.NArg() > 0 {
		err := fmt.Errorf("unexpected argument %q: %s takes flags only", fs.Arg(0), fs.Name())
		fmt.Fprintln(fs.Output(), err)
		return reported{err}
	}
	return nil
}

// Status is the exit status of the command name whose run returned err,
// after it writes to stderr whatever the user has not yet read: 0 on
// success and for -h or -help; 2, writing nothing, for a bad flag or a
// stray argument; and 1 for any other error, written as "<name>: <err>"
// with the name once.
func Status(name string, err error, stderr io.Writer) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if errors.As(err, new(reported)) {
		return 2
	}
	fmt.Fprintln(stderr, name+": "+strings.TrimPrefix(err.Error(), name+": "))
	return 1
}
