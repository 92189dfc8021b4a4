// Command tracegen generates synthetic workload traces and writes them in
// the repository's trace file format.
//
// Usage:
//
//	tracegen -preset cnn-fn -o cnn-fn.trace
//	tracegen -news -name mysite -duration 48h -updates 200 -start-hour 9 -seed 7 -o my.trace
//	tracegen -stock -name mystock -duration 3h -ticks 1000 -initial 50 -min 48 -max 52 -o my.trace
//	tracegen -summarize my.trace
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"broadway/internal/trace"
	"broadway/internal/tracegen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, message(err))
		os.Exit(1)
	}
}

// message is the line main prints for err: the command name once, which
// internal/tracegen's own errors already start with.
func message(err error) string {
	return "tracegen: " + strings.TrimPrefix(err.Error(), "tracegen: ")
}

// create opens the -o file; a test swaps it to see a Close error.
var create = func(name string) (io.WriteCloser, error) { return os.Create(name) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	preset := fs.String("preset", "", "generate a paper preset (cnn-fn, nyt-ap, nyt-reuters, guardian, att, yahoo)")
	news := fs.Bool("news", false, "generate a custom news trace")
	stock := fs.Bool("stock", false, "generate a custom stock trace")
	summarize := fs.String("summarize", "", "summarize an existing trace file and exit")
	out := fs.String("o", "", "output file (default stdout)")

	name := fs.String("name", "custom", "trace name")
	seed := fs.Int64("seed", 1, "random seed")
	duration := fs.Duration("duration", 48*3600e9, "observation window")
	updates := fs.Int("updates", 200, "news: number of updates")
	startHour := fs.Float64("start-hour", 13, "news: hour of day at trace start")
	burst := fs.Float64("burst", 0.15, "news: burst fraction")
	jitter := fs.Float64("jitter", 0.4, "news: hourly intensity jitter")
	ticks := fs.Int("ticks", 1000, "stock: number of ticks")
	initial := fs.Float64("initial", 100, "stock: initial price")
	minP := fs.Float64("min", 95, "stock: price floor")
	maxP := fs.Float64("max", 105, "stock: price cap")
	vol := fs.Float64("vol", 0.1, "stock: per-tick volatility ($)")
	reversion := fs.Float64("reversion", 0.02, "stock: mean reversion strength")
	if err := fs.Parse(args); err != nil {
		return err
	}
	actions := 0
	for _, set := range []bool{*preset != "", *news, *stock, *summarize != ""} {
		if set {
			actions++
		}
	}
	if actions != 1 {
		return errors.New("exactly one of -preset, -news, -stock or -summarize is required")
	}

	if *summarize != "" {
		f, err := os.Open(*summarize)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err := trace.Read(f)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, tr.Summarize())
		return nil
	}

	var (
		tr  *trace.Trace
		err error
	)
	switch {
	case *preset != "":
		tr, err = tracegen.ByName(*preset)
	case *news:
		tr, err = tracegen.News(tracegen.NewsConfig{
			Name: *name, Seed: *seed, Duration: *duration, Updates: *updates,
			StartHour: *startHour, BurstFraction: *burst, ProfileJitter: *jitter,
		})
	default: // -stock
		tr, err = tracegen.Stock(tracegen.StockConfig{
			Name: *name, Seed: *seed, Duration: *duration, Ticks: *ticks,
			Initial: *initial, Min: *minP, Max: *maxP,
			Volatility: *vol, Reversion: *reversion,
		})
	}
	if err != nil {
		return err
	}

	if *out == "" {
		err = trace.Write(stdout, tr)
	} else {
		err = writeFile(*out, tr)
	}
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, tr.Summarize())
	return nil
}

func writeFile(path string, tr *trace.Trace) error {
	f, err := create(path)
	if err != nil {
		return err
	}
	return errors.Join(trace.Write(f, tr), f.Close())
}
