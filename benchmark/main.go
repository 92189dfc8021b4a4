// Command benchmark is the repository's benchmark: it starts the real
// webserver.Origin and webproxy.Proxy nodes in-process on loopback listeners
// it owns, drives them over real sockets from a seeded generator, checks the
// outputs, and prints every metric by name with its unit. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// Frozen defaults, repeated in BENCHMARK.json.
const (
	defaultSeconds = 12
	// runDeadline is the hard limit on one workload run, set-up and drain
	// included; past it the process exits without a result.
	runDeadline = 150 * time.Second
)

func main() {
	workload := flag.String("workload", "", "workload to run: hit-serve, miss-churn, push-fleet, pull-refresh; empty runs all four")
	seed := flag.Int64("seed", 1, "seed of the generated keys, bodies and schedules")
	seconds := flag.Int("seconds", defaultSeconds, "length of the measured phases, closed and fixed together")
	trace := flag.Int("trace", 0, "1 adds the traced phase and reports the per-layer metrics")
	repeat := flag.Int("repeat", 0, "runs per set: run two sets of this many runs of each workload and print medians, quartiles and spreads")
	outDir := flag.String("out", "benchmark/out", "directory for traces and the disk tier's temporary files")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) || *repeat < 0 {
		flag.Usage()
		os.Exit(2)
	}
	var run []params
	if *workload == "" {
		run = workloads
	} else if p, ok := workloadByName(*workload); ok {
		run = []params{p}
	} else {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatRuns(run, *seed, *seconds, *repeat, *outDir); err != nil {
			fmt.Fprintln(os.Stderr, "repeat:", err)
			os.Exit(1)
		}
		return
	}

	ok := true
	for _, p := range run {
		// No partial result: a run that hangs ends the process, and nothing
		// is printed for it.
		timer := time.AfterFunc(runDeadline, func() {
			fmt.Fprintf(os.Stderr, "%s: no result within %v\n", p.name, runDeadline)
			os.Exit(3)
		})
		res, err := runWorkload(p, runOpts{seed: *seed, seconds: *seconds, traced: *trace == 1, outDir: *outDir, log: os.Stderr})
		timer.Stop()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", p.name, err)
			os.Exit(1)
		}
		printMetrics(os.Stderr, res)
		line, err := resultJSON(res, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", p.name, err)
			os.Exit(1)
		}
		fmt.Println(line)
		ok = ok && len(res.violations) == 0
	}
	if !ok {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultJSON renders the one-line result: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func resultJSON(res *result, traced bool) (string, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := resultLine{
		Correct:   len(res.violations) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, m := range defs {
		out.Metrics[m.name] = metricValue{Value: res.values[m.name], Unit: m.unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}
