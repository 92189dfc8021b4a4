// Command mcsim runs a single consistency simulation and prints the
// evaluation report. It is the interactive counterpart of cmd/repro: one
// scenario, fully parameterized from flags.
//
// Usage:
//
//	# Individual temporal consistency: LIMD vs baseline on a preset trace
//	mcsim -scenario temporal -trace cnn-fn -delta 10m -policy limd
//	mcsim -scenario temporal -trace cnn-fn -delta 10m -policy periodic
//
//	# Mutual temporal consistency on a pair
//	mcsim -scenario mutual-temporal -trace cnn-fn -trace2 nyt-ap \
//	      -delta 10m -mdelta 5m -mode heuristic
//
//	# Mutual value consistency on the stock pair
//	mcsim -scenario mutual-value -trace yahoo -trace2 att \
//	      -vdelta 0.6 -approach partitioned
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"broadway/internal/core"
	"broadway/internal/experiments"
	"broadway/internal/trace"
	"broadway/internal/tracegen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mcsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mcsim", flag.ContinueOnError)
	scenario := fs.String("scenario", "temporal", "temporal | mutual-temporal | mutual-value")
	traceName := fs.String("trace", "cnn-fn", "trace preset or trace file path")
	trace2Name := fs.String("trace2", "nyt-ap", "second trace for mutual scenarios")
	policy := fs.String("policy", "limd", "temporal: limd | periodic")
	delta := fs.Duration("delta", 10*time.Minute, "Δt tolerance")
	mdelta := fs.Duration("mdelta", 5*time.Minute, "mutual δ tolerance (temporal)")
	vdelta := fs.Float64("vdelta", 0.6, "mutual δ tolerance (value, $)")
	mode := fs.String("mode", "triggered", "mutual-temporal: baseline | triggered | heuristic")
	approach := fs.String("approach", "adaptive", "mutual-value: adaptive | partitioned")
	withHistory := fs.Bool("history", false, "enable the modification-history extension")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *delta <= 0 || *delta > core.DefaultTTRMax:
		return fmt.Errorf("-delta %v outside (0, %v], the TTR max", *delta, core.DefaultTTRMax)
	case *mdelta <= 0:
		return fmt.Errorf("-mdelta %v must be positive", *mdelta)
	case *vdelta <= 0:
		return fmt.Errorf("-vdelta %v must be positive", *vdelta)
	}

	switch *scenario {
	case "temporal":
		tr, err := loadTrace(*traceName)
		if err != nil {
			return err
		}
		mk, err := policyFactory(*policy, *delta)
		if err != nil {
			return err
		}
		res, err := experiments.RunTemporal(experiments.TemporalScenario{
			Trace: tr, Delta: *delta, Policy: mk, WithHistory: *withHistory,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "trace %s, Δ=%v, policy %s\n", tr.Name, *delta, *policy)
		fmt.Fprintln(out, res.Report)
		return nil

	case "mutual-temporal":
		trA, err := loadTrace(*traceName)
		if err != nil {
			return err
		}
		trB, err := loadTrace(*trace2Name)
		if err != nil {
			return err
		}
		m, err := core.ParseTriggerMode(*mode)
		if err != nil {
			return err
		}
		res, err := experiments.RunMutualTemporal(experiments.MutualTemporalScenario{
			Traces:          []*trace.Trace{trA, trB},
			DeltaIndividual: *delta, DeltaMutual: *mdelta,
			Mode: m, WithHistory: *withHistory,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "pair %s + %s, Δ=%v, δ=%v, mode %s\n", trA.Name, trB.Name, *delta, *mdelta, m)
		fmt.Fprintln(out, res.Report)
		return nil

	case "mutual-value":
		trA, err := loadTrace(*traceName)
		if err != nil {
			return err
		}
		trB, err := loadTrace(*trace2Name)
		if err != nil {
			return err
		}
		ap, err := parseApproach(*approach)
		if err != nil {
			return err
		}
		res, err := experiments.RunMutualValue(experiments.MutualValueScenario{
			TraceA: trA, TraceB: trB,
			DeltaMutual: *vdelta, Approach: ap,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "pair %s + %s, δ=$%.2f, approach %s\n", trA.Name, trB.Name, *vdelta, ap)
		fmt.Fprintln(out, res.Report)
		return nil

	default:
		return fmt.Errorf("unknown scenario %q", *scenario)
	}
}

// loadTrace resolves a preset name or reads a trace file.
func loadTrace(name string) (*trace.Trace, error) {
	if tr, err := tracegen.ByName(name); err == nil {
		return tr, nil
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, fmt.Errorf("%q is neither a preset nor a readable file: %w", name, err)
	}
	defer f.Close()
	return trace.Read(f)
}

func policyFactory(name string, delta time.Duration) (func() core.Policy, error) {
	switch name {
	case "limd":
		return func() core.Policy { return core.NewLIMD(core.LIMDConfig{Delta: delta}) }, nil
	case "periodic":
		return func() core.Policy { return core.NewPeriodic(delta) }, nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}

func parseApproach(s string) (experiments.ValueApproach, error) {
	switch s {
	case "adaptive":
		return experiments.ApproachAdaptive, nil
	case "partitioned":
		return experiments.ApproachPartitioned, nil
	default:
		return 0, fmt.Errorf("unknown approach %q", s)
	}
}
