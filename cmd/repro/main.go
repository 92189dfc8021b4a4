// Command repro regenerates every table and figure of the paper's
// evaluation from the synthetic workloads and writes the results as CSV
// files plus a human-readable report.
//
// Usage:
//
//	repro [-out dir] [-only id] [-ascii] [-list]
//
// Experiment IDs: table1 table2 table3 fig3 fig4 fig5 fig6 fig7 fig8.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"broadway/internal/cli"
	"broadway/internal/experiments"
	"broadway/internal/plot"
)

func main() {
	os.Exit(cli.Status("repro", run(os.Args[1:], os.Stdout), os.Stderr))
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	outDir := fs.String("out", "results", "directory for CSV output")
	only := fs.String("only", "", "run a single experiment (e.g. fig3)")
	ascii := fs.Bool("ascii", true, "render ASCII charts to stdout")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	ablations := fs.Bool("ablations", false, "also run the extension/ablation studies")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	runners := experiments.AllRunners()
	if *ablations || *only != "" {
		runners = append(runners, experiments.AblationRunners()...)
	}
	if *list {
		for _, r := range runners {
			fmt.Fprintln(out, r.ID)
		}
		return nil
	}

	if *only != "" {
		var filtered []experiments.Runner
		for _, r := range runners {
			if r.ID == *only {
				filtered = append(filtered, r)
			}
		}
		if len(filtered) == 0 {
			return fmt.Errorf("unknown experiment %q (use -list)", *only)
		}
		runners = filtered
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fmt.Errorf("creating output dir: %w", err)
	}

	for _, r := range runners {
		res, err := r.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		if err := report(out, res, *outDir, *ascii); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "\nCSV series written to %s/\n", *outDir)
	return nil
}

func report(out io.Writer, res *experiments.Result, outDir string, ascii bool) error {
	fmt.Fprintf(out, "\n================================================================\n")
	fmt.Fprintf(out, "%s\n", res.Title)
	fmt.Fprintf(out, "================================================================\n")

	for _, tbl := range res.Tables {
		fmt.Fprintln(out)
		fmt.Fprint(out, plot.Table(tbl.Headers, tbl.Rows))
	}
	for i, chart := range res.Charts {
		name := fmt.Sprintf("%s_%c.csv", res.ID, 'a'+i)
		path := filepath.Join(outDir, name)
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if err := chart.WriteCSV(f); err != nil {
			f.Close()
			return fmt.Errorf("%s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if ascii {
			fmt.Fprintln(out)
			fmt.Fprint(out, chart.RenderASCII(72, 16))
		}
	}
	if len(res.Notes) > 0 {
		fmt.Fprintln(out)
		for _, n := range res.Notes {
			fmt.Fprintf(out, "  • %s\n", wrapNote(n))
		}
	}
	return nil
}

// wrapNote keeps notes on one logical bullet (terminal wrapping is fine).
func wrapNote(n string) string { return strings.TrimSpace(n) }
