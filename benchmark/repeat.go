package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// unbounded are the timings a user sees that carry no bound; calibration
// tabulates them beside the end-to-end metrics to show why.
var unbounded = []string{"serve_rps", "serve_p50_ms", "serve_p99_ms", "prop_p50_ms", "prop_p99_ms", "cpu_cores"}

// repeatRuns is the calibration mode: two sets of n untraced runs of each
// workload, each run a fresh process with its own seed, exactly as the
// driver runs them. It prints, per metric and workload, each set's median
// and quartiles, the spread (interquartile range over median) and how far
// the second median is worse than the first, against the metric's bound.
func repeatRuns(run []params, seed int64, seconds, n int, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rows := append([]metricDef(nil), endToEnd...)
	for _, m := range perLayer {
		if slices.Contains(unbounded, m.name) {
			rows = append(rows, m)
		}
	}
	fmt.Printf("| workload | metric | unit | set | median | q1 | q3 | spread | bound | worse than set 1 |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|---|\n")
	for _, p := range run {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = make(map[string][]float64)
			for i := 0; i < n; i++ {
				runSeed := seed + int64(s*n+i)
				cmd := exec.Command(self, "--workload", p.name, "--seed", fmt.Sprint(runSeed),
					"--seconds", fmt.Sprint(seconds), "--trace", "0", "--out", outDir)
				var report bytes.Buffer
				cmd.Stderr = &report
				out, err := cmd.Output()
				if err != nil {
					os.Stderr.Write(report.Bytes())
					return fmt.Errorf("%s seed %d: %w", p.name, runSeed, err)
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var line resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
					return fmt.Errorf("%s seed %d: %w", p.name, runSeed, err)
				}
				if !line.Correct || line.Failed > 0 {
					return fmt.Errorf("%s seed %d: correct=%v failed=%d", p.name, runSeed, line.Correct, line.Failed)
				}
				for name, m := range line.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
				// The unbounded timings are only in the printed report.
				for _, l := range strings.Split(report.String(), "\n") {
					if f := strings.Fields(l); len(f) == 3 && slices.Contains(unbounded, f[0]) {
						if v, err := strconv.ParseFloat(f[1], 64); err == nil {
							sets[s][f[0]] = append(sets[s][f[0]], v)
						}
					}
				}
				fmt.Fprintf(os.Stderr, "%s set %d run %d:", p.name, s+1, i+1)
				for _, m := range rows {
					if vs := sets[s][m.name]; len(vs) > 0 {
						fmt.Fprintf(os.Stderr, " %s=%.4g", m.name, vs[len(vs)-1])
					}
				}
				fmt.Fprintln(os.Stderr)
			}
		}
		for _, m := range rows {
			var med [2]float64
			for s := range sets {
				q1, q2, q3 := quartiles(sets[s][m.name])
				med[s] = q2
				worse := ""
				if s == 1 {
					w := share(med[1]-med[0], med[0])
					if m.better == "higher" {
						w = -w
					}
					worse = fmt.Sprintf("%+.3f", w)
				}
				bound := "none"
				if m.bound > 0 {
					bound = fmt.Sprintf("%.2f", m.bound)
				}
				fmt.Printf("| %s | %s | %s | %d | %.4f | %.4f | %.4f | %.3f | %s | %s |\n",
					p.name, m.name, m.unit, s+1, q2, q1, q3, share(q3-q1, q2), bound, worse)
			}
		}
	}
	return nil
}
