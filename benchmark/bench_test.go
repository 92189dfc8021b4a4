package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
	"time"
)

func planFor(t *testing.T, p params, seed int64) *plan {
	t.Helper()
	pl, err := newPlan(p, seed, 2, 5*time.Second, 15*time.Second, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestSameSeedSameSchedules(t *testing.T) {
	for _, p := range workloads {
		a, b := planFor(t, p, 7).scheduleBytes(), planFor(t, p, 7).scheduleBytes()
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two plans from seed 7 differ", p.name)
		}
		if c := planFor(t, p, 8).scheduleBytes(); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 give the same schedules", p.name)
		}
	}
}

func TestUpdateGapPerKey(t *testing.T) {
	for _, p := range workloads {
		pl := planFor(t, p, 3)
		if len(pl.updates) == 0 {
			t.Fatalf("%s: no updates scheduled", p.name)
		}
		last := make(map[int]time.Duration)
		prev := time.Duration(0)
		for _, u := range pl.updates {
			if u.at < prev {
				t.Fatalf("%s: update schedule not ascending", p.name)
			}
			prev = u.at
			for _, k := range pl.units[u.unit].keys {
				if at, ok := last[k]; ok && u.at-at < minUpdateGap {
					t.Fatalf("%s: key %d updated at %v and %v, under %v apart", p.name, k, at, u.at, minUpdateGap)
				}
				last[k] = u.at
				if k >= p.tracked {
					t.Fatalf("%s: update of untracked key %d", p.name, k)
				}
			}
		}
	}
}

func TestGroupsAreAQuarterOfTracked(t *testing.T) {
	for _, p := range workloads {
		pl := planFor(t, p, 1)
		grouped := 0
		for _, k := range pl.keys {
			if k.group != "" {
				grouped++
			}
		}
		if want := p.tracked / 4 / groupSize * groupSize; grouped != want {
			t.Errorf("%s: %d grouped keys, want %d", p.name, grouped, want)
		}
		for _, u := range pl.units {
			if n := len(u.keys); n != 1 && n != groupSize {
				t.Errorf("%s: unit of %d keys", p.name, n)
			}
		}
	}
}

func TestBodies(t *testing.T) {
	b0 := initialBody(5, 9, "/s1/k00009", 1024)
	b1 := nextBody(b0, 5, 9, 1)
	if len(b0) != 1024 || len(b1) != 1024 {
		t.Fatalf("sizes %d, %d", len(b0), len(b1))
	}
	if !bytes.HasPrefix(b0, []byte("key=/s1/k00009 rev=00000000\n")) || !bytes.HasPrefix(b1, []byte("key=/s1/k00009 rev=00000001\n")) {
		t.Fatalf("headers %q, %q", b0[:28], b1[:28])
	}
	diff := 0
	for i := range b0 {
		if b0[i] != b1[i] {
			diff++
		}
	}
	if diff < 1024*2/100 || diff > 1024*8/100 {
		t.Errorf("%d of 1024 bytes differ, want about 5 %%", diff)
	}
	if !bytes.Equal(b1, nextBody(b0, 5, 9, 1)) {
		t.Error("nextBody is not a function of its arguments")
	}
	if bodyDigest(b0) == bodyDigest(b1) {
		t.Error("revisions share a digest")
	}
}

// Python: statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) ==
// [3.5, 13.5, 31.0].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	for i, c := range [][2]float64{{q1, 3.5}, {q2, 13.5}, {q3, 31}} {
		if math.Abs(c[0]-c[1]) > 1e-9 {
			t.Errorf("quartile %d = %v, want %v", i+1, c[0], c[1])
		}
	}
	// quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of three = %v %v %v", q1, q2, q3)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "parent", ID: 1, Start: 0, End: 100_000},
		{Name: "child", ID: 2, Parent: 1, Start: 10_000, End: 30_000},
		{Name: "child", ID: 3, Parent: 1, Start: 20_000, End: 50_000},  // overlaps the first
		{Name: "child", ID: 4, Parent: 1, Start: 90_000, End: 120_000}, // runs past the parent
		{Name: "grandchild", ID: 5, Parent: 3, Start: 25_000, End: 30_000},
		{Name: "backwards", ID: 6, Parent: 1, Start: 70_000, End: 60_000}, // a hop overtaken: covers nothing
	}
	self := selfTimes(spans)
	if got := self["parent"]; len(got) != 1 || got[0] != 50 {
		t.Errorf("parent self time = %v µs, want [50]", got) // 100 - (10..50) - (90..100)
	}
	if got := self["child"]; len(got) != 3 || got[0] != 20 || got[1] != 25 || got[2] != 30 {
		t.Errorf("child self times = %v µs, want [20 25 30]", got)
	}
	if got := self["backwards"]; len(got) != 1 || got[0] != -10 {
		t.Errorf("backwards span = %v µs, want [-10]", got)
	}
}

// BENCHMARK.json repeats the metric tables and the frozen defaults.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, default %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q %q", i, w.Name, w.Why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: %+v, want %+v", kind, i, m, w)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != w.bound) {
				t.Errorf("%s %s: bound %v, want %v", kind, m.Name, m.Bound, w.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract", len(perLayer), len(endToEnd))
	}
}

// Every workload, briefly: nothing fails, every check passes, every declared
// metric is computed. -short keeps the untraced runs only.
func TestWorkloadsSmoke(t *testing.T) {
	for _, p := range workloads {
		if raceEnabled && p.name == "push-fleet" {
			// Several times slower, the fleet cannot hold 400 updates/s with
			// 192 KiB bodies on two cores; hit-serve drives the same
			// topology under the detector.
			continue
		}
		for _, traced := range []bool{false, true} {
			if traced && testing.Short() {
				continue
			}
			res, err := runWorkload(p, runOpts{seed: 11, seconds: 4, traced: traced, outDir: t.TempDir(), log: io.Discard})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", p.name, traced, err)
			}
			if res.failed != 0 || len(res.violations) != 0 {
				t.Errorf("%s traced=%v: %d of %d failed, violations %v", p.name, traced, res.failed, res.attempted, res.violations)
			}
			defs := endToEnd
			if traced {
				defs = append(append([]metricDef(nil), endToEnd...), perLayer...)
			}
			for _, m := range defs {
				if _, ok := res.values[m.name]; !ok {
					t.Errorf("%s traced=%v: metric %s not computed", p.name, traced, m.name)
				}
			}
			for _, m := range endToEnd {
				if v := res.values[m.name]; !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", p.name, m.name, v)
				}
			}
			line, err := resultJSON(res, traced)
			if err != nil {
				t.Fatal(err)
			}
			var parsed map[string]json.RawMessage
			if err := json.Unmarshal([]byte(line), &parsed); err != nil || len(parsed) != 4 {
				t.Errorf("result line %s: %v", line, err)
			}
		}
	}
}
