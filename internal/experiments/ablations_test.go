package experiments

import (
	"strconv"
	"strings"
	"testing"

	"broadway/internal/trace"
	"broadway/internal/tracegen"
)

func TestAblationLIMDParameters(t *testing.T) {
	res, err := AblationLIMDParameters()
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The l sweep (rows 0..3, adaptive m): polls must fall and fidelity
	// must not rise as l grows (optimistic = fewer polls, lower
	// fidelity).
	prevPolls := 1 << 30
	prevFid := 2.0
	for i := 0; i < 4; i++ {
		polls, _ := strconv.Atoi(rows[i][2])
		fid, _ := strconv.ParseFloat(rows[i][3], 64)
		if polls > prevPolls {
			t.Errorf("row %d: polls %d rose with l", i, polls)
		}
		if fid > prevFid+1e-9 {
			t.Errorf("row %d: fidelity %v rose with l", i, fid)
		}
		prevPolls, prevFid = polls, fid
	}
}

func TestAblationHistoryExtension(t *testing.T) {
	res, err := AblationHistoryExtension()
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	plain, _ := strconv.ParseFloat(rows[0][2], 64)
	inferred, _ := strconv.ParseFloat(rows[1][2], 64)
	history, _ := strconv.ParseFloat(rows[2][2], 64)
	// §5.1's claim: more violation visibility → better fidelity.
	if !(plain <= inferred && inferred <= history) {
		t.Errorf("fidelity ordering violated: plain=%v inferred=%v history=%v",
			plain, inferred, history)
	}
	if history <= plain {
		t.Error("the history extension must measurably improve fidelity")
	}
}

func TestAblationHeuristicTolerance(t *testing.T) {
	res, err := AblationHeuristicTolerance()
	if err != nil {
		t.Fatal(err)
	}
	fids := res.Charts[1].Series[0].Y
	// Looser tolerance (more triggering) must not reduce fidelity.
	for i := 1; i < len(fids); i++ {
		if fids[i] > fids[i-1]+1e-9 {
			t.Errorf("fidelity rose from tolerance point %d to %d: %v → %v",
				i-1, i, fids[i-1], fids[i])
		}
	}
	if fids[0] <= fids[len(fids)-1] {
		t.Error("the tolerance knob must have a measurable effect")
	}
}

func TestAblationPushVsPoll(t *testing.T) {
	res, err := AblationPushVsPoll()
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		pushMsgs, _ := strconv.Atoi(row[1])
		tr, err := tracegen.ByName(row[0])
		if err != nil {
			t.Fatal(err)
		}
		// Push = exactly one message per update plus the initial
		// transfer.
		if pushMsgs != tr.NumUpdates()+1 {
			t.Errorf("%s: push msgs = %d, want %d", row[0], pushMsgs, tr.NumUpdates()+1)
		}
	}
	// For the fast Guardian trace, push must cost more messages than
	// the periodic poller — the paper's motivation for relaxing strong
	// consistency.
	guardian := rows[3]
	pushMsgs, _ := strconv.Atoi(guardian[1])
	periodic, _ := strconv.Atoi(guardian[4])
	if pushMsgs <= periodic {
		t.Errorf("guardian: push %d should exceed periodic %d", pushMsgs, periodic)
	}
}

func TestAblationGroupSize(t *testing.T) {
	res, err := AblationGroupSize()
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	if len(rows) != 9 { // n ∈ {2,3,4} × 3 modes
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row[1] != "triggered" {
			continue
		}
		fid, _ := strconv.ParseFloat(row[4], 64)
		if fid != 1 {
			t.Errorf("n=%s: triggered fidelity = %v, want exactly 1", row[0], fid)
		}
	}
	// Triggered polls grow with group size.
	var trig []int
	for _, row := range rows {
		if row[1] == "triggered" {
			v, _ := strconv.Atoi(row[3])
			trig = append(trig, v)
		}
	}
	for i := 1; i < len(trig); i++ {
		if trig[i] <= trig[i-1] {
			t.Errorf("triggered polls did not grow with n: %v", trig)
		}
	}
}

func TestRunMutualTemporalValidation(t *testing.T) {
	if _, err := RunMutualTemporal(MutualTemporalScenario{}); err == nil {
		t.Error("group of zero traces must fail")
	}
	if _, err := RunMutualTemporal(MutualTemporalScenario{
		Traces: []*trace.Trace{tracegen.CNNFN()},
	}); err == nil {
		t.Error("group of one trace must fail")
	}
}

func TestAblationClientWorkload(t *testing.T) {
	res, err := AblationClientWorkload()
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Zipf skew: the first catalog object must receive the most requests.
	first, _ := strconv.Atoi(rows[0][1])
	last, _ := strconv.Atoi(rows[3][1])
	if first <= last {
		t.Errorf("popularity skew missing: first=%d last=%d", first, last)
	}
	// Every requested object must have been admitted and refreshed.
	for _, row := range rows {
		reqs, _ := strconv.Atoi(row[1])
		polls, _ := strconv.Atoi(row[2])
		if reqs > 0 && polls == 0 {
			t.Errorf("%s requested %d times but never polled", row[0], reqs)
		}
	}
	if len(res.Notes) == 0 || !strings.Contains(res.Notes[0], "hit ratio") {
		t.Error("missing hit-ratio note")
	}
}

func TestAblationIndividualValue(t *testing.T) {
	res, err := AblationIndividualValue()
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	if len(rows) != 8 { // 2 stocks × 4 Δv points
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		adPolls, _ := strconv.Atoi(row[2])
		adFid, _ := strconv.ParseFloat(row[3], 64)
		perPolls, _ := strconv.Atoi(row[4])
		perFid, _ := strconv.ParseFloat(row[5], 64)
		// The adaptive policy must poll less than the floor poller.
		if adPolls >= perPolls {
			t.Errorf("%s Δv=%s: adaptive %d >= periodic %d", row[0], row[1], adPolls, perPolls)
		}
		// The floor poller tracks at least as faithfully as the
		// adaptive policy at the same Δv. (It is not perfect: a single
		// tick can exceed a tight Δv and violate until the next poll.)
		if perFid < adFid-0.02 {
			t.Errorf("%s Δv=%s: periodic fidelity %v below adaptive %v", row[0], row[1], perFid, adFid)
		}
	}
	// Looser Δv must cost the adaptive policy fewer polls (per stock).
	for _, stockRows := range [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}} {
		prev := 1 << 30
		for _, i := range stockRows {
			polls, _ := strconv.Atoi(rows[i][2])
			if polls > prev {
				t.Errorf("row %d: adaptive polls rose with Δv", i)
			}
			prev = polls
		}
	}
}

func TestAblationLatency(t *testing.T) {
	res, err := AblationLatency()
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	base, _ := strconv.Atoi(rows[0][2])
	for _, row := range rows {
		polls, _ := strconv.Atoi(row[2])
		if polls < base*9/10 || polls > base*11/10 {
			t.Errorf("latency %s: polls %d deviates >10%% from baseline %d", row[0], polls, base)
		}
		fid, _ := strconv.ParseFloat(row[3], 64)
		baseFid, _ := strconv.ParseFloat(rows[0][3], 64)
		if fid < baseFid-0.05 {
			t.Errorf("latency %s: fidelity %v dropped vs %v", row[0], fid, baseFid)
		}
	}
}
