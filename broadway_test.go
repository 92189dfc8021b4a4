package broadway_test

import (
	"bytes"
	"testing"
	"time"

	"broadway"
)

// These tests exercise the repository exclusively through the public
// facade, the way a downstream user would.

func TestFacadePresets(t *testing.T) {
	presets := map[string]*broadway.Trace{
		"cnn-fn":      broadway.TraceCNNFN(),
		"nyt-ap":      broadway.TraceNYTAP(),
		"nyt-reuters": broadway.TraceNYTReuters(),
		"guardian":    broadway.TraceGuardian(),
		"att":         broadway.TraceATT(),
		"yahoo":       broadway.TraceYahoo(),
	}
	for name, tr := range presets {
		if tr.Name != name {
			t.Errorf("preset %s has name %s", name, tr.Name)
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
		}
		byName, err := broadway.TraceByName(name)
		if err != nil {
			t.Errorf("TraceByName(%s): %v", name, err)
			continue
		}
		if byName.NumUpdates() != tr.NumUpdates() {
			t.Errorf("TraceByName(%s) differs from the direct constructor", name)
		}
	}
}

func TestFacadeGenerateAndSerialize(t *testing.T) {
	tr, err := broadway.GenerateNews(broadway.NewsConfig{
		Name: "t", Seed: 1, Duration: 24 * time.Hour, Updates: 50, StartHour: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := broadway.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := broadway.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumUpdates() != 50 {
		t.Errorf("round trip lost updates: %d", back.NumUpdates())
	}

	stock, err := broadway.GenerateStock(broadway.StockConfig{
		Name: "s", Seed: 2, Duration: time.Hour, Ticks: 100,
		Initial: 10, Min: 9, Max: 11, Volatility: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stock.NumUpdates() != 100 {
		t.Errorf("stock ticks = %d", stock.NumUpdates())
	}
}

func TestFacadeTemporalScenario(t *testing.T) {
	const delta = 10 * time.Minute
	res, err := broadway.RunTemporal(broadway.TemporalScenario{
		Trace: broadway.TraceCNNFN(),
		Delta: delta,
		Policy: func() broadway.Policy {
			return broadway.NewLIMD(broadway.LIMDConfig{Delta: delta})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Polls == 0 {
		t.Error("no polls recorded")
	}
	if f := res.Report.FidelityByViolations; f < 0.5 || f > 1 {
		t.Errorf("fidelity = %v", f)
	}
	if len(res.Log) != res.Report.Polls {
		t.Errorf("log length %d != polls %d", len(res.Log), res.Report.Polls)
	}
}

func TestFacadeMutualTemporalScenario(t *testing.T) {
	res, err := broadway.RunMutualTemporal(broadway.MutualTemporalScenario{
		Traces:          []*broadway.Trace{broadway.TraceCNNFN(), broadway.TraceNYTAP()},
		DeltaIndividual: 10 * time.Minute,
		DeltaMutual:     5 * time.Minute,
		Mode:            broadway.TriggerAll,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.FidelityBySync != 1 {
		t.Errorf("triggered mode fidelity = %v, want 1", res.Report.FidelityBySync)
	}
	if res.Report.TriggeredPolls == 0 {
		t.Error("no triggered polls recorded")
	}
}

func TestFacadeMutualValueScenario(t *testing.T) {
	for _, approach := range []broadway.ValueApproach{
		broadway.ApproachAdaptive, broadway.ApproachPartitioned,
	} {
		res, err := broadway.RunMutualValue(broadway.MutualValueScenario{
			TraceA:      broadway.TraceYahoo(),
			TraceB:      broadway.TraceATT(),
			DeltaMutual: 1.0,
			Approach:    approach,
		})
		if err != nil {
			t.Fatalf("%v: %v", approach, err)
		}
		if res.Report.Polls == 0 {
			t.Errorf("%v: no polls", approach)
		}
		if res.Report.FidelityByViolations < 0.8 {
			t.Errorf("%v: fidelity = %v", approach, res.Report.FidelityByViolations)
		}
	}
}

func TestFacadeDependencyGraph(t *testing.T) {
	g := broadway.NewDependencyGraph()
	urls := g.RelateDocument("/page.html",
		`<html><img src="/a.png"><script src="/b.js"></script></html>`)
	if len(urls) != 2 {
		t.Fatalf("urls = %v", urls)
	}
	group := g.GroupOf("/page.html")
	if len(group) != 3 {
		t.Errorf("group = %v", group)
	}
	if got := broadway.ExtractEmbedded(`<img src="/x.png">`); len(got) != 1 {
		t.Errorf("ExtractEmbedded = %v", got)
	}
}

func TestFacadePolicies(t *testing.T) {
	limd := broadway.NewLIMD(broadway.LIMDConfig{Delta: time.Minute})
	if limd.InitialTTR() != time.Minute {
		t.Error("LIMD initial TTR")
	}
	ttr := broadway.NewAdaptiveTTR(broadway.AdaptiveTTRConfig{Delta: 0.5})
	if ttr.Name() != "adaptive-ttr" {
		t.Error("AdaptiveTTR name")
	}
	per := broadway.NewPeriodic(time.Minute)
	if per.InitialTTR() != time.Minute {
		t.Error("Periodic initial TTR")
	}
	ctrl := broadway.NewMutualTimeController(broadway.MutualTimeConfig{
		Delta: time.Minute, Mode: broadway.TriggerFaster,
	})
	if ctrl.Mode() != broadway.TriggerFaster {
		t.Error("controller mode")
	}
	adaptive := broadway.NewMutualValueAdaptive(broadway.MutualValueConfig{Delta: 1})
	if adaptive.Gamma() != 1 {
		t.Error("adaptive gamma")
	}
	part := broadway.NewMutualValuePartitioned(broadway.MutualValueConfig{Delta: 1})
	if a, b := part.Deltas(); a+b != 1 {
		t.Error("partitioned split")
	}
}
