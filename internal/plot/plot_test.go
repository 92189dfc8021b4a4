package plot

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func sampleChart() *Chart {
	return &Chart{
		Title:  "test chart",
		XLabel: "x",
		YLabel: "y",
		Series: []Series{
			{Name: "up", X: []float64{0, 1, 2, 3}, Y: []float64{0, 1, 2, 3}},
			{Name: "down", X: []float64{0, 1, 2, 3}, Y: []float64{3, 2, 1, 0}},
		},
	}
}

func TestValidate(t *testing.T) {
	c := sampleChart()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c.Series[0].Y = c.Series[0].Y[:2]
	if err := c.Validate(); err == nil {
		t.Fatal("mismatched lengths must fail validation")
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleChart().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "series,x,y" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 1+8 {
		t.Errorf("lines = %d, want 9", len(lines))
	}
	if lines[1] != "up,0,0" {
		t.Errorf("first row = %q", lines[1])
	}
}

func TestWriteCSVEscaping(t *testing.T) {
	c := &Chart{
		Title: "t", XLabel: `x,label`, YLabel: `y"label`,
		Series: []Series{{Name: "a,b", X: []float64{1}, Y: []float64{2}}},
	}
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"x,label"`) || !strings.Contains(out, `"y""label"`) {
		t.Errorf("labels not escaped: %q", out)
	}
	if !strings.Contains(out, `"a,b",1,2`) {
		t.Errorf("series name not escaped: %q", out)
	}
}

func TestWriteCSVInvalidChart(t *testing.T) {
	c := sampleChart()
	c.Series[0].Y = nil
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err == nil {
		t.Fatal("invalid chart must not serialize")
	}
}

func TestRenderASCII(t *testing.T) {
	out := sampleChart().RenderASCII(40, 10)
	if !strings.Contains(out, "test chart") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "* up") || !strings.Contains(out, "o down") {
		t.Error("missing legend")
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Error("missing data markers")
	}
	// Frame present.
	if !strings.Contains(out, "+---") {
		t.Error("missing x axis")
	}
}

func TestRenderASCIIEmpty(t *testing.T) {
	c := &Chart{Title: "empty"}
	out := c.RenderASCII(40, 10)
	if !strings.Contains(out, "(no data)") {
		t.Errorf("out = %q", out)
	}
}

func TestRenderASCIIConstantSeries(t *testing.T) {
	c := &Chart{
		Title:  "flat",
		Series: []Series{{Name: "c", X: []float64{0, 1}, Y: []float64{5, 5}}},
	}
	out := c.RenderASCII(30, 8)
	if !strings.Contains(out, "*") {
		t.Error("flat series must still render")
	}
}

func TestRenderASCIITinyDimensionsClamped(t *testing.T) {
	out := sampleChart().RenderASCII(1, 1)
	if len(out) == 0 {
		t.Error("render with tiny dimensions must still produce output")
	}
}

func TestRenderASCIISinglePoint(t *testing.T) {
	c := &Chart{
		Title:  "dot",
		Series: []Series{{Name: "p", X: []float64{1}, Y: []float64{1}}},
	}
	if out := c.RenderASCII(30, 8); !strings.Contains(out, "*") {
		t.Errorf("single point must render: %q", out)
	}
}

func TestTable(t *testing.T) {
	out := Table(
		[]string{"name", "value"},
		[][]string{{"alpha", "1"}, {"beta-longer", "2"}},
	)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "| name") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[3], "beta-longer") {
		t.Errorf("row = %q", lines[3])
	}
	// All rows must be the same width.
	if len(lines[0]) != len(lines[2]) || len(lines[2]) != len(lines[3]) {
		t.Error("rows not aligned")
	}
}

func TestTableShortRow(t *testing.T) {
	out := Table([]string{"a", "b"}, [][]string{{"only"}})
	if !strings.Contains(out, "only") {
		t.Error("short rows must render")
	}
}

// A chart whose points are all non-negative (poll counts, fidelities)
// must not label its y axis below zero: the padding stops at 0.
func TestRenderASCIINonNegativeAxis(t *testing.T) {
	c := &Chart{
		Title:  "polls",
		Series: []Series{{Name: "p", X: []float64{1, 2, 3}, Y: []float64{0, 250, 1921}}},
	}
	for _, line := range strings.Split(c.RenderASCII(40, 10), "\n") {
		label, _, ok := strings.Cut(line, " |")
		if !ok || strings.TrimSpace(label) == "" {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(label), 64); err != nil || v < 0 {
			t.Errorf("y label %q: want a number ≥ 0", label)
		}
	}
}
