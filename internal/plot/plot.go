// Package plot renders experiment results as CSV files (for external
// tooling) and ASCII line charts (for terminal inspection). The paper's
// figures are gnuplot line charts; the ASCII renderer reproduces their
// shape well enough to eyeball crossovers and trends directly in a
// terminal.
package plot

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Series is one named line of (x, y) points.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Chart is a titled collection of series sharing axes.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Validate checks that every series has matching X/Y lengths.
func (c *Chart) Validate() error {
	for _, s := range c.Series {
		if len(s.X) != len(s.Y) {
			return fmt.Errorf("plot: series %q has %d xs but %d ys", s.Name, len(s.X), len(s.Y))
		}
	}
	return nil
}

// WriteCSV emits the chart as CSV: one x column per distinct x set is
// avoided by emitting long form (series, x, y), which loads cleanly into
// any plotting tool.
func (c *Chart) WriteCSV(w io.Writer) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "series,%s,%s\n", csvEscape(c.XLabel), csvEscape(c.YLabel)); err != nil {
		return err
	}
	for _, s := range c.Series {
		for i := range s.X {
			_, err := fmt.Fprintf(w, "%s,%s,%s\n",
				csvEscape(s.Name),
				strconv.FormatFloat(s.X[i], 'g', -1, 64),
				strconv.FormatFloat(s.Y[i], 'g', -1, 64))
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// markers assigns a distinct glyph to each series, in order.
var markers = []byte{'*', 'o', '+', 'x', '#', '@'}

// RenderASCII draws the chart into a width×height character grid with
// simple axes and a legend. Series are overlaid with distinct markers;
// later series win collisions (drawn last, like painter's order).
func (c *Chart) RenderASCII(width, height int) string {
	if width < 20 {
		width = 20
	}
	if height < 8 {
		height = 8
	}
	if err := c.Validate(); err != nil {
		return "plot: " + err.Error()
	}

	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	points := 0
	for _, s := range c.Series {
		for i := range s.X {
			xmin, xmax = math.Min(xmin, s.X[i]), math.Max(xmax, s.X[i])
			ymin, ymax = math.Min(ymin, s.Y[i]), math.Max(ymax, s.Y[i])
			points++
		}
	}
	if points == 0 {
		return c.Title + "\n(no data)\n"
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	// Pad the y range slightly so extremes are not drawn on the frame,
	// but never below zero for a chart with no negative point.
	pad := (ymax - ymin) * 0.05
	if ymin >= 0 {
		ymin = math.Max(ymin-pad, 0)
	} else {
		ymin -= pad
	}
	ymax += pad

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	scaleX := func(x float64) int {
		return int(math.Round((x - xmin) / (xmax - xmin) * float64(width-1)))
	}
	scaleY := func(y float64) int {
		// Row 0 is the top.
		return height - 1 - int(math.Round((y-ymin)/(ymax-ymin)*float64(height-1)))
	}

	for si, s := range c.Series {
		mark := markers[si%len(markers)]
		// Connect consecutive points with interpolated steps so sparse
		// series still read as lines.
		for i := 0; i < len(s.X); i++ {
			col, row := scaleX(s.X[i]), scaleY(s.Y[i])
			grid[clampInt(row, 0, height-1)][clampInt(col, 0, width-1)] = mark
			if i == 0 {
				continue
			}
			pc, pr := scaleX(s.X[i-1]), scaleY(s.Y[i-1])
			steps := maxInt(absInt(col-pc), absInt(row-pr))
			for st := 1; st < steps; st++ {
				fr := pr + (row-pr)*st/steps
				fc := pc + (col-pc)*st/steps
				cell := &grid[clampInt(fr, 0, height-1)][clampInt(fc, 0, width-1)]
				if *cell == ' ' {
					*cell = '.'
				}
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", c.Title)
	yTop := fmt.Sprintf("%.4g", ymax)
	yBot := fmt.Sprintf("%.4g", ymin)
	labelW := maxInt(len(yTop), len(yBot))
	for r := 0; r < height; r++ {
		label := strings.Repeat(" ", labelW)
		switch r {
		case 0:
			label = fmt.Sprintf("%*s", labelW, yTop)
		case height - 1:
			label = fmt.Sprintf("%*s", labelW, yBot)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(grid[r]))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", labelW), strings.Repeat("-", width))
	fmt.Fprintf(&b, "%s  %-*s%s\n", strings.Repeat(" ", labelW), width-len(fmt.Sprintf("%.4g", xmax)),
		fmt.Sprintf("%.4g", xmin), fmt.Sprintf("%.4g", xmax))
	fmt.Fprintf(&b, "x: %s   y: %s\n", c.XLabel, c.YLabel)
	for si, s := range c.Series {
		fmt.Fprintf(&b, "  %c %s\n", markers[si%len(markers)], s.Name)
	}
	return b.String()
}

// Table renders rows as a fixed-width Markdown-style table.
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		b.WriteByte('|')
		for i := range widths {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			fmt.Fprintf(&b, " %-*s |", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	b.WriteByte('|')
	for i := range widths {
		fmt.Fprintf(&b, "%s|", strings.Repeat("-", widths[i]+2))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
