package ops

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is the hand-rolled Prometheus text exposition layer: a
// builder the /metrics handler renders through, and a strict parser the
// tests and the CI smoke checker (cmd/opscheck) validate scrapes with.
// No dependency on a metrics library, by design — like cmd/benchgate,
// the format is small enough to own outright, and owning the parser
// means "unparseable exposition" is a checkable CI failure rather than
// a hope.

// Label is one name="value" pair on a sample.
type Label struct {
	Name, Value string
}

type sample struct {
	labels []Label
	value  float64
}

type family struct {
	name    string
	typ     string // "counter", "gauge", or "histogram"
	help    string
	samples []sample
}

// exposition accumulates metric families in emission order and renders
// them as Prometheus text format (version 0.0.4).
type exposition struct {
	families []*family
	byName   map[string]*family
}

func newExposition() *exposition {
	return &exposition{byName: make(map[string]*family)}
}

// familyFor returns the named family, creating it on first use. A
// family emitted from two subsystems (e.g. hub metrics for both the
// relay and origin hubs, distinguished by label) merges its samples.
func (e *exposition) familyFor(name, typ, help string) *family {
	if f, ok := e.byName[name]; ok {
		return f
	}
	f := &family{name: name, typ: typ, help: help}
	e.families = append(e.families, f)
	e.byName[name] = f
	return f
}

// add adds a sample to a counter or gauge family (typ).
func (e *exposition) add(name, typ, help string, v float64, labels ...Label) {
	f := e.familyFor(name, typ, help)
	f.samples = append(f.samples, sample{labels: labels, value: v})
}

// histogramBuckets are the lag buckets used for per-subscriber hub lag:
// small fixed bounds, since lag is an event count bounded by the replay
// ring (defaults 1024).
var histogramBuckets = []float64{0, 1, 8, 64, 256, 1024, 4096}

// histogram adds a full histogram (cumulative buckets, +Inf, _sum,
// _count) over the given observations.
func (e *exposition) histogram(name, help string, observations []float64, labels ...Label) {
	f := e.familyFor(name, "histogram", help)
	var sum float64
	for _, v := range observations {
		sum += v
	}
	for _, le := range histogramBuckets {
		n := 0
		for _, v := range observations {
			if v <= le {
				n++
			}
		}
		bl := append(append([]Label(nil), labels...), Label{"le", formatFloat(le)})
		f.samples = append(f.samples, sample{labels: bl, value: float64(n)})
	}
	infl := append(append([]Label(nil), labels...), Label{"le", "+Inf"})
	f.samples = append(f.samples,
		sample{labels: infl, value: float64(len(observations))})
	f.samples = append(f.samples, sample{
		labels: append(append([]Label(nil), labels...), Label{"__suffix", "sum"}),
		value:  sum,
	})
	f.samples = append(f.samples, sample{
		labels: append(append([]Label(nil), labels...), Label{"__suffix", "count"}),
		value:  float64(len(observations)),
	})
}

// formatFloat renders a value the way Prometheus expects: shortest
// round-trip representation, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelEscaper escapes a label value per the exposition format:
// backslash, double quote, and newline. One replacer serves every scrape.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabelValue(v string) string { return labelEscaper.Replace(v) }

// render writes the accumulated families as exposition text.
func (e *exposition) render(w io.Writer) {
	for _, f := range e.families {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.samples {
			name := f.name
			var parts []string
			for _, l := range s.labels {
				if l.Name == "__suffix" {
					// Histogram _sum/_count ride the sample's label list as a
					// pseudo-label so the family keeps one sample slice.
					name = f.name + "_" + l.Value
					continue
				}
				// Manual quoting, not %q: Go would escape the escapes.
				parts = append(parts, l.Name+`="`+escapeLabelValue(l.Value)+`"`)
			}
			if f.typ == "histogram" && name == f.name {
				name = f.name + "_bucket"
			}
			if len(parts) > 0 {
				fmt.Fprintf(w, "%s{%s} %s\n", name, strings.Join(parts, ","), formatFloat(s.value))
			} else {
				fmt.Fprintf(w, "%s %s\n", name, formatFloat(s.value))
			}
		}
	}
}

// Scrape is a parsed exposition: one value per series, keyed by
// "name" or `name{k="v",...}` with labels sorted by name, plus the
// declared type of each metric family.
type Scrape struct {
	Values map[string]float64
	Types  map[string]string
}

// Value returns the sample for the metric name with the given labels
// (order-insensitive), and whether it was present in the scrape.
func (s *Scrape) Value(name string, labels ...Label) (float64, bool) {
	v, ok := s.Values[SeriesKey(name, labels...)]
	return v, ok
}

// SeriesKey builds the canonical series key used by Scrape.Values.
func SeriesKey(name string, labels ...Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = l.Name + `="` + escapeLabelValue(l.Value) + `"`
	}
	return name + "{" + strings.Join(parts, ",") + "}"
}

var validTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true,
	"summary": true, "untyped": true,
}

// ParseExposition parses and validates Prometheus text format: every
// sample line must parse, metric and label names must be legal, each
// sample's family must have been declared by a preceding # TYPE line
// (histogram/summary component suffixes included), and no series may
// appear twice. It returns the parsed scrape or the first violation.
func ParseExposition(r io.Reader) (*Scrape, error) {
	sc := &Scrape{
		Values: make(map[string]float64),
		Types:  make(map[string]string),
	}
	br := bufio.NewScanner(r)
	br.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lineNo := 0
	for br.Scan() {
		lineNo++
		line := strings.TrimSpace(br.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, fmt.Errorf("line %d: malformed TYPE comment %q", lineNo, line)
				}
				name, typ := fields[2], fields[3]
				if !validMetricName(name) {
					return nil, fmt.Errorf("line %d: bad metric name %q in TYPE", lineNo, name)
				}
				if !validTypes[typ] {
					return nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, typ)
				}
				if _, dup := sc.Types[name]; dup {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
				}
				sc.Types[name] = typ
			}
			continue // HELP and other comments
		}
		name, labels, value, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if _, ok := familyOf(name, sc.Types); !ok {
			return nil, fmt.Errorf("line %d: sample %q has no preceding TYPE declaration", lineNo, name)
		}
		key := SeriesKey(name, labels...)
		if _, dup := sc.Values[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate series %s", lineNo, key)
		}
		sc.Values[key] = value
	}
	if err := br.Err(); err != nil {
		return nil, err
	}
	return sc, nil
}

// familyOf resolves a sample name to its declared family: the name
// itself, or — for histogram/summary component samples — the base name
// with the _bucket/_sum/_count suffix stripped.
func familyOf(name string, types map[string]string) (string, bool) {
	if _, ok := types[name]; ok {
		return name, true
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base, found := strings.CutSuffix(name, suffix)
		if !found {
			continue
		}
		if t, ok := types[base]; ok && (t == "histogram" || t == "summary") {
			if suffix == "_bucket" && t == "summary" {
				continue
			}
			return base, true
		}
	}
	return "", false
}

// parseSampleLine parses `name{labels} value [timestamp]`.
func parseSampleLine(line string) (name string, labels []Label, value float64, err error) {
	rest := line
	i := strings.IndexAny(rest, "{ \t")
	if i < 0 {
		return "", nil, 0, fmt.Errorf("malformed sample %q", line)
	}
	name = rest[:i]
	if !validMetricName(name) {
		return "", nil, 0, fmt.Errorf("bad metric name %q", name)
	}
	rest = rest[i:]
	if rest[0] == '{' {
		end := -1
		inQuote, escaped := false, false
		for j := 1; j < len(rest); j++ {
			c := rest[j]
			switch {
			case escaped:
				escaped = false
			case inQuote && c == '\\':
				escaped = true
			case c == '"':
				inQuote = !inQuote
			case c == '}' && !inQuote:
				end = j
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return "", nil, 0, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err = parseLabels(rest[1:end])
		if err != nil {
			return "", nil, 0, fmt.Errorf("%w in %q", err, line)
		}
		rest = rest[end+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) != 1 && len(fields) != 2 { // optional timestamp
		return "", nil, 0, fmt.Errorf("malformed sample value in %q", line)
	}
	value, err = parseValue(fields[0])
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value %q in %q", fields[0], line)
	}
	return name, labels, value, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// parseLabels parses the inside of a {...} label set.
func parseLabels(s string) ([]Label, error) {
	var out []Label
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("malformed label pair %q", s)
		}
		name := strings.TrimSpace(s[:eq])
		if !validLabelName(name) {
			return nil, fmt.Errorf("bad label name %q", name)
		}
		s = strings.TrimSpace(s[eq+1:])
		if len(s) == 0 || s[0] != '"' {
			return nil, fmt.Errorf("unquoted label value after %q", name)
		}
		var val strings.Builder
		j := 1
		closed := false
		for ; j < len(s); j++ {
			c := s[j]
			if c == '\\' && j+1 < len(s) {
				j++
				switch s[j] {
				case 'n':
					val.WriteByte('\n')
				case '\\', '"':
					val.WriteByte(s[j])
				default:
					return nil, fmt.Errorf("bad escape in label %q", name)
				}
				continue
			}
			if c == '"' {
				closed = true
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return nil, fmt.Errorf("unterminated label value for %q", name)
		}
		out = append(out, Label{Name: name, Value: val.String()})
		s = strings.TrimSpace(s[j+1:])
		if len(s) > 0 {
			if s[0] != ',' {
				return nil, fmt.Errorf("missing comma after label %q", name)
			}
			s = strings.TrimSpace(s[1:])
		}
	}
	return out, nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		letter := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !letter && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, c := range s {
		letter := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !letter && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}
