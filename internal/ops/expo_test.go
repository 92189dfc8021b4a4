package ops

import (
	"bytes"
	"strings"
	"testing"
)

// TestExpositionRoundTrip renders a builder-produced exposition and
// parses it back with the strict parser: every series survives with its
// value, type, and labels intact.
func TestExpositionRoundTrip(t *testing.T) {
	e := newExposition()
	e.add("requests_total", "counter", "Requests served.", 42)
	e.add("resident_bytes", "gauge", "Resident bytes.", 1.5e6)
	e.add("hub_events_total", "counter", "Events.", 7, Label{"hub", "relay"})
	e.add("hub_events_total", "counter", "Events.", 9, Label{"hub", "origin"})
	e.histogram("lag", "Subscriber lag.", []float64{0, 3, 700}, Label{"hub", "relay"})

	var buf bytes.Buffer
	e.render(&buf)
	sc, err := ParseExposition(&buf)
	if err != nil {
		t.Fatalf("parse of rendered exposition: %v\n%s", err, buf.String())
	}

	checks := []struct {
		key  string
		want float64
	}{
		{SeriesKey("requests_total"), 42},
		{SeriesKey("resident_bytes"), 1.5e6},
		{SeriesKey("hub_events_total", Label{"hub", "relay"}), 7},
		{SeriesKey("hub_events_total", Label{"hub", "origin"}), 9},
		// Buckets are cumulative: le=0 holds one observation, le=8 two,
		// le=1024 all three, +Inf all three.
		{SeriesKey("lag_bucket", Label{"hub", "relay"}, Label{"le", "0"}), 1},
		{SeriesKey("lag_bucket", Label{"hub", "relay"}, Label{"le", "8"}), 2},
		{SeriesKey("lag_bucket", Label{"hub", "relay"}, Label{"le", "1024"}), 3},
		{SeriesKey("lag_bucket", Label{"hub", "relay"}, Label{"le", "+Inf"}), 3},
		{SeriesKey("lag_sum", Label{"hub", "relay"}), 703},
		{SeriesKey("lag_count", Label{"hub", "relay"}), 3},
	}
	for _, c := range checks {
		got, ok := sc.Values[c.key]
		if !ok {
			t.Errorf("series %s missing from parsed scrape", c.key)
			continue
		}
		if got != c.want {
			t.Errorf("%s = %v, want %v", c.key, got, c.want)
		}
	}
	if sc.Types["lag"] != "histogram" {
		t.Errorf("lag type = %q, want histogram", sc.Types["lag"])
	}
	if sc.Types["requests_total"] != "counter" {
		t.Errorf("requests_total type = %q, want counter", sc.Types["requests_total"])
	}
}

// TestExpositionEscapesLabelValues: values with quotes, backslashes, and
// newlines must render escaped and parse back verbatim.
func TestExpositionEscapesLabelValues(t *testing.T) {
	hostile := "a\"b\\c\nd"
	e := newExposition()
	e.add("info", "gauge", "Info.", 1, Label{"path", hostile})
	var buf bytes.Buffer
	e.render(&buf)
	sc, err := ParseExposition(&buf)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, buf.String())
	}
	if _, ok := sc.Value("info", Label{"path", hostile}); !ok {
		t.Fatalf("hostile label value did not round-trip; scrape has %v", sc.Values)
	}
}

// TestSeriesKeyOrderInsensitive: label order must not change the key.
func TestSeriesKeyOrderInsensitive(t *testing.T) {
	a := SeriesKey("m", Label{"x", "1"}, Label{"a", "2"})
	b := SeriesKey("m", Label{"a", "2"}, Label{"x", "1"})
	if a != b {
		t.Fatalf("SeriesKey depends on label order: %q vs %q", a, b)
	}
}

// TestParseExpositionRejections: each violation a real scraper would
// reject must fail the strict parser.
func TestParseExpositionRejections(t *testing.T) {
	cases := map[string]string{
		"untyped sample":           "mystery 1\n",
		"malformed TYPE":           "# TYPE only_three\nonly_three 1\n",
		"unknown type":             "# TYPE m widget\nm 1\n",
		"duplicate TYPE":           "# TYPE m counter\n# TYPE m counter\nm 1\n",
		"duplicate series":         "# TYPE m counter\nm 1\nm 2\n",
		"bad metric name":          "# TYPE 9bad counter\n9bad 1\n",
		"bad label name":           "# TYPE m counter\nm{9x=\"v\"} 1\n",
		"unterminated label value": "# TYPE m counter\nm{x=\"v} 1\n",
		"unquoted label value":     "# TYPE m counter\nm{x=v} 1\n",
		"bad value":                "# TYPE m counter\nm pickles\n",
		"missing value":            "# TYPE m counter\nm\n",
		"bucket without histogram": "# TYPE m counter\nm_bucket{le=\"1\"} 1\n",
	}
	for name, input := range cases {
		if _, err := ParseExposition(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted %q", name, input)
		}
	}
}

// TestParseExpositionAcceptsTimestampsAndComments: optional timestamps
// and HELP/arbitrary comments are part of the format.
func TestParseExpositionAcceptsTimestampsAndComments(t *testing.T) {
	in := "# HELP m Something.\n# a free comment\n# TYPE m gauge\nm{x=\"y\"} 3.5 1700000000000\n"
	sc, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if v, ok := sc.Value("m", Label{"x", "y"}); !ok || v != 3.5 {
		t.Fatalf("m = %v (present %v), want 3.5", v, ok)
	}
}
