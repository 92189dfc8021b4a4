// Package httpx defines the paper's proposed HTTP/1.1 extensions (§5.1)
// with a concrete wire syntax, used end-to-end by the live origin server
// and caching proxy in this repository:
//
//   - X-Modification-History: a comma-separated list of the object's most
//     recent modification times (HTTP-date format, oldest first). It lets
//     a proxy detect violations that plain Last-Modified conceals when an
//     object changed several times between polls (paper Fig. 1(b)).
//
//   - Cache-Control extension directives carrying the consistency
//     tolerances a client requests:
//     x-cc-delta=<seconds>       Δ for individual consistency
//     x-mc-group=<token>         the related-object group name
//     x-mc-delta=<seconds>       δ for mutual consistency within the group
//
// The paper proposes these extensions without fixing a syntax (deferring
// to its technical report); this package picks an explicit, parseable
// encoding via HTTP's user-defined header and cache-control extension
// mechanisms.
package httpx

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Header and directive names.
const (
	// HeaderModificationHistory carries recent modification times.
	HeaderModificationHistory = "X-Modification-History"
	// DirectiveDelta is the cache-control extension for Δ (seconds).
	DirectiveDelta = "x-cc-delta"
	// DirectiveValueDelta is the cache-control extension for the Δv
	// value-domain tolerance, in thousandths of a value unit (e.g.
	// x-cc-vdelta=250 means Δv = 0.25).
	DirectiveValueDelta = "x-cc-vdelta"
	// DirectiveGroup is the cache-control extension naming the
	// related-object group.
	DirectiveGroup = "x-mc-group"
	// DirectiveGroupDelta is the cache-control extension for δ
	// (seconds).
	DirectiveGroupDelta = "x-mc-delta"
)

// MaxHistoryEntries bounds the modification history a server emits; the
// proxy only ever needs the updates since the previous poll, and an
// unbounded header would grow with object churn.
const MaxHistoryEntries = 32

// FormatHistory renders modification times as the header value, oldest
// first. Only the most recent MaxHistoryEntries survive. Times are
// rendered in the canonical HTTP date format (GMT, second resolution).
func FormatHistory(times []time.Time) string {
	if len(times) > MaxHistoryEntries {
		times = times[len(times)-MaxHistoryEntries:]
	}
	parts := make([]string, len(times))
	for i, t := range times {
		parts[i] = t.UTC().Format(http.TimeFormat)
	}
	return strings.Join(parts, ", ")
}

// ParseHistory parses a header value produced by FormatHistory. It
// returns the times oldest first. An empty value yields nil. Malformed
// entries produce an error identifying the offending element.
func ParseHistory(value string) ([]time.Time, error) {
	value = strings.TrimSpace(value)
	if value == "" {
		return nil, nil
	}
	// HTTP dates contain commas ("Mon, 02 Jan ..."), so entries cannot
	// be split on bare commas. Split on the comma that follows "GMT".
	var out []time.Time
	rest := value
	for rest != "" {
		idx := strings.Index(rest, "GMT")
		if idx < 0 {
			return nil, fmt.Errorf("httpx: malformed history element %q", rest)
		}
		elem := strings.TrimSpace(rest[:idx+3])
		rest = strings.TrimLeft(rest[idx+3:], " ,")
		t, err := http.ParseTime(elem)
		if err != nil {
			return nil, fmt.Errorf("httpx: bad history time %q: %w", elem, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// SetHistory writes the modification history header on h. An empty list
// removes the header.
func SetHistory(h http.Header, times []time.Time) {
	if len(times) == 0 {
		h.Del(HeaderModificationHistory)
		return
	}
	h.Set(HeaderModificationHistory, FormatHistory(times))
}

// HistoryFrom reads and parses the modification history header from h.
func HistoryFrom(h http.Header) ([]time.Time, error) {
	return ParseHistory(h.Get(HeaderModificationHistory))
}

// IfModifiedSince returns r's If-Modified-Since, or the zero time when r
// carries none or one that does not parse: r is then unconditional.
func IfModifiedSince(r *http.Request) time.Time {
	if ims := r.Header.Get("If-Modified-Since"); ims != "" {
		if t, err := http.ParseTime(ims); err == nil {
			return t
		}
	}
	return time.Time{}
}

// Tolerances carries the consistency requirements a client attaches to a
// request (or a server advertises for an object).
type Tolerances struct {
	// Delta is the Δ tolerance for individual consistency; zero means
	// unspecified.
	Delta time.Duration
	// ValueDelta is the Δv value-domain tolerance (the object's body is
	// a numeric value, e.g. a stock quote); zero means temporal
	// consistency.
	ValueDelta float64
	// Group names the related-object group; empty means ungrouped.
	Group string
	// GroupDelta is the δ tolerance for mutual consistency within
	// Group; zero means unspecified.
	GroupDelta time.Duration
}

// IsZero reports whether no tolerance information is present.
func (t Tolerances) IsZero() bool {
	return t.Delta == 0 && t.ValueDelta == 0 && t.Group == "" && t.GroupDelta == 0
}

// FormatCacheControl renders the tolerances as cache-control directives,
// e.g. "x-cc-delta=30, x-mc-group=news, x-mc-delta=60".
func (t Tolerances) FormatCacheControl() string {
	var parts []string
	if t.Delta > 0 {
		parts = append(parts, fmt.Sprintf("%s=%d", DirectiveDelta, int64(t.Delta.Seconds())))
	}
	if t.ValueDelta > 0 {
		parts = append(parts, fmt.Sprintf("%s=%d", DirectiveValueDelta, int64(t.ValueDelta*1000+0.5)))
	}
	if t.Group != "" {
		parts = append(parts, fmt.Sprintf("%s=%s", DirectiveGroup, t.Group))
	}
	if t.GroupDelta > 0 {
		parts = append(parts, fmt.Sprintf("%s=%d", DirectiveGroupDelta, int64(t.GroupDelta.Seconds())))
	}
	return strings.Join(parts, ", ")
}

// ParseCacheControl extracts the extension tolerances from a
// cache-control header value, ignoring unknown directives (per HTTP/1.1,
// unrecognized cache-control extensions must be ignored).
func ParseCacheControl(value string) (Tolerances, error) {
	var t Tolerances
	for _, part := range strings.Split(value, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, hasVal := strings.Cut(part, "=")
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.Trim(strings.TrimSpace(val), `"`)
		switch key {
		case DirectiveDelta, DirectiveGroupDelta:
			if !hasVal {
				return t, fmt.Errorf("httpx: directive %s requires a value", key)
			}
			secs, err := strconv.ParseInt(val, 10, 64)
			if err != nil || secs < 0 {
				return t, fmt.Errorf("httpx: bad %s value %q", key, val)
			}
			d := time.Duration(secs) * time.Second
			if key == DirectiveDelta {
				t.Delta = d
			} else {
				t.GroupDelta = d
			}
		case DirectiveValueDelta:
			if !hasVal {
				return t, fmt.Errorf("httpx: directive %s requires a value", key)
			}
			milli, err := strconv.ParseInt(val, 10, 64)
			if err != nil || milli < 0 {
				return t, fmt.Errorf("httpx: bad %s value %q", key, val)
			}
			t.ValueDelta = float64(milli) / 1000
		case DirectiveGroup:
			if !hasVal || val == "" {
				return t, fmt.Errorf("httpx: directive %s requires a value", key)
			}
			t.Group = val
		}
	}
	return t, nil
}

// SetCacheControl appends the tolerance directives to any existing
// cache-control value on h.
func SetCacheControl(h http.Header, t Tolerances) {
	AddCacheControl(h, t.FormatCacheControl())
}

// AddCacheControl appends directives to any existing cache-control value
// on h.
func AddCacheControl(h http.Header, directives string) {
	if directives == "" {
		return
	}
	if existing := h.Get("Cache-Control"); existing != "" {
		h.Set("Cache-Control", existing+", "+directives)
	} else {
		h.Set("Cache-Control", directives)
	}
}

// TolerancesFrom parses the tolerance directives from h's cache-control
// header.
func TolerancesFrom(h http.Header) (Tolerances, error) {
	return ParseCacheControl(h.Get("Cache-Control"))
}
