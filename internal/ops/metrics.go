package ops

import (
	"bytes"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"broadway/internal/push"
)

// This file renders /metrics by walking the in-process stats structs —
// CacheStats, UpstreamStatus, PushStats, RelayStats, DiskStats,
// OriginStats, and both hubs' HubStats. Each exported field declares its
// own series in its struct tag, and nowhere else:
//
//	metric:"<counter|gauge|histogram|info> <name> [k=v]" help:"…"
//
// k=v is a constant label on the series. An info field is a string: it
// renders as a constant 1 gauge whose label k carries the field's value.
// A histogram field is a []uint64 of observations. metric:"nested k=v"
// walks a sub-struct, adding k=v to every series under it; metric:"-"
// marks a field deliberately not exported. Values convert as bool → 0/1,
// time.Duration → seconds, time.Time → unix seconds (0 when unset).
//
// The names are STABLE: dashboards and alerts hang off them. The sorted
// list lives in testdata/families.golden, and
// TestMetricsCrossCheckAgainstStructs fails on an untagged field, a
// series that does not carry its field's value, or a family list that
// differs from the golden file.

// timestampSeconds renders a time as a unix-seconds gauge, 0 when unset
// (the Prometheus convention for *_timestamp_seconds).
func timestampSeconds(t time.Time) float64 {
	if t.IsZero() {
		return 0
	}
	return float64(t.UnixNano()) / 1e9
}

// withLabel returns labels plus l, never sharing labels' backing array.
func withLabel(labels []Label, l Label) []Label {
	return append(labels[:len(labels):len(labels)], l)
}

// tagLabel parses a tag's "k=v" label.
func tagLabel(s string) Label {
	k, v, _ := strings.Cut(s, "=")
	return Label{k, v}
}

// writeStats adds every tagged field of each stats struct to e.
func writeStats(e *exposition, stats ...any) {
	for _, s := range stats {
		writeStruct(e, reflect.ValueOf(s), nil)
	}
}

// tagSpec is one field's parsed metric and help tags.
type tagSpec struct{ kind, name, extra, help string }

// tagSpecs holds each stats type's parsed tags: every scrape walks the
// same types, and parsing their tags anew cost a sixth of a scrape.
var tagSpecs sync.Map // reflect.Type → []tagSpec

func specsOf(t reflect.Type) []tagSpec {
	if s, ok := tagSpecs.Load(t); ok {
		return s.([]tagSpec)
	}
	s := make([]tagSpec, t.NumField())
	for i := range s {
		tag := t.Field(i).Tag
		kind, spec, _ := strings.Cut(tag.Get("metric"), " ")
		name, extra, _ := strings.Cut(spec, " ")
		s[i] = tagSpec{kind, name, extra, tag.Get("help")}
	}
	tagSpecs.Store(t, s)
	return s
}

// writeStruct adds v's tagged fields, each series carrying labels.
func writeStruct(e *exposition, v reflect.Value, labels []Label) {
	for i, s := range specsOf(v.Type()) {
		fv, ls := v.Field(i), labels
		if strings.Contains(s.extra, "=") {
			ls = withLabel(ls, tagLabel(s.extra))
		}
		switch s.kind {
		case "nested":
			writeStruct(e, fv, withLabel(labels, tagLabel(s.name)))
		case "info":
			e.add(s.name, "gauge", s.help, 1, withLabel(ls, Label{s.extra, fv.String()})...)
		case "histogram":
			var obs []float64
			for _, o := range fv.Interface().([]uint64) {
				obs = append(obs, float64(o))
			}
			e.histogram(s.name, s.help, obs, ls...)
		case "counter", "gauge":
			e.add(s.name, s.kind, s.help, metricValue(fv), ls...)
		}
	}
	if hs, ok := v.Interface().(push.HubStats); ok {
		writePartitions(e, hs.Partitions, labels)
	}
}

// metricValue converts a scalar stats field to its sample value.
func metricValue(v reflect.Value) float64 {
	switch x := v.Interface().(type) {
	case bool:
		if x {
			return 1
		}
		return 0
	case time.Duration:
		return x.Seconds()
	case time.Time:
		return timestampSeconds(x)
	}
	if v.CanInt() {
		return float64(v.Int())
	}
	return float64(v.Uint())
}

// writePartitions renders HubStats.Partitions, the one field a tag
// cannot declare: a partition count, plus one series per partition.
func writePartitions(e *exposition, parts []push.HubPartitionStats, labels []Label) {
	e.add("broadway_hub_ring_partitions", "gauge", "Prefix partitions currently resident in the replay ring.", float64(len(parts)), labels...)
	for _, p := range parts {
		e.add("broadway_hub_ring_bytes", "gauge", "Replay ring resident wire bytes per prefix partition (empty partition label is the catch-all).",
			float64(p.Bytes), withLabel(labels, Label{"partition", p.Name})...)
	}
}

// serveMetrics renders the exposition for the configured components.
func (h *Handler) serveMetrics(w http.ResponseWriter, r *http.Request) {
	e := newExposition()
	if p := h.cfg.Proxy; p != nil {
		writeStats(e, p.CacheStats(), p.UpstreamStatus(), p.PushStats(), p.RelayStats(), p.DiskStats())
	}
	if o := h.cfg.Origin; o != nil {
		writeStats(e, o.Stats())
	}
	var buf bytes.Buffer
	e.render(&buf)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	if r.Method != http.MethodHead {
		w.Write(buf.Bytes())
	}
}
