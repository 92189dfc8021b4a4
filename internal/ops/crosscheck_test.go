package ops

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"broadway/internal/push"
	"broadway/internal/webproxy"
	"broadway/internal/webserver"
)

// TestMetricsCrossCheckAgainstStructs holds /metrics to the stats
// structs it renders. Every exported field must carry a metric tag; a
// synthetic instance of each struct, every field a distinct non-zero
// value, must render and strict-parse with each tagged field's series
// carrying that field's own value (catching a lost label or a broken
// unit conversion); and the sorted family list must match
// testdata/families.golden, the stable-name contract a rename has to
// edit on purpose.
func TestMetricsCrossCheckAgainstStructs(t *testing.T) {
	want := make(map[string]float64) // series key → expected value
	where := make(map[string]string) // series key → the field it checks
	n := 0
	expect := func(field, name string, v float64, labels ...Label) {
		key := SeriesKey(name, labels...)
		want[key], where[key] = v, field
	}
	var fill func(v reflect.Value, path string, labels []Label)
	fill = func(v reflect.Value, path string, labels []Label) {
		for i := range v.NumField() {
			f, fv := v.Type().Field(i), v.Field(i)
			field := path + "." + f.Name
			tag, ok := f.Tag.Lookup("metric")
			if !ok {
				t.Errorf("%s has no metric tag: tag it with its /metrics series, or metric:\"-\"", field)
				continue
			}
			n++
			kind, spec, _ := strings.Cut(tag, " ")
			name, extra, _ := strings.Cut(spec, " ")
			ls := labels
			if k, v, ok := strings.Cut(extra, "="); ok {
				ls = withLabel(ls, Label{k, v})
			}
			val := float64(n)
			switch x := fv.Addr().Interface().(type) {
			case *push.HubStats:
				k, v, _ := strings.Cut(spec, "=")
				fill(fv, field, withLabel(labels, Label{k, v}))
				continue
			case *time.Time:
				*x = time.Unix(1_000_000_000+int64(n), 0)
				val += 1_000_000_000
			case *time.Duration:
				*x = time.Duration(n) * time.Second
			case *bool:
				*x, val = true, 1
			case *string:
				*x = fmt.Sprintf("/s%d", n)
				ls, val = withLabel(ls, Label{extra, *x}), 1
			case *[]uint64:
				*x = []uint64{uint64(n), uint64(n) + 1}
				expect(field, name+"_count", 2, ls...)
				expect(field, name+"_sum", float64(2*n+1), ls...)
				continue
			case *[]push.HubPartitionStats:
				*x = []push.HubPartitionStats{{Name: "/p/", Bytes: int64(n)}}
				expect(field, "broadway_hub_ring_partitions", 1, labels...)
				expect(field, "broadway_hub_ring_bytes", val, withLabel(labels, Label{"partition", "/p/"})...)
				continue
			default:
				if fv.CanInt() {
					fv.SetInt(int64(n))
				} else {
					fv.SetUint(uint64(n))
				}
			}
			if kind != "-" {
				expect(field, name, val, ls...)
			}
		}
	}

	stats := []any{&webproxy.CacheStats{}, &webproxy.UpstreamStatus{}, &webproxy.PushStats{},
		&webproxy.RelayStats{}, &webproxy.DiskStats{}, &webserver.OriginStats{}}
	e := newExposition()
	for _, s := range stats {
		v := reflect.ValueOf(s).Elem()
		fill(v, v.Type().Name(), nil)
		writeStats(e, v.Interface())
	}
	var buf bytes.Buffer
	e.render(&buf)
	sc, err := ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("rendered stats do not parse: %v", err)
	}
	for key, v := range want {
		if got, ok := sc.Values[key]; !ok {
			t.Errorf("%s: series %s missing from the scrape", where[key], key)
		} else if got != v {
			t.Errorf("%s: %s = %v, want the field's value %v", where[key], key, got, v)
		}
	}

	var families []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			families = append(families, line)
		}
	}
	slices.Sort(families)
	golden, err := os.ReadFile("testdata/families.golden")
	if err != nil {
		t.Fatal(err)
	}
	contract := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	for _, f := range families {
		if !slices.Contains(contract, f) {
			t.Errorf("%q is not in testdata/families.golden: metric names are a stable contract, edit it on purpose", f)
		}
	}
	for _, f := range contract {
		if !slices.Contains(families, f) {
			t.Errorf("%q from testdata/families.golden is not rendered", f)
		}
	}
	if !slices.IsSorted(contract) {
		t.Error("testdata/families.golden is not sorted")
	}
}
