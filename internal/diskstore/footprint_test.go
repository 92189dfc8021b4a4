package diskstore

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestIndexFootprint bounds what a record costs the in-RAM index: a store
// of 20k records, reopened from its journal, may hold at most 240 B of
// heap per record, its key included.
func TestIndexFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("writes 20k blobs")
	}
	const n = 20000
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	for i := 0; i < n; i++ {
		s.Put(Record{
			Key:          fmt.Sprintf("/obj/%06d", i),
			ContentType:  "text/plain",
			CacheControl: "x-cc-delta=60",
			LastMod:      t0.Add(time.Duration(i) * time.Second),
			HasLastMod:   true,
			ValidatedAt:  t0.Add(time.Duration(n+i) * time.Second),
			Delta:        time.Minute,
			TTR:          90 * time.Second,
		}, fmt.Appendf(nil, "body %010d", i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	s = mustOpen(t, dir, 0)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	defer s.Close()

	if s.Len() != n {
		t.Fatalf("reopened store holds %d records, want %d", s.Len(), n)
	}
	perRecord := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	t.Logf("%.0f B of index per record", perRecord)
	if perRecord > 240 {
		t.Errorf("the index holds %.0f B per record, want at most 240", perRecord)
	}
}
