package diskstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

var t0 = time.Unix(1_700_000_000, 0)

func mustOpen(t *testing.T, dir string, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(dir, maxBytes)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func TestPutGetRoundtripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	rec := Record{
		Key:         "/news/front",
		Group:       "news",
		ContentType: "text/html",
		LastMod:     t0,
		HasLastMod:  true,
		ValidatedAt: t0.Add(3 * time.Second),
		Delta:       40 * time.Second,
		GroupDelta:  10 * time.Second,
		TTR:         90 * time.Second,
	}
	body := []byte("front page body")
	s.Put(rec, body)

	// Read-your-writes: visible before the worker necessarily ran.
	got, gotBody, ok := s.Get("/news/front")
	if !ok || string(gotBody) != string(body) || got.TTR != rec.TTR {
		t.Fatalf("pre-flush Get = %+v, %q, %v", got, gotBody, ok)
	}

	s.Flush()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, dir, 0)
	defer s2.Close()
	got, gotBody, ok = s2.Get("/news/front")
	if !ok {
		t.Fatal("record lost across reopen")
	}
	if string(gotBody) != string(body) {
		t.Fatalf("body = %q, want %q", gotBody, body)
	}
	if got.Group != "news" || got.TTR != 90*time.Second || !got.LastMod.Equal(t0) ||
		!got.HasLastMod || got.Delta != 40*time.Second || got.GroupDelta != 10*time.Second ||
		!got.ValidatedAt.Equal(t0.Add(3*time.Second)) {
		t.Fatalf("metadata mangled across reopen: %+v", got)
	}
}

func TestCoalescingKeepsLatest(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	defer s.Close()
	for i := 0; i < 50; i++ {
		s.Put(Record{Key: "/hot", ValidatedAt: t0.Add(time.Duration(i) * time.Second)},
			[]byte(fmt.Sprintf("v%d", i)))
	}
	s.Flush()
	rec, body, ok := s.Get("/hot")
	if !ok || string(body) != "v49" {
		t.Fatalf("Get = %q, %v; want v49", body, ok)
	}
	if !rec.ValidatedAt.Equal(t0.Add(49 * time.Second)) {
		t.Fatalf("ValidatedAt = %v, want latest", rec.ValidatedAt)
	}
	if n := s.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
}

func TestDeleteRemovesDurablyAndReportsPresence(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	s.Put(Record{Key: "/a", ValidatedAt: t0}, []byte("aaa"))
	s.Flush()
	if !s.Delete("/a") {
		t.Fatal("Delete of present key = false")
	}
	if s.Delete("/a") {
		t.Fatal("Delete of absent key = true")
	}
	if _, _, ok := s.Get("/a"); ok {
		t.Fatal("Get after Delete = ok")
	}
	s.Flush()
	s.Close()
	s2 := mustOpen(t, dir, 0)
	defer s2.Close()
	if _, _, ok := s2.Get("/a"); ok {
		t.Fatal("deleted record resurrected after reopen")
	}
	// The blob should be gone too.
	sum := sha256.Sum256([]byte("aaa"))
	digest := hex.EncodeToString(sum[:])
	if _, err := os.Stat(filepath.Join(dir, "blobs", digest[:2], digest)); err == nil {
		t.Fatal("blob survived delete")
	}
}

func TestTornJournalTailTolerated(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	s.Put(Record{Key: "/ok", ValidatedAt: t0}, []byte("good"))
	s.Flush()
	s.Close()

	// Simulate a crash mid-append: garbage half-line at the tail.
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"/torn","digest":"deadbeef","si`)
	f.Close()

	if _, err := Verify(dir); err != nil {
		t.Fatalf("Verify on torn tail: %v", err)
	}
	s2 := mustOpen(t, dir, 0)
	defer s2.Close()
	if _, _, ok := s2.Get("/ok"); !ok {
		t.Fatal("good record lost to torn tail")
	}
	if _, _, ok := s2.Get("/torn"); ok {
		t.Fatal("torn record served")
	}
}

func TestRecordWithoutBlobPrunedAtOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	s.Put(Record{Key: "/x", ValidatedAt: t0}, []byte("xxxx"))
	s.Flush()
	s.Close()

	// Corrupt: remove the blob behind the record.
	sum := sha256.Sum256([]byte("xxxx"))
	digest := hex.EncodeToString(sum[:])
	if err := os.Remove(filepath.Join(dir, "blobs", digest[:2], digest)); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir); err == nil {
		t.Fatal("Verify passed with missing blob")
	}
	s2 := mustOpen(t, dir, 0)
	defer s2.Close()
	if _, _, ok := s2.Get("/x"); ok {
		t.Fatal("record without blob served")
	}
	// Open pruned and compacted, so the directory verifies clean again.
	s2.Close()
	if _, err := Verify(dir); err != nil {
		t.Fatalf("Verify after pruning reopen: %v", err)
	}
}

func TestCorruptBlobReadsAsMiss(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	s.Put(Record{Key: "/y", ValidatedAt: t0}, []byte("yyyy"))
	s.Flush()

	sum := sha256.Sum256([]byte("yyyy"))
	digest := hex.EncodeToString(sum[:])
	// Same size, different bytes: stat-validation passes, digest check must not.
	if err := os.WriteFile(filepath.Join(dir, "blobs", digest[:2], digest), []byte("YYYY"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get("/y"); ok {
		t.Fatal("digest-mismatched blob served")
	}
	s.Close()
}

func TestBudgetEvictsOldestValidated(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 30) // room for three 10-byte bodies
	for i := 0; i < 5; i++ {
		s.Put(Record{
			Key:         fmt.Sprintf("/obj/%d", i),
			ValidatedAt: t0.Add(time.Duration(i) * time.Minute),
		}, []byte(fmt.Sprintf("body-%05d", i)))
		s.Flush()
	}
	st := s.Stats()
	if st.Bytes > 30 {
		t.Fatalf("bytes %d over budget", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
	// Oldest-validated go first: 0 and 1 out, 4 (newest) must remain.
	if _, _, ok := s.Get("/obj/0"); ok {
		t.Fatal("oldest record survived budget")
	}
	if _, _, ok := s.Get("/obj/4"); !ok {
		t.Fatal("newest record evicted")
	}
	s.Close()
	if _, err := Verify(dir); err != nil {
		t.Fatalf("Verify after budget eviction: %v", err)
	}
}

func TestOrphanBlobSweptAtOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	s.Close()
	orphanDir := filepath.Join(dir, "blobs", "ab")
	os.MkdirAll(orphanDir, 0o755)
	orphan := filepath.Join(orphanDir, "ab"+"cd")
	os.WriteFile(orphan, []byte("stray"), 0o644)
	tmp := filepath.Join(orphanDir, "abcd.123.tmp")
	os.WriteFile(tmp, []byte("half"), 0o644)

	if _, err := Verify(dir); err != nil {
		t.Fatalf("Verify with orphan blob: %v", err)
	}
	s2 := mustOpen(t, dir, 0)
	defer s2.Close()
	if _, err := os.Stat(orphan); err == nil {
		t.Fatal("orphan blob not swept")
	}
	if _, err := os.Stat(tmp); err == nil {
		t.Fatal("temp file not swept")
	}
}

func TestSharedDigestRefcount(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	defer s.Close()
	body := []byte("shared body")
	s.Put(Record{Key: "/one", ValidatedAt: t0}, body)
	s.Put(Record{Key: "/two", ValidatedAt: t0}, body)
	s.Flush()
	if !s.Delete("/one") {
		t.Fatal("Delete /one = false")
	}
	s.Flush()
	// /two still reads fine: the shared blob must survive /one's delete.
	if _, got, ok := s.Get("/two"); !ok || string(got) != string(body) {
		t.Fatalf("shared blob lost: %q %v", got, ok)
	}
}

func TestJournalCompactionBoundsGrowth(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	for i := 0; i < 1200; i++ {
		s.Put(Record{Key: "/churn", ValidatedAt: t0.Add(time.Duration(i) * time.Second)},
			[]byte(fmt.Sprintf("v%d", i)))
		s.Flush() // force a distinct journal append past coalescing
	}
	s.Close()
	fi, err := os.Stat(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	// 1200 distinct appends of ~150 bytes would be ~180k uncompacted; the
	// compaction threshold keeps the tail bounded well below that.
	if fi.Size() > 64<<10 {
		t.Fatalf("journal grew to %d bytes; compaction not firing", fi.Size())
	}
	if _, err := Verify(dir); err != nil {
		t.Fatalf("Verify after churn: %v", err)
	}
}

// TestWriteBeingAppliedStaysVisible: a write the worker has taken off
// the queue but not yet indexed must still be what Get and Meta return
// and what Delete removes — otherwise a reader sees the version it
// replaced, and a Delete misses it and lets it land afterwards.
func TestWriteBeingAppliedStaysVisible(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	defer s.Close()
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("/k/%d", i)
		body := []byte(fmt.Sprintf("body %d", i)) // distinct: each one costs a blob write
		s.Put(Record{Key: key, ValidatedAt: t0}, body)
		for s.Stats().PendingWrites > 0 {
			runtime.Gosched() // until the worker has taken it: being applied, or applied
		}
		if _, got, ok := s.Get(key); !ok || string(got) != string(body) {
			t.Fatalf("%s: Get lost sight of a write being applied (ok=%v)", key, ok)
		}
		if !s.Delete(key) {
			t.Fatalf("%s: Delete missed a write being applied", key)
		}
		s.Flush()
		if _, ok := s.Meta(key); ok {
			t.Fatalf("%s: deleted record came back", key)
		}
	}
}
