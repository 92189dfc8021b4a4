package diskstore

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"
)

// sameRecord reports whether got carries every field of want, instants
// compared as instants (a read-back Record's are in UTC, with no
// monotonic reading).
func sameRecord(got, want Record) bool {
	return got.Key == want.Key && got.Group == want.Group &&
		got.ContentType == want.ContentType && got.CacheControl == want.CacheControl &&
		got.LastMod.Equal(want.LastMod) && got.HasLastMod == want.HasLastMod &&
		got.ValidatedAt.Equal(want.ValidatedAt) && got.Delta == want.Delta &&
		got.GroupDelta == want.GroupDelta && got.ValueDelta == want.ValueDelta &&
		got.TTR == want.TTR && got.Digest == want.Digest && got.Size == want.Size &&
		got.Del == want.Del
}

// sealed is rec as Put stores it with body: Digest and Size filled in.
func sealed(rec Record, body []byte) Record {
	sum := sha256.Sum256(body)
	rec.Digest, rec.Size = hex.EncodeToString(sum[:]), int64(len(body))
	return rec
}

// roundTripRecords covers every Record field, and the values a compact
// index could lose: a zero LastMod without HasLastMod, a LastMod the
// origin stated with HasLastMod, a TTR of zero, a fractional ValueDelta,
// a zone other than UTC, nanoseconds, instants beyond the int64
// nanosecond range, and instants carrying a monotonic reading.
func roundTripRecords() []Record {
	now := time.Now() // carries a monotonic reading
	cet := time.FixedZone("CET", 3600)
	return []Record{
		{Key: "/full", Group: "news", ContentType: "text/html; charset=utf-8",
			CacheControl: "x-cc-delta=40, x-mc-group=news, x-mc-delta=10",
			LastMod:      t0, HasLastMod: true, ValidatedAt: t0.Add(3 * time.Second),
			Delta: 40 * time.Second, GroupDelta: 10 * time.Second, TTR: 90 * time.Second},
		{Key: "/no-last-mod", ValidatedAt: t0},
		{Key: "/value?sym=acme", Group: "quotes", ContentType: "text/plain",
			ValueDelta: 0.125, ValidatedAt: t0.Add(time.Nanosecond)},
		{Key: "/monotonic", LastMod: now.Add(-time.Minute), HasLastMod: true,
			ValidatedAt: now, Delta: time.Millisecond, TTR: 1500 * time.Microsecond},
		{Key: "/zoned", LastMod: time.Date(2023, 11, 14, 22, 13, 20, 123456789, cet), HasLastMod: true,
			ValidatedAt: time.Date(2023, 11, 14, 23, 0, 0, 1, cet)},
		{Key: "/far", LastMod: time.Date(1600, 1, 1, 0, 0, 0, 999999999, time.UTC), HasLastMod: true,
			ValidatedAt: time.Date(2500, 12, 31, 23, 59, 59, 5, time.UTC)},
		{Key: "/unstated", LastMod: t0.Add(-time.Hour), ValidatedAt: t0, GroupDelta: time.Hour},
	}
}

// TestRecordRoundTrip: every Record field survives Put→Get (before and
// after the write lands), Put→Meta, and Put→Close→Open→Get.
func TestRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	recs := roundTripRecords()
	body := func(rec Record) []byte { return []byte("body of " + rec.Key) }
	check := func(stage string, s *Store) {
		t.Helper()
		for _, rec := range recs {
			want := sealed(rec, body(rec))
			got, gotBody, ok := s.Get(rec.Key)
			if !ok || string(gotBody) != string(body(rec)) || !sameRecord(got, want) {
				t.Errorf("%s: Get(%q) = %+v, %q, %v\nwant %+v", stage, rec.Key, got, gotBody, ok, want)
			}
			if got, ok := s.Meta(rec.Key); !ok || !sameRecord(got, want) {
				t.Errorf("%s: Meta(%q) = %+v, %v\nwant %+v", stage, rec.Key, got, ok, want)
			}
		}
	}
	for _, rec := range recs {
		s.Put(rec, body(rec))
	}
	check("pending", s)
	s.Flush()
	check("durable", s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, 0)
	defer s.Close()
	if s.Len() != len(recs) {
		t.Errorf("reopened store holds %d records, want %d", s.Len(), len(recs))
	}
	check("reopened", s)
}

// TestSlotRoundTrip is the property under TestRecordRoundTrip: a Record
// indexed as a slot reads back with every field, for any field values.
func TestSlotRoundTrip(t *testing.T) {
	f := func(key, group, ct, cc string, lmSec, vaSec int64, lmNsec, vaNsec uint32, hasLM bool,
		delta, gdelta, ttr int64, vdelta float64, body []byte) bool {
		if math.IsNaN(vdelta) {
			return true // no journal line can carry one
		}
		// Seconds within the years time.Time can name both ways.
		in := func(sec int64, nsec uint32) time.Time {
			return time.Unix(sec%(1<<40), int64(nsec%1e9))
		}
		rec := sealed(Record{Key: key, Group: group, ContentType: ct, CacheControl: cc,
			LastMod: in(lmSec, lmNsec), HasLastMod: hasLM, ValidatedAt: in(vaSec, vaNsec),
			Delta: time.Duration(delta), GroupDelta: time.Duration(gdelta), TTR: time.Duration(ttr),
			ValueDelta: vdelta}, body)
		return sameRecord(newSlot(rec).record(key), rec)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	zero := sealed(Record{Key: "/zero"}, nil)
	if got := newSlot(zero).record("/zero"); got != zero {
		t.Errorf("zero instants read back as %+v, want %+v", got, zero)
	}
}

// TestJournalV1Loads opens a store written by the journal-of-Records
// index this package kept before its slots (testdata/journal-v1: appended
// lines, a superseded version, a tombstone, two keys sharing one blob)
// and finds every live record intact.
func TestJournalV1Loads(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "journal-v1")
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, 0)
	defer s.Close()
	want := journalV1Records()
	if s.Len() != len(want) {
		t.Errorf("store holds %d records, want %d", s.Len(), len(want))
	}
	for _, w := range want {
		got, body, ok := s.Get(w.rec.Key)
		if !ok || string(body) != w.body || !sameRecord(got, sealed(w.rec, []byte(w.body))) {
			t.Errorf("Get(%q) = %+v, %q, %v\nwant %+v, %q", w.rec.Key, got, body, ok, sealed(w.rec, []byte(w.body)), w.body)
		}
	}
}

// journalV1Records are the live records of testdata/journal-v1 with
// their bodies.
func journalV1Records() []struct {
	rec  Record
	body string
} {
	cet := time.FixedZone("CET", 3600)
	return []struct {
		rec  Record
		body string
	}{
		{Record{Key: "/news/front", Group: "news", ContentType: "text/html",
			CacheControl: "x-cc-delta=40, x-mc-group=news, x-mc-delta=10",
			LastMod:      t0, HasLastMod: true, ValidatedAt: t0.Add(3 * time.Second),
			Delta: 40 * time.Second, GroupDelta: 10 * time.Second, TTR: 90 * time.Second}, "front page, second edition"},
		{Record{Key: "/news/photo.jpg", Group: "news", ContentType: "image/jpeg",
			CacheControl: "x-cc-delta=40, x-mc-group=news, x-mc-delta=10",
			ValidatedAt:  time.Date(2023, 11, 14, 23, 0, 0, 123456789, cet),
			Delta:        40 * time.Second, GroupDelta: 10 * time.Second}, "shared bytes"},
		{Record{Key: "/mirror/photo.jpg", LastMod: t0.Add(-time.Hour), HasLastMod: true,
			ValidatedAt: t0}, "shared bytes"},
		{Record{Key: "/quote/acme?ccy=usd", Group: "quotes", ContentType: "text/plain",
			CacheControl: "x-cc-vdelta=250", ValidatedAt: t0.Add(time.Nanosecond),
			ValueDelta: 0.25, TTR: 5 * time.Second}, "165.38\n"},
	}
}
