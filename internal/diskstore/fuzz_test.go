package diskstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzJournalLoad hammers Open's journal replay with arbitrary journal
// bytes over a store holding two blobs. In the journal, $A and $B stand
// for the two blobs' digests, so the fuzzer can spell records that find
// their bytes. Whatever the journal says:
//
//   - Open never panics and never fails: a bad line costs a record,
//     never the store.
//   - Every loaded record names a blob under <dir>/blobs, and Delete
//     of every key, with the blob removals it runs, never touches a
//     file outside the store.
//   - Len agrees with Keys.
//   - A Get that succeeds returns bytes whose SHA-256 is the record's
//     digest.
func FuzzJournalLoad(f *testing.F) {
	f.Add([]byte(`{"key":"/a","va":"2023-11-14T22:13:20Z","digest":"$A","size":5}`+"\n"), []byte("alpha"), []byte("beta"), uint16(0))
	f.Add([]byte(`{"key":"/a","digest":"$A","size":5}`+"\n"+
		`{"key":"/b","digest":"$B","size":4}`+"\n"+
		`{"key":"/a","del":true}`+"\n"+
		`{"key":"/b","digest":"$A","size":5}`), []byte("alpha"), []byte("beta"), uint16(4))
	f.Add([]byte(`{"key":"/k","digest":"../victim","size":8}`+"\n"+
		`{"key":"/u","digest":"`+strings.ToUpper(hex.EncodeToString(make([]byte, 32)))+`","size":0}`), []byte("precious"), []byte{}, uint16(0))
	f.Add([]byte(`{"key":"/t","digest":"$B","size":3`), []byte{}, []byte("abc"), uint16(1))
	f.Fuzz(func(t *testing.T, journal, blobA, blobB []byte, budget uint16) {
		root := t.TempDir()
		dir := filepath.Join(root, "store")
		victim := filepath.Join(root, "victim")
		if err := os.WriteFile(victim, []byte("precious"), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"$A", "$B"} {
			blob := blobA
			if name == "$B" {
				blob = blobB
			}
			sum := sha256.Sum256(blob)
			digest := hex.EncodeToString(sum[:])
			journal = bytes.ReplaceAll(journal, []byte(name), []byte(digest))
			if err := os.MkdirAll(filepath.Join(dir, "blobs", digest[:2]), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(blobPath(dir, digest), blob, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, journalName), journal, 0o644); err != nil {
			t.Fatal(err)
		}

		s, err := Open(dir, int64(budget))
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		keys := s.Keys()
		if s.Len() != len(keys) {
			t.Errorf("Len() = %d, Keys() has %d", s.Len(), len(keys))
		}
		blobs := filepath.Join(dir, "blobs") + string(filepath.Separator)
		for _, key := range keys {
			rec, ok := s.Meta(key)
			if !ok {
				t.Fatalf("Keys() lists %q, Meta finds nothing", key)
			}
			if !validDigest(rec.Digest) || !strings.HasPrefix(blobPath(dir, rec.Digest), blobs) {
				t.Fatalf("record %q names a blob outside the store: %q", key, rec.Digest)
			}
			if got, body, ok := s.Get(key); ok {
				sum := sha256.Sum256(body)
				if hex.EncodeToString(sum[:]) != got.Digest {
					t.Fatalf("Get(%q) returned bytes that do not hash to %q", key, got.Digest)
				}
			}
		}
		for _, key := range keys {
			s.Delete(key)
		}
		s.Flush()
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if b, err := os.ReadFile(victim); err != nil || string(b) != "precious" {
			t.Fatalf("a file outside the store was touched: %q, %v", b, err)
		}
	})
}
