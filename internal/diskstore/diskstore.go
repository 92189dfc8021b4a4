// Package diskstore is the persistent tier behind the proxy's sharded
// in-memory store: content-addressed blob files plus a compact
// append-only metadata journal. It is deliberately ignorant of HTTP and
// of the consistency machinery — callers hand it Records (metadata) and
// bodies (bytes) and get both back after a restart.
//
// Layout on disk:
//
//	<dir>/index.log          append-only JSONL journal of Records
//	<dir>/blobs/<2-hex>/<64-hex>   body bytes, named by SHA-256
//
// Writes are asynchronous (single write-behind worker, per-key
// coalescing so only the latest state of a hot key hits disk) and
// ordered blob-before-journal: a crash can strand an orphan blob
// (garbage, collected at next Open) but never a journal record whose
// blob is missing or truncated — such records are pruned at Open, so a
// torn write degrades to a cache miss, never a partial serve.
package diskstore

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Record is the durable metadata for one cached object. Body bytes live
// in the blob identified by Digest; everything the proxy needs to
// rehydrate an entry without re-learning it rides here.
type Record struct {
	Key          string        `json:"key"`
	Group        string        `json:"group,omitempty"`
	ContentType  string        `json:"ct,omitempty"`
	CacheControl string        `json:"cc,omitempty"`
	LastMod      time.Time     `json:"lm,omitempty"`
	HasLastMod   bool          `json:"hlm,omitempty"`
	ValidatedAt  time.Time     `json:"va"`
	Delta        time.Duration `json:"delta,omitempty"`
	GroupDelta   time.Duration `json:"gdelta,omitempty"`
	ValueDelta   float64       `json:"vdelta,omitempty"`
	// TTR is the learned refresh interval at persist time; zero means
	// "unknown, re-learn from InitialTTR" (e.g. value-paired entries
	// whose schedule belongs to the partner).
	TTR    time.Duration `json:"ttr,omitempty"`
	Digest string        `json:"digest"`
	Size   int64         `json:"size"`
	// Del marks a journal tombstone; never set on live records.
	Del bool `json:"del,omitempty"`
}

// Stats is a point-in-time snapshot of the store's state and lifetime
// counters.
type Stats struct {
	Records       int
	Bytes         int64
	PendingWrites int
	Writes        uint64
	WriteErrors   uint64
	Deletes       uint64
	Evictions     uint64
}

type pendingOp struct {
	rec  Record
	body []byte
	del  bool
}

// Store is a content-addressed blob store with a journaled metadata
// index and a single asynchronous write-behind worker.
type Store struct {
	dir      string
	maxBytes int64

	mu       sync.Mutex
	records  map[string]Record
	refs     map[string]int // digest -> live record count
	bytes    int64
	pending  map[string]pendingOp
	order    []string // FIFO of keys with pending ops (coalesced)
	inFlight int
	applying pendingOp // the op the worker is applying while inFlight > 0
	idle     *sync.Cond

	journal    *os.File
	journalLen int // records appended since last compaction

	closed bool
	wake   chan struct{}
	done   chan struct{}

	writes    atomic.Uint64
	writeErrs atomic.Uint64
	deletes   atomic.Uint64
	evictions atomic.Uint64
}

const journalName = "index.log"

// Open loads (or creates) a disk store rooted at dir. maxBytes <= 0
// means unbounded. The journal is replayed tolerantly: undecodable
// lines (torn tail from a crash) are skipped, records whose blob is
// missing or mismatched in size are pruned, orphan blobs and temp
// files are removed, and the journal is compacted to one line per live
// record before the write-behind worker starts.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		records:  make(map[string]Record),
		refs:     make(map[string]int),
		pending:  make(map[string]pendingOp),
		wake:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	s.idle = sync.NewCond(&s.mu)
	if err := s.load(); err != nil {
		return nil, err
	}
	s.enforceBudgetLocked("")
	if err := s.compact(); err != nil {
		return nil, err
	}
	go s.worker()
	return s, nil
}

// load replays the journal into memory, pruning records whose blob
// does not check out and sweeping orphan blobs.
func (s *Store) load() error {
	path := filepath.Join(s.dir, journalName)
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("diskstore: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			// Torn tail or garbage: tolerate and skip.
			continue
		}
		if rec.Del {
			s.dropLocked(rec.Key)
			continue
		}
		if rec.Key == "" || rec.Digest == "" {
			continue
		}
		s.dropLocked(rec.Key) // replace any earlier version
		s.records[rec.Key] = rec
		s.refs[rec.Digest]++
		s.bytes += rec.Size
	}
	if err := sc.Err(); err != nil && !errors.Is(err, bufio.ErrTooLong) {
		return fmt.Errorf("diskstore: %w", err)
	}
	// Validate blobs: a record is only as good as its bytes.
	for key, rec := range s.records {
		fi, err := os.Stat(s.blobPath(rec.Digest))
		if err != nil || fi.Size() != rec.Size {
			s.dropLocked(key)
		}
	}
	// Sweep orphan blobs and stranded temp files.
	blobRoot := filepath.Join(s.dir, "blobs")
	subs, _ := os.ReadDir(blobRoot)
	for _, sub := range subs {
		if !sub.IsDir() {
			os.Remove(filepath.Join(blobRoot, sub.Name()))
			continue
		}
		files, _ := os.ReadDir(filepath.Join(blobRoot, sub.Name()))
		for _, bf := range files {
			name := bf.Name()
			if strings.HasSuffix(name, ".tmp") || s.refs[name] == 0 {
				os.Remove(filepath.Join(blobRoot, sub.Name(), name))
			}
		}
	}
	return nil
}

// dropLocked removes a record from the in-memory index and releases its
// blob reference (the blob file itself is deleted lazily by callers).
func (s *Store) dropLocked(key string) (Record, bool) {
	rec, ok := s.records[key]
	if !ok {
		return Record{}, false
	}
	delete(s.records, key)
	s.bytes -= rec.Size
	if s.refs[rec.Digest]--; s.refs[rec.Digest] <= 0 {
		delete(s.refs, rec.Digest)
	}
	return rec, true
}

func (s *Store) blobPath(digest string) string {
	prefix := "00"
	if len(digest) >= 2 {
		prefix = digest[:2]
	}
	return filepath.Join(s.dir, "blobs", prefix, digest)
}

// Put persists rec with body asynchronously. The record's Digest and
// Size are computed here; callers fill the metadata. Repeated Puts for
// the same key before the worker runs coalesce to the latest value.
func (s *Store) Put(rec Record, body []byte) {
	sum := sha256.Sum256(body)
	rec.Digest = hex.EncodeToString(sum[:])
	rec.Size = int64(len(body))
	rec.Del = false
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if _, queued := s.pending[rec.Key]; !queued {
		s.order = append(s.order, rec.Key)
	}
	s.pending[rec.Key] = pendingOp{rec: rec, body: body}
	s.signal()
}

// Delete removes key from the store (pending queue and durable index).
// It reports whether the key was present in either.
func (s *Store) Delete(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, live := s.records[key]
	// Unapplied state wins: a queued delete means the key is already gone
	// from the caller's perspective, a queued put — or one the worker is
	// applying right now, whose tombstone must queue behind it — means it
	// is present.
	if op, ok := s.unappliedLocked(key); ok {
		live = !op.del
	}
	if !live || s.closed {
		return false
	}
	if _, inPending := s.pending[key]; !inPending {
		s.order = append(s.order, key)
	}
	s.pending[key] = pendingOp{rec: Record{Key: key, Del: true}, del: true}
	s.signal()
	return true
}

// unappliedLocked returns the newest op for key the index does not
// reflect yet: queued, or taken off the queue and being applied by the
// worker at this moment. Without the second case a write would vanish
// from view between leaving the queue and reaching the index — a reader
// would see the version it replaced, and a Delete would miss it and let
// it land afterwards. Called with s.mu held.
func (s *Store) unappliedLocked(key string) (pendingOp, bool) {
	if op, ok := s.pending[key]; ok {
		return op, true
	}
	if s.inFlight > 0 && s.applying.rec.Key == key {
		return s.applying, true
	}
	return pendingOp{}, false
}

// Get returns the record and body for key, or ok=false. Pending writes
// are visible immediately (read-your-writes); durable bodies are
// re-verified against their digest so a corrupt blob reads as a miss.
func (s *Store) Get(key string) (Record, []byte, bool) {
	s.mu.Lock()
	if op, ok := s.unappliedLocked(key); ok {
		s.mu.Unlock()
		if op.del {
			return Record{}, nil, false
		}
		return op.rec, op.body, true
	}
	rec, ok := s.records[key]
	s.mu.Unlock()
	if !ok {
		return Record{}, nil, false
	}
	body, err := os.ReadFile(s.blobPath(rec.Digest))
	if err != nil || int64(len(body)) != rec.Size {
		return Record{}, nil, false
	}
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != rec.Digest {
		return Record{}, nil, false
	}
	return rec, body, true
}

// Meta returns the durable-or-pending record for key without reading
// the body.
func (s *Store) Meta(key string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if op, ok := s.unappliedLocked(key); ok {
		if op.del {
			return Record{}, false
		}
		return op.rec, true
	}
	rec, ok := s.records[key]
	return rec, ok
}

// Keys returns the keys of all live records (durable plus pending
// puts, minus pending deletes), in no particular order.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.records)+len(s.pending))
	seen := make(map[string]bool, len(s.records))
	for key, op := range s.pending {
		seen[key] = true
		if !op.del {
			keys = append(keys, key)
		}
	}
	for key := range s.records {
		if !seen[key] {
			keys = append(keys, key)
		}
	}
	return keys
}

// Len reports the number of live records (pending-aware).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.records)
	for key, op := range s.pending {
		_, durable := s.records[key]
		if op.del && durable {
			n--
		} else if !op.del && !durable {
			n++
		}
	}
	return n
}

// Stats snapshots counters and sizes.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	records, bytes, pend := len(s.records), s.bytes, len(s.order)
	s.mu.Unlock()
	return Stats{
		Records:       records,
		Bytes:         bytes,
		PendingWrites: pend,
		Writes:        s.writes.Load(),
		WriteErrors:   s.writeErrs.Load(),
		Deletes:       s.deletes.Load(),
		Evictions:     s.evictions.Load(),
	}
}

// Flush blocks until the write-behind queue is drained.
func (s *Store) Flush() {
	s.mu.Lock()
	for len(s.order) > 0 || s.inFlight > 0 {
		s.idle.Wait()
	}
	s.mu.Unlock()
}

// Close drains the queue, stops the worker, and closes the journal.
// The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.signal()
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal != nil {
		err := s.journal.Close()
		s.journal = nil
		return err
	}
	return nil
}

func (s *Store) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// worker is the single write-behind goroutine: it pops coalesced ops in
// FIFO order and applies them until Close drains the queue.
func (s *Store) worker() {
	defer close(s.done)
	for {
		s.mu.Lock()
		for len(s.order) == 0 {
			if s.closed {
				s.mu.Unlock()
				return
			}
			s.idle.Broadcast()
			s.mu.Unlock()
			<-s.wake
			s.mu.Lock()
		}
		key := s.order[0]
		s.order = s.order[1:]
		op, ok := s.pending[key]
		if !ok {
			s.mu.Unlock()
			continue
		}
		delete(s.pending, key)
		s.inFlight++
		s.applying = op
		s.mu.Unlock()

		if op.del {
			s.applyDelete(key)
		} else {
			s.applyPut(op.rec, op.body)
		}

		s.mu.Lock()
		s.inFlight--
		s.applying = pendingOp{} // release the body
		if len(s.order) == 0 && s.inFlight == 0 {
			s.idle.Broadcast()
		}
		s.mu.Unlock()
	}
}

// applyPut writes the blob (if not already referenced), appends the
// journal record, updates the index, and enforces the byte budget.
// Blob-before-journal: a crash between the two strands an orphan blob,
// never a record without bytes.
func (s *Store) applyPut(rec Record, body []byte) {
	s.mu.Lock()
	haveBlob := s.refs[rec.Digest] > 0
	s.mu.Unlock()
	if !haveBlob {
		if err := s.writeBlob(rec.Digest, body); err != nil {
			s.writeErrs.Add(1)
			return
		}
	}
	s.mu.Lock()
	if err := s.appendLocked(rec); err != nil {
		s.mu.Unlock()
		s.writeErrs.Add(1)
		return
	}
	old, hadOld := s.dropLocked(rec.Key)
	s.records[rec.Key] = rec
	s.refs[rec.Digest]++
	s.bytes += rec.Size
	var stale []string
	if hadOld && old.Digest != rec.Digest && s.refs[old.Digest] == 0 {
		stale = append(stale, old.Digest)
	}
	stale = append(stale, s.enforceBudgetLocked(rec.Key)...)
	s.maybeCompactLocked()
	s.mu.Unlock()
	for _, d := range stale {
		os.Remove(s.blobPath(d))
	}
	s.writes.Add(1)
}

func (s *Store) applyDelete(key string) {
	s.mu.Lock()
	old, had := s.dropLocked(key)
	if !had {
		s.mu.Unlock()
		return
	}
	if err := s.appendLocked(Record{Key: key, Del: true}); err != nil {
		s.writeErrs.Add(1)
	}
	removeBlob := s.refs[old.Digest] == 0
	s.maybeCompactLocked()
	s.mu.Unlock()
	if removeBlob {
		os.Remove(s.blobPath(old.Digest))
	}
	s.deletes.Add(1)
}

// writeBlob writes body to its content-addressed path via temp+rename
// so a crash never leaves a half-written blob under the final name.
func (s *Store) writeBlob(digest string, body []byte) error {
	path := s.blobPath(digest)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), digest+".*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(body); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// appendLocked appends one journal line. Called with s.mu held.
func (s *Store) appendLocked(rec Record) error {
	if s.journal == nil {
		f, err := os.OpenFile(filepath.Join(s.dir, journalName),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		s.journal = f
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	if _, err := s.journal.Write(line); err != nil {
		return err
	}
	s.journalLen++
	return nil
}

// enforceBudgetLocked evicts oldest-validated records until bytes fit
// the budget, sparing protect (the key just written). Returns digests
// whose blobs should be removed by the caller after unlocking.
func (s *Store) enforceBudgetLocked(protect string) []string {
	if s.maxBytes <= 0 || s.bytes <= s.maxBytes {
		return nil
	}
	type aged struct {
		key string
		at  time.Time
	}
	victims := make([]aged, 0, len(s.records))
	for key, rec := range s.records {
		if key == protect {
			continue
		}
		victims = append(victims, aged{key, rec.ValidatedAt})
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].at.Before(victims[j].at) })
	var stale []string
	for _, v := range victims {
		if s.bytes <= s.maxBytes {
			break
		}
		old, had := s.dropLocked(v.key)
		if !had {
			continue
		}
		if err := s.appendLocked(Record{Key: v.key, Del: true}); err != nil {
			s.writeErrs.Add(1)
		}
		if s.refs[old.Digest] == 0 {
			stale = append(stale, old.Digest)
		}
		s.evictions.Add(1)
	}
	return stale
}

// maybeCompactLocked rewrites the journal when it has grown well past
// the live record count. Called with s.mu held.
func (s *Store) maybeCompactLocked() {
	if s.journalLen > 1024 && s.journalLen > 4*len(s.records) {
		if err := s.compactLocked(); err != nil {
			s.writeErrs.Add(1)
		}
	}
}

// compact rewrites the journal to one line per live record.
func (s *Store) compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	tmp, err := os.CreateTemp(s.dir, journalName+".*.tmp")
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	w := bufio.NewWriter(tmp)
	keys := make([]string, 0, len(s.records))
	for key := range s.records {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		line, err := json.Marshal(s.records[key])
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("diskstore: %w", err)
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("diskstore: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("diskstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("diskstore: %w", err)
	}
	if s.journal != nil {
		s.journal.Close()
		s.journal = nil
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, journalName)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("diskstore: %w", err)
	}
	s.journalLen = len(s.records)
	return nil
}

// Verify is a read-only consistency check over a store directory: the
// journal must parse (torn tails tolerated), and every live record's
// blob must exist with matching size and digest. Orphan blobs are fine
// (they are garbage, not corruption). It returns the live record count.
// Used by cmd/diskcheck and the crash-consistency smoke test.
func Verify(dir string) (int, error) {
	f, err := os.Open(filepath.Join(dir, journalName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil // empty store is consistent
		}
		return 0, fmt.Errorf("diskstore: %w", err)
	}
	defer f.Close()
	live := make(map[string]Record)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			continue // torn tail
		}
		if rec.Del {
			delete(live, rec.Key)
			continue
		}
		if rec.Key != "" && rec.Digest != "" {
			live[rec.Key] = rec
		}
	}
	if err := sc.Err(); err != nil && !errors.Is(err, bufio.ErrTooLong) {
		return 0, fmt.Errorf("diskstore: %w", err)
	}
	for key, rec := range live {
		prefix := "00"
		if len(rec.Digest) >= 2 {
			prefix = rec.Digest[:2]
		}
		path := filepath.Join(dir, "blobs", prefix, rec.Digest)
		body, err := os.ReadFile(path)
		if err != nil {
			return 0, fmt.Errorf("diskstore: record %q: blob missing: %w", key, err)
		}
		if int64(len(body)) != rec.Size {
			return 0, fmt.Errorf("diskstore: record %q: blob size %d, index says %d", key, len(body), rec.Size)
		}
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); got != rec.Digest {
			return 0, fmt.Errorf("diskstore: record %q: blob digest mismatch", key)
		}
	}
	return len(live), nil
}
