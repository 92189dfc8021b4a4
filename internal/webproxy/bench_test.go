package webproxy

import (
	"fmt"
	"net/url"
	"testing"
	"time"

	"broadway/internal/push"
)

// BenchmarkStoreEvictScan measures the CLOCK victim scan on a full
// store: every put displaces exactly one resident, so each iteration
// pays for one sweep (access-bit clearing, group-lives accounting,
// ring/map removal) plus the insert and ledger updates.
func BenchmarkStoreEvictScan(b *testing.B) {
	const capacity = 4096
	s := newStore(64)
	for i := 0; i < capacity; i++ {
		e := &entry{key: fmt.Sprintf("/seed/%d", i)}
		e.size.Store(1024)
		s.put(e.key, e, capacity, -1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := &entry{key: fmt.Sprintf("/churn/%d", i)}
		e.size.Store(1024)
		_, _, victims, _ := s.put(e.key, e, capacity, -1)
		if len(victims) != 1 {
			b.Fatalf("iteration %d evicted %d entries, want 1", i, len(victims))
		}
	}
}

// valuePushProxy is BenchmarkValuePushApply's setup, which
// TestValuePushApplyAllocBudget shares: a proxy holding one resident,
// and a func that installs the resident's next pushed revision.
func valuePushProxy(tb testing.TB) (*Proxy, func()) {
	origin, _ := url.Parse("http://origin.invalid")
	p, err := New(Config{Origin: origin})
	if err != nil {
		tb.Fatal(err)
	}
	e := &entry{key: "/quote/acme"}
	e.size.Store(entrySize(e.key, nil))
	p.store.put(e.key, e, -1, -1)

	body := []byte("165.3800\n")
	digest := push.DigestOf(body)
	base := time.Unix(1_700_000_000, 0)
	revision := 0
	return p, func() {
		revision++
		ev := pushedEvent{Event: push.Event{
			Kind:        push.KindUpdate,
			Key:         e.key,
			ModTime:     base.Add(time.Duration(revision) * time.Second),
			Body:        body,
			HasBody:     true,
			ContentType: "text/plain",
			Digest:      digest,
		}}
		if installed, _ := p.applyPushedValue(e, &ev); !installed {
			tb.Fatal("apply fell back")
		}
	}
}

// BenchmarkValuePushApply measures the value-carrying fast path: one
// pushed payload installed end to end — dedupe check, digest
// verification, body swap, ledger re-charge — with no origin involved.
// This is the per-update cost that replaces a full confirmation poll
// (network round trip + conditional GET) under value push.
func BenchmarkValuePushApply(b *testing.B) {
	p, apply := valuePushProxy(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apply()
	}
	b.StopTimer()
	if got := p.pushApplied.Load(); got != uint64(b.N) {
		b.Fatalf("applied %d of %d", got, b.N)
	}
}

// BenchmarkStoreHitMark isolates the hit path's store cost — shard
// lookup plus the lock-free CLOCK access-bit store — to confirm
// replacement added no lock acquisitions to hits (compare the
// end-to-end figure in the root BenchmarkProxyHitParallel).
func BenchmarkStoreHitMark(b *testing.B) {
	const objects = 1024
	s := newStore(64)
	keys := make([]string, objects)
	for i := range keys {
		keys[i] = fmt.Sprintf("/obj/%d", i)
		e := &entry{key: keys[i]}
		e.size.Store(1024)
		s.put(keys[i], e, -1, -1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			e := s.get(keys[i%objects])
			if e == nil {
				b.Error("lost an entry")
				return
			}
			e.markAccessed()
			i++
		}
	})
}
