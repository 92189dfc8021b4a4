package push

// This file pins the prefix-partitioned replay ring: partition naming,
// the partition-scoped resume-hole rule (a gap made only of foreign-
// partition frames is no hole), the byte budget's fattest-first trim
// (a narrow subtree's replay window survives bursts elsewhere), and the
// contention benchmarks the ISSUE's publish-latency bound is gated on.

import (
	"bytes"
	"fmt"
	"testing"
)

func TestPartitionName(t *testing.T) {
	cases := []struct{ key, want string }{
		{"/news/politics/1", "/news/"},
		{"/news/", "/news/"},
		{"/news", "/news"},
		{"/", "/"},
		{"/a/b?x=1", "/a/"},
		{"/page?x=1", "/page"},
		{"", ""},
		{"relative/key", ""},
		{"urn:object:7", ""},
	}
	for _, c := range cases {
		if got := PartitionName(c.key); got != c.want {
			t.Errorf("PartitionName(%q) = %q, want %q", c.key, got, c.want)
		}
	}
	// The name must be a prefix of its key — that is what makes
	// interest-to-partition relevance sound.
	for _, c := range cases {
		if p := PartitionName(c.key); p != "" && !bytes.HasPrefix([]byte(c.key), []byte(p)) {
			t.Errorf("partition %q is not a prefix of its key %q", p, c.key)
		}
	}
}

// fillTwoPartitions interleaves a narrow subtree of plain invalidations
// with a wide subtree of fat payloads until the wide partition blows
// the hub's byte budget and gets trimmed. Narrow frames land on odd
// sequence numbers (1, 3, ... 23), wide on even.
func fillTwoPartitions(t testing.TB) *Hub {
	t.Helper()
	h := NewHub(HubConfig{PayloadCap: 4096, replayLen: 1024, replayBytes: 8192})
	for i := 0; i < 12; i++ {
		h.Publish(Event{Kind: KindUpdate, Key: fmt.Sprintf("/narrow/%d", i)})
		body := bytes.Repeat([]byte{byte('a' + i)}, 900)
		h.Publish(Event{Kind: KindUpdate, Key: fmt.Sprintf("/wide/%d", i),
			Body: body, HasBody: true, Digest: DigestOf(body)})
	}
	return h
}

// TestHubPartitionedResumeForeignHole: after the byte budget trims the
// fat /wide/ partition, a /narrow/-interested resumer crossing the gap
// gets a clean replay (the pruned frames are foreign to it), while a
// /wide/-interested or unfiltered resumer over the same gap still
// Resets — the hole is real inside a partition they declared.
func TestHubPartitionedResumeForeignHole(t *testing.T) {
	h := fillTwoPartitions(t)
	if st := h.Stats(); st.ReplayLen >= 24 {
		t.Fatalf("byte budget did not trim: ReplayLen=%d", st.ReplayLen)
	}

	hello, sub, ok := h.subscribe(1, 0, NewInterest([]string{"/narrow/"}), nil)
	if !ok {
		t.Fatal("subscribe failed")
	}
	defer h.unsubscribe(sub)
	if hello.Reset {
		t.Fatal("narrow resumer Reset over a hole made only of foreign-partition frames")
	}
	backlog := fetchAll(h, sub)
	if len(backlog) != 11 {
		t.Fatalf("narrow replay delivered %d frames, want 11", len(backlog))
	}
	for i, re := range backlog {
		ev, err := Decode(re.WireFor(0))
		if err != nil {
			t.Fatalf("backlog[%d] does not decode: %v", i, err)
		}
		if want := fmt.Sprintf("/narrow/%d", i+1); ev.Key != want {
			t.Fatalf("backlog[%d] = %q, want %q", i, ev.Key, want)
		}
	}
	// The position proven by the walk must be the stream head, not the
	// last narrow frame: the foreign gap is jumped, so a reconnect from
	// here never re-crosses it.
	if cur, head := sub.cursor.Load(), h.Stats().Seq; cur != head {
		t.Errorf("narrow walk proved position %d, want head %d", cur, head)
	}
	if h.Stats().ResumeHoles != 0 {
		t.Error("a foreign-partition gap was counted as a resume hole")
	}

	hello2, sub2, _ := h.subscribe(1, 4096, NewInterest([]string{"/wide/"}), nil)
	defer h.unsubscribe(sub2)
	if !hello2.Reset {
		t.Error("wide resumer not Reset over a genuine gap in its own partition")
	}
	hello3, sub3, _ := h.subscribe(1, 0, InterestAll(), nil)
	defer h.unsubscribe(sub3)
	if !hello3.Reset {
		t.Error("unfiltered resumer not Reset over a pruned partition")
	}
	if holes := h.Stats().ResumeHoles; holes != 2 {
		t.Errorf("ResumeHoles = %d, want 2", holes)
	}
}

// TestHubPartitionBudgetProtectsNarrowSubtree pins the acceptance
// behavior: the ring's byte budget trims the fattest partition first,
// so a narrow subtree's residency is bounded by ITS OWN traffic — the
// wide partition's burst cannot evict the narrow history — and the
// per-partition split is visible in Stats (and through /metrics).
func TestHubPartitionBudgetProtectsNarrowSubtree(t *testing.T) {
	h := fillTwoPartitions(t)
	st := h.Stats()
	if st.ReplayBytes > st.ReplayByteCap {
		t.Fatalf("ring over budget: %d > %d", st.ReplayBytes, st.ReplayByteCap)
	}
	if len(st.Partitions) != 2 {
		t.Fatalf("Partitions = %+v, want a /narrow/ and a /wide/ entry", st.Partitions)
	}
	var narrow, wide *HubPartitionStats
	for i := range st.Partitions {
		switch st.Partitions[i].Name {
		case "/narrow/":
			narrow = &st.Partitions[i]
		case "/wide/":
			wide = &st.Partitions[i]
		}
	}
	if narrow == nil || wide == nil {
		t.Fatalf("Partitions = %+v", st.Partitions)
	}
	// All 12 narrow invalidations cost well under a single wide body;
	// every one of them must still be resident.
	if narrow.Bytes >= 900 {
		t.Errorf("narrow partition holds %d bytes — foreign traffic charged to it?", narrow.Bytes)
	}
	if wide.Bytes+narrow.Bytes != st.ReplayBytes {
		t.Errorf("partition bytes %d+%d do not sum to ReplayBytes %d",
			narrow.Bytes, wide.Bytes, st.ReplayBytes)
	}
	_, sub, ok := h.subscribe(1, 0, NewInterest([]string{"/narrow/"}), nil)
	if !ok {
		t.Fatal("subscribe failed")
	}
	defer h.unsubscribe(sub)
	if got := len(fetchAll(h, sub)); got != 11 {
		t.Errorf("narrow history trimmed to %d frames by the wide burst, want 11", got)
	}
}

// contendedHub's fleet drains every key, and as many subscribers again
// never drain at all.
func contendedHub(tb testing.TB, fleet int) (*Hub, Event) {
	// A huge subscriberBuffer keeps the slow-consumer scan from reaping
	// the deliberately stalled half of the fleet.
	h := NewHub(HubConfig{subscriberBuffer: 1 << 30})
	drainHubFleet(tb, h, fleet, 0, InterestAll())
	for i := 0; i < fleet; i++ {
		_, sub, ok := h.subscribe(0, 0, InterestAll(), nil)
		if !ok {
			tb.Fatal("subscribe failed")
		}
		tb.Cleanup(func() { h.unsubscribe(sub) })
	}
	return h, Event{Kind: KindUpdate, Key: "/obj/path"}
}

// BenchmarkHubPublishContended is the ISSUE's publish-latency gate: one
// publisher against fleets of concurrently pulling subscribers PLUS an
// equal count of stalled ones that never drain. Publish takes the ring
// write lock only — it does zero per-subscriber work — so ns/op must
// stay flat (≤1.3x) from subs=1 to subs=256 and allocations must not
// grow with the fleet.
func BenchmarkHubPublishContended(b *testing.B) {
	for _, fleet := range []int{1, 16, 64, 256} {
		b.Run(fmt.Sprintf("subs=%d", fleet), func(b *testing.B) {
			h, ev := contendedHub(b, fleet)
			benchPublish(b, h, ev)
		})
	}
}

// BenchmarkHubReplayPartitioned measures a narrow-interest resume
// against a ring filled by eight subtrees: the walk merges only the
// declared partition's frames and jumps the foreign seven-eighths of
// the sequence space without touching them.
func BenchmarkHubReplayPartitioned(b *testing.B) {
	h := NewHub(HubConfig{replayLen: 1024})
	for i := 0; i < 1024; i++ {
		h.Publish(Event{Kind: KindUpdate, Key: fmt.Sprintf("/p%d/obj/%d", i%8, i)})
	}
	interest := NewInterest([]string{"/p3/"})
	scratch := make([]RenderedEvent, 0, fetchBatchLimit+1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sub, ok := h.subscribe(1, 0, interest, nil)
		if !ok {
			b.Fatal("subscribe failed")
		}
		n := 0
		for {
			batch, boundary, gen, killed := h.fetch(sub, scratch[:0])
			if killed {
				b.Fatal("replay walk killed")
			}
			progressed := len(batch) > 0 || boundary > sub.cursor.Load()
			n += len(batch)
			sub.cursor.Store(boundary)
			sub.resetGen = gen
			if !progressed {
				break
			}
		}
		if n != 128 {
			b.Fatalf("replayed %d frames, want 128", n)
		}
		h.unsubscribe(sub)
	}
}
