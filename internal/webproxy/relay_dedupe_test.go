package webproxy

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"broadway/internal/core"
	"broadway/internal/httpx"
	"broadway/internal/push"
	"broadway/internal/webserver"
)

// This file holds the relay chain to "one payload per version per
// link": a three-hop origin → root → mid → leaf fleet on counted links,
// where every update must cross each link as exactly one payload-bearing
// frame (chunked only the first time a stream sees the key), and the two safety cases the deduplication must not break —
// a polling leaf under a value-pushing parent, and a leaf whose own
// install fails — both of which converge off the payload-free
// confirmation.

// valueChain is an origin and a chain of value-pushing proxies, root
// first, each node's content and event stream coming from the one before
// it; node i's link counts the traffic with its upstream (the root's is
// origin↔root). tune adjusts node i's configuration (i counts from the
// root) and may be nil. The topology starts unstarted, so a test seeds
// the origin before any stream exists — revision 0 then reaches the
// proxies only as plain fetches, and no hub knows what any stream holds
// — and starts it after. Schedules are wide — no regular poll runs during
// a test — so every refresh observed is the push path's doing.
func valueChain(hops int, tune func(i int, cfg *Config)) topology {
	return topology{
		hops:   hops,
		push:   true,
		manual: true,
		origin: []webserver.Option{webserver.WithHistoryExtension(true), webserver.WithPushValues(0)},
		cfg: Config{
			DefaultDelta:      2 * time.Second,
			DefaultGroupDelta: 2 * time.Second,
			Bounds:            core.TTRBounds{Min: time.Minute, Max: time.Hour},
			Mode:              core.TriggerAll,
			PushValues:        true,
		},
		tune: tune,
	}
}

// set publishes a new revision of path at the origin, two seconds after
// the previous one: every revision gets its own modification instant.
func set(h *harness, path string, body []byte) {
	h.clk.AdvanceTo(h.clk.Now().Add(2 * time.Second))
	h.origin.Set(path, body, "text/plain")
}

// admitAll reads each path through the leaf, admitting it at every hop.
func admitAll(t *testing.T, h *harness, paths ...string) {
	t.Helper()
	for _, p := range paths {
		if code, body, _ := h.leaf().get(p); code != http.StatusOK {
			t.Fatalf("admission of %s: %d %s", p, code, body)
		}
	}
	h.quiesce()
}

// textBody returns size bytes of seeded text; reviseBody returns prev
// with about 5 % of it redrawn in 16-byte runs (the fleet benchmark's
// mutation: a delta against prev has both copies and additions).
func textBody(rng *rand.Rand, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = 'a' + byte(rng.Intn(26))
		if i%64 == 63 {
			b[i] = '\n'
		}
	}
	return b
}

func reviseBody(rng *rand.Rand, prev []byte) []byte {
	b := append([]byte(nil), prev...)
	const run = 16
	for r := 0; r < len(b)/20/run+1; r++ {
		at := rng.Intn(len(b) - run)
		for i := 0; i < run; i++ {
			b[at+i] = 'A' + byte(rng.Intn(26))
		}
	}
	return b
}

// TestThreeHopOnePayloadPerVersionPerLink drives N revisions of a body
// three times the payload cap, a lone 1 KiB body and a TriggerAll group
// of four through origin → root → mid → leaf, one at a time, and counts
// what crossed: every revision installs at the leaf from its frame, each
// stream carries one payload-bearing frame per revision (the relay's
// confirmation of it rides rung zero), a chunk set appears only where a
// stream first sees the big key, nothing falls back to a poll, and the
// last link carries about what the first one does.
func TestThreeHopOnePayloadPerVersionPerLink(t *testing.T) {
	const revisions = 4
	rng := rand.New(rand.NewSource(15))

	type object struct {
		path string
		body []byte
	}
	objs := []*object{
		{path: "/big/blob", body: textBody(rng, 3*push.DefaultPayloadCap)},
		{path: "/solo/page", body: textBody(rng, 1<<10)},
	}
	for m := 0; m < 4; m++ {
		objs = append(objs, &object{path: fmt.Sprintf("/group/m%d", m), body: textBody(rng, 1<<10)})
	}
	h := newHarness(t, valueChain(3, nil))
	for _, o := range objs {
		set(h, o.path, o.body)
	}
	for _, o := range objs[2:] {
		h.origin.SetTolerances(o.path, httpx.Tolerances{
			Delta: 2 * time.Second, Group: "quad", GroupDelta: 2 * time.Second})
	}
	h.start()
	for _, o := range objs {
		admitAll(t, h, o.path)
	}

	// Everything before this line is set-up: revision 0 crossed as plain
	// fetches, so each stream's first sight of a key is still to come.
	type snapshot struct {
		push  []PushStats
		relay []push.HubStats
		links []int64
		hub   push.HubStats
	}
	snap := func() snapshot {
		s := snapshot{hub: h.origin.PushHubStats()}
		for _, n := range h.nodes {
			s.push = append(s.push, n.PushStats())
			s.relay = append(s.relay, n.RelayStats().Hub)
			s.links = append(s.links, n.up.bytes.Load())
		}
		return s
	}
	before := snap()

	for r := 1; r <= revisions; r++ {
		for _, o := range objs {
			o.body = reviseBody(rng, o.body)
			set(h, o.path, o.body)
			h.quiesce()
			if got, _ := h.leaf().CachedBody(o.path); !bytes.Equal(got, o.body) {
				t.Fatalf("revision %d of %s never reached the leaf (leaf push %+v)", r, o.path, h.leaf().PushStats())
			}
		}
	}
	after := snap()

	updates := uint64(revisions * len(objs))
	for _, o := range objs {
		if st := h.leaf().ObjectStats(o.path); st.Applied != revisions || st.Pushed != 0 {
			t.Errorf("leaf %s: applied %d pushed polls %d, want %d and 0", o.path, st.Applied, st.Pushed, revisions)
		}
	}
	names := []string{"root", "mid", "leaf"}
	for i, name := range names {
		b, a := before.push[i], after.push[i]
		// The root hears each revision once, from the origin; every node
		// below also hears its parent's confirmation, which either joins
		// the job its payload queued or is dropped on the version check.
		wantEvents, maxDups := updates, uint64(0)
		if i > 0 {
			wantEvents, maxDups = 2*updates, updates
		}
		if got := a.Events - b.Events; got != wantEvents {
			t.Errorf("%s handled %d events, want %d", name, got, wantEvents)
		}
		if got := a.Duplicates - b.Duplicates; got > maxDups {
			t.Errorf("%s dropped %d duplicates, want at most %d", name, got, maxDups)
		}
		if got := a.ValueApplied - b.ValueApplied; got != updates {
			t.Errorf("%s installed %d payloads, want %d", name, got, updates)
		}
		if a.ValueFallbacks != 0 || a.DeltaBaseMisses != 0 || a.ChunksBroken != 0 {
			t.Errorf("%s left the clean path: %+v", name, a)
		}
	}
	// Per stream: the hub above each node. A stream's payload-bearing
	// frames are the updates published minus the ones it was sent on
	// rung zero; its only chunk set is its first sight of the big key.
	hubs := []struct {
		name          string
		before, after push.HubStats
		confirms      bool
	}{
		{"origin→root", before.hub, after.hub, false},
		{"root→mid", before.relay[0], after.relay[0], true},
		{"mid→leaf", before.relay[1], after.relay[1], true},
	}
	for _, hb := range hubs {
		published := hb.after.Seq - hb.before.Seq
		dups := hb.after.DuplicateFrames - hb.before.DuplicateFrames
		wantPublished, wantDups := updates, uint64(0)
		if hb.confirms {
			wantPublished, wantDups = 2*updates, updates
		}
		if published != wantPublished || dups != wantDups {
			t.Errorf("%s: %d events published, %d on rung zero; want %d and %d",
				hb.name, published, dups, wantPublished, wantDups)
		}
		if payloads := published - dups; payloads != updates {
			t.Errorf("%s carried %d payload-bearing frames for %d updates", hb.name, payloads, updates)
		}
		if got := hb.after.ChunkFrames - hb.before.ChunkFrames; got != 1 {
			t.Errorf("%s sent %d chunk sets, want 1 (the big key's first delivery)", hb.name, got)
		}
		// Of each key's revisions the first travels whole (the stream has
		// never been sent the key) and the rest as deltas against it.
		if got, want := hb.after.DeltaFrames-hb.before.DeltaFrames, updates-uint64(len(objs)); got != want {
			t.Errorf("%s sent %d delta frames, want %d", hb.name, got, want)
		}
		if hb.after.SlowKills != 0 || hb.after.Degraded != 0 {
			t.Errorf("%s hub degraded: %+v", hb.name, hb.after)
		}
		// The stream is gzip-coded: what crossed is less than the frames.
		raw := hb.after.StreamRawBytes - hb.before.StreamRawBytes
		if coded := hb.after.StreamBytes - hb.before.StreamBytes; coded >= raw {
			t.Errorf("%s wrote %d coded bytes for %d frame bytes", hb.name, coded, raw)
		}
	}
	first := after.links[0] - before.links[0]
	last := after.links[2] - before.links[2]
	t.Logf("link bytes: origin→root %d, root→mid %d, mid→leaf %d",
		first, after.links[1]-before.links[1], last)
	if float64(last) > 1.25*float64(first) {
		t.Errorf("mid→leaf carried %d bytes, origin→root %d: the chain amplifies", last, first)
	}
}

// TestThreeHopBackToBackRevisionsStayOnThePayloadPath is the same chain
// under the traffic a relay's ring actually sees: an over-cap key and
// four small ones in ONE partition, every key revised back to back
// before anything settles, so a relay's confirmation of one key and the
// pass-through of the next land in the partition while the stream below
// is still a publish or more behind. Every frame that stream then
// fetches must still offer the rung it needs: no node ever falls back
// to a poll, and the big key crosses each stream as a chunk set at most
// once — its first sight — with every later revision a delta.
func TestThreeHopBackToBackRevisionsStayOnThePayloadPath(t *testing.T) {
	const rounds = 5
	rng := rand.New(rand.NewSource(24))

	paths := []string{"/docs/big"}
	bodies := [][]byte{textBody(rng, 3*push.DefaultPayloadCap)}
	for m := 0; m < 4; m++ {
		paths = append(paths, fmt.Sprintf("/docs/s%d", m))
		bodies = append(bodies, textBody(rng, 1<<10))
	}
	h := newHarness(t, valueChain(3, nil))
	for i, p := range paths {
		set(h, p, bodies[i])
	}
	h.start()
	admitAll(t, h, paths...)

	chunkSets := func() []uint64 {
		sets := []uint64{h.origin.PushHubStats().ChunkFrames}
		for _, n := range h.nodes[:len(h.nodes)-1] {
			sets = append(sets, n.RelayStats().Hub.ChunkFrames)
		}
		return sets
	}
	before := chunkSets()

	for r := 1; r <= rounds; r++ {
		for i, p := range paths {
			bodies[i] = reviseBody(rng, bodies[i])
			set(h, p, bodies[i])
		}
		h.quiesce()
		for i, p := range paths {
			if got, _ := h.leaf().CachedBody(p); !bytes.Equal(got, bodies[i]) {
				t.Fatalf("round %d of %s never reached the leaf (leaf push %+v)", r, p, h.leaf().PushStats())
			}
		}
	}

	for i, name := range []string{"root", "mid", "leaf"} {
		if st := h.nodes[i].PushStats(); st.ValueFallbacks != 0 || st.DeltaBaseMisses != 0 {
			t.Errorf("%s left the payload path: %+v", name, st)
		}
	}
	after := chunkSets()
	for i, name := range []string{"origin→root", "root→mid", "mid→leaf"} {
		if got := after[i] - before[i]; got > 1 {
			t.Errorf("%s sent %d chunk sets for one over-cap key, want at most its first sight", name, got)
		}
	}
}

// TestPollingLeafConvergesOffConfirmation: a leaf that negotiated no
// payloads hears only announcements from its value-pushing parent — the
// pass-through, which it may poll on before the parent has installed,
// and the payload-free confirmation, which finds the parent fresh. It
// must hold the new body within Δ either way.
func TestPollingLeafConvergesOffConfirmation(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	body := textBody(rng, 3*push.DefaultPayloadCap)
	h := newHarness(t, valueChain(2, func(i int, cfg *Config) {
		if i == 1 {
			cfg.PushValues = false
		}
	}))
	set(h, "/doc", body)
	h.start()
	admitAll(t, h, "/doc")

	for r := 1; r <= 3; r++ {
		body = reviseBody(rng, body)
		set(h, "/doc", body)
		h.quiesce()
		if got, _ := h.leaf().CachedBody("/doc"); !bytes.Equal(got, body) {
			t.Fatalf("revision %d never reached the polling leaf (parent %+v relay %+v leaf %+v)",
				r, h.nodes[0].PushStats(), h.nodes[0].RelayStats().Hub, h.leaf().PushStats())
		}
	}
	if st := h.nodes[0].PushStats(); st.ValueApplied != 3 || st.ValueFallbacks != 0 {
		t.Errorf("parent left the payload path: %+v", st)
	}
	if st := h.leaf().ObjectStats("/doc"); st.Applied != 0 || st.Pushed == 0 {
		t.Errorf("leaf did not converge by pushed polls: %+v", st)
	}
}

// TestFailedInstallConvergesOffConfirmation: the leaf's copy is not the
// base its parent's hub believes it holds, so the delta it is sent
// cannot be applied. Its fallback poll may catch the parent before the
// parent's own install; the payload-free confirmation that follows is
// what guarantees a poll that finds the parent fresh. The hub, for its
// part, sends that confirmation on rung zero — it has no way to know
// the install failed — and the leaf must still take it as news.
func TestFailedInstallConvergesOffConfirmation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	body := textBody(rng, 3*push.DefaultPayloadCap)
	h := newHarness(t, valueChain(2, nil))
	set(h, "/doc", body)
	h.start()
	admitAll(t, h, "/doc")

	// Revision 1 seeds the delta chain on both streams.
	body = reviseBody(rng, body)
	set(h, "/doc", body)
	h.quiesce()
	if st := h.leaf().PushStats(); st.ValueApplied != 1 || st.ValueFallbacks != 0 {
		t.Fatalf("seeding revision left the payload path: %+v", st)
	}

	// Swap the leaf's bytes under its digest: the base check passes, the
	// reconstruction cannot hash to the frame's digest.
	e := h.leaf().lookup("/doc")
	e.mu.Lock()
	e.body = textBody(rng, len(e.body))
	e.mu.Unlock()

	body = reviseBody(rng, body)
	set(h, "/doc", body)
	h.quiesce()
	if got, _ := h.leaf().CachedBody("/doc"); !bytes.Equal(got, body) {
		t.Fatalf("leaf never converged after a failed install (relay %+v leaf %+v)",
			h.nodes[0].RelayStats().Hub, h.leaf().PushStats())
	}
	st := h.leaf().PushStats()
	if st.DeltaBaseMisses == 0 || st.ValueFallbacks == 0 {
		t.Errorf("the forged base was never refused: %+v", st)
	}
	if st.ValueApplied != 1 {
		t.Errorf("leaf installed %d payloads, want only the seeding one", st.ValueApplied)
	}
	if h.leaf().ObjectStats("/doc").Pushed == 0 {
		t.Error("leaf converged without a pushed poll")
	}
	if dup := h.nodes[0].RelayStats().Hub.DuplicateFrames; dup != 2 {
		t.Errorf("parent's hub sent %d confirmations on rung zero, want 2", dup)
	}
}

// TestClaimRelayOneWinnerPerVersion: the pass-through (subscriber
// goroutine) and the confirmation (poll workers) race to publish each
// version's payload; however they interleave, exactly one claim per
// version succeeds, and none for a version older than one already sent.
func TestClaimRelayOneWinnerPerVersion(t *testing.T) {
	var e entry
	base := time.Unix(1_700_000_000, 0)
	const versions, racers = 200, 4
	var wins [versions]atomic.Int32
	var wg sync.WaitGroup
	for r := 0; r < racers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := 0; v < versions; v++ {
				if e.claimRelay(base.Add(time.Duration(v) * time.Second)) {
					wins[v].Add(1)
				}
			}
		}()
	}
	wg.Wait()
	for v := range wins {
		if n := wins[v].Load(); n > 1 {
			t.Errorf("version %d claimed %d times", v, n)
		}
	}
	if wins[versions-1].Load() != 1 {
		t.Error("the newest version was never claimed")
	}
	if e.claimRelay(base) {
		t.Error("a version older than the ledger was claimed")
	}
}

// TestSupersedesKeepsTheInstallableFrame pins the coalescing slot's
// order: newest version first; within a version the frame that installs
// most surely; arrival order only where no version can be compared.
func TestSupersedesKeepsTheInstallableFrame(t *testing.T) {
	t1 := time.Unix(1_700_000_000, 0)
	t2 := t1.Add(time.Second)
	stripped := func(m time.Time) *push.Event { return &push.Event{ModTime: m} }
	full := func(m time.Time) *push.Event { return &push.Event{ModTime: m, HasBody: true, Body: []byte("b")} }
	delta := func(m time.Time) *push.Event {
		return &push.Event{ModTime: m, HasBody: true, Body: []byte("d"), BaseDigest: "00ff", DeltaCodec: push.DeltaCodecBlock}
	}
	rebuilt := func(m time.Time) *push.Event {
		ev := delta(m)
		ev.DeltaBody, ev.Body = ev.Body, []byte("b")
		return ev
	}
	cases := []struct {
		name    string
		ev, cur *push.Event
		want    bool
	}{
		{"newer version replaces a payload", stripped(t2), full(t1), true},
		{"older version never replaces", full(t1), stripped(t2), false},
		{"stripped repeat keeps the payload", stripped(t1), full(t1), false},
		{"stripped repeat keeps the delta", stripped(t1), delta(t1), false},
		{"wrong-base delta keeps the full body", delta(t1), full(t1), false},
		{"full body replaces a delta", full(t1), delta(t1), true},
		{"payload replaces a stripped frame", delta(t1), stripped(t1), true},
		{"a rebuilt delta ranks as a full body", delta(t1), rebuilt(t1), false},
		{"equal frames keep the first", full(t1), full(t1), false},
		{"timeless arrival wins", stripped(time.Time{}), full(t1), true},
		{"anything replaces a timeless frame", stripped(t1), full(time.Time{}), true},
	}
	for _, c := range cases {
		if got := supersedes(c.ev, c.cur); got != c.want {
			t.Errorf("%s: supersedes = %v, want %v", c.name, got, c.want)
		}
	}
}
