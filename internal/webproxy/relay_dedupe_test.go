package webproxy

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"broadway/internal/core"
	"broadway/internal/httpx"
	"broadway/internal/push"
	"broadway/internal/webserver"
)

// This file holds the relay chain to "one frame per version per hop": a
// three-hop origin → root → mid → leaf fleet on counted links, where
// every update must cross each link as exactly one frame, its payload
// (chunked only the first time a stream sees the key); the two safety
// cases publishing after the install must not break — a polling leaf
// under a value-pushing parent, and a leaf whose own install fails —
// both of which converge by a poll that finds the parent fresh; and the
// edges of the rule where a relay installs nothing and must still pass
// the event on.

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
		origin: []webserver.Option{webserver.WithHistoryExtension(true)},
		cfg: Config{
			DefaultDelta:      2 * time.Second,
			DefaultGroupDelta: 2 * time.Second,
			Bounds:            core.TTRBounds{Min: time.Minute, Max: time.Hour},
			Mode:              core.TriggerAll,
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
// stream carries exactly one frame per revision, payload-bearing, and
// nothing on rung zero; a chunk set appears only where a stream first
// sees the big key, nothing falls back to a poll, and the last link
// carries what the first one does.
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
		// Every node hears each revision once: from the origin, or from
		// its parent once the parent's own install has run.
		if got := a.Events - b.Events; got != updates {
			t.Errorf("%s handled %d events, want %d", name, got, updates)
		}
		if got := a.Duplicates - b.Duplicates; got != 0 {
			t.Errorf("%s dropped %d duplicates, want 0", name, got)
		}
		if got := a.ValueApplied - b.ValueApplied; got != updates {
			t.Errorf("%s installed %d payloads, want %d", name, got, updates)
		}
		if a.ValueFallbacks != 0 || a.DeltaBaseMisses != 0 || a.ChunksBroken != 0 {
			t.Errorf("%s left the clean path: %+v", name, a)
		}
	}
	// Per stream: the hub above each node. A relay publishes each
	// revision once, after its install, so no stream is sent a version
	// it holds (rung zero); a stream's only chunk set is its first sight
	// of the big key.
	hubs := []struct {
		name          string
		before, after push.HubStats
	}{
		{"origin→root", before.hub, after.hub},
		{"root→mid", before.relay[0], after.relay[0]},
		{"mid→leaf", before.relay[1], after.relay[1]},
	}
	for _, hb := range hubs {
		published := hb.after.Seq - hb.before.Seq
		dups := hb.after.DuplicateFrames - hb.before.DuplicateFrames
		if published != updates || dups != 0 {
			t.Errorf("%s: %d events published, %d on rung zero; want %d and 0",
				hb.name, published, dups, updates)
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
	// Each link carries the same frames, and the links measured within
	// 0.01 % of each other. A second, stripped frame per version adds
	// about 0.6 % on this chain once gzip has coded it, so the margin
	// is 0.2 %: room for envelope width, none for a second frame.
	if float64(last) > 1.002*float64(first) {
		t.Errorf("mid→leaf carried %d bytes, origin→root %d: the chain amplifies", last, first)
	}
}

// TestThreeHopBackToBackRevisionsStayOnThePayloadPath is the same chain
// under the traffic a relay's ring actually sees: an over-cap key and
// four small ones in ONE partition, every key revised back to back
// before anything settles, so a relay's publications of one key and the
// next land in the partition while the stream below
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

// TestRelayStreamHearsEachVersionOnceInstalled: a stream on a relay
// hears each version once, its payload riding along, published once the
// relay has installed it, so a child that cannot install the payload
// and polls on it instead finds the relay fresh.
func TestRelayStreamHearsEachVersionOnceInstalled(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	body := textBody(rng, 3*push.DefaultPayloadCap)
	h := newHarness(t, valueChain(1, func(_ int, cfg *Config) { cfg.RelayEvents = true }))
	relay := h.root()
	var mu sync.Mutex
	var heard []push.Event
	var held [][]byte // the relay's body as each announcement arrived
	h.watch(relay, push.SubscriberConfig{OnEvent: func(ev push.Event) {
		b, _ := relay.CachedBody(ev.Key)
		mu.Lock()
		defer mu.Unlock()
		heard, held = append(heard, ev), append(held, b)
	}})
	set(h, "/doc", body)
	h.start()
	admitAll(t, h, "/doc")

	for r := 1; r <= 3; r++ {
		body = reviseBody(rng, body)
		set(h, "/doc", body)
		h.quiesce()
		mu.Lock()
		n := len(heard)
		ev, b := heard[n-1], held[n-1]
		mu.Unlock()
		switch {
		case n != r:
			t.Fatalf("revision %d: the stream heard %d announcements, want one per version", r, n)
		case ev.Key != "/doc" || !ev.HasBody || ev.Digest != push.DigestOf(body):
			t.Fatalf("revision %d: heard %s carrying a payload %v with digest %s, want /doc's revision %d",
				r, ev.Key, ev.HasBody, ev.Digest, r)
		case !bytes.Equal(b, body):
			t.Fatalf("revision %d was announced before the relay installed it", r)
		}
	}
	if st := relay.PushStats(); st.ValueApplied != 3 || st.ValueFallbacks != 0 {
		t.Errorf("relay left the payload path: %+v", st)
	}
}

// TestFailedInstallConvergesOffConfirmation: the leaf's copy is not the
// base its parent's hub believes it holds, so the delta it is sent
// cannot be applied. The parent published that frame only after its own
// install, so the leaf's fallback poll finds the parent fresh and
// converges on its own; the parent sends no second frame for the
// version, so its hub has nothing to send on rung zero.
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
	if dup := h.nodes[0].RelayStats().Hub.DuplicateFrames; dup != 0 {
		t.Errorf("parent's hub sent %d frames on rung zero, want 0", dup)
	}
}

// installedFromFrame fails t unless the leaf holds body for path,
// installed from a pushed frame: no poll of its parent could have
// supplied it, since the parent in these tests serves an older copy or
// none.
func installedFromFrame(t *testing.T, h *harness, path string, body []byte) {
	t.Helper()
	if got, _ := h.leaf().CachedBody(path); !bytes.Equal(got, body) {
		t.Fatalf("the leaf holds %d bytes (digest %s), want %d (%s) (parent push %+v relay %+v leaf push %+v)",
			len(got), push.DigestOf(got), len(body), push.DigestOf(body),
			h.root().PushStats(), h.root().relayHub(), h.leaf().PushStats())
	}
	if st := h.leaf().ObjectStats(path); st.Applied != 1 || st.Pushed != 0 {
		t.Errorf("leaf %s: applied %d pushed polls %d, want 1 and 0", path, st.Applied, st.Pushed)
	}
}

// TestRelayPassesOnAVersionItColdAdmitted: the parent evicts a key its
// child still holds at version 1, cold-admits version 2 before version
// 2's event arrives, and so takes the event for a duplicate. It told no
// child of version 2, so its job must pass the event on, and the child
// installs version 2 from it.
func TestRelayPassesOnAVersionItColdAdmitted(t *testing.T) {
	tp := valueChain(2, nil)
	tp.hub = push.NewHub(push.HubConfig{})
	h := newHarness(t, tp)
	v1, v2 := []byte("version 1"), []byte("version 2")
	set(h, "/doc", v1)
	h.start()
	admitAll(t, h, "/doc")

	parent := h.root()
	parent.Evict("/doc")
	set(h, "/doc", v2)
	if code, body, _ := parent.get("/doc"); code != http.StatusOK || body != string(v2) {
		t.Fatalf("cold admission at the parent: %d %q", code, body)
	}
	h.tp.hub.Publish(push.Event{Kind: push.KindUpdate, Key: "/doc", ModTime: modTime(h, "/doc"),
		Body: v2, HasBody: true, Digest: push.DigestOf(v2)})
	h.quiesce()

	if st := parent.PushStats(); st.Duplicates != 1 {
		t.Errorf("parent dropped %d duplicates, want the one event for the version it admitted", st.Duplicates)
	}
	installedFromFrame(t, h, "/doc", v2)
}

// TestRelayPassesOnAPayloadItCouldNotInstall: the parent refuses the
// payload (the body alone overflows its MaxBytes) and its fallback poll
// fails (the origin answers 503). It installed nothing, so its job passes
// the frame on, and the child, with no such budget, installs it.
func TestRelayPassesOnAPayloadItCouldNotInstall(t *testing.T) {
	h := newHarness(t, valueChain(2, func(i int, cfg *Config) {
		if i == 0 {
			cfg.MaxBytes = 4 << 10
		}
	}))
	rng := rand.New(rand.NewSource(18))
	set(h, "/doc", textBody(rng, 64))
	h.start()
	admitAll(t, h, "/doc")

	parent := h.root()
	parent.up.fail("/doc", true)
	big := textBody(rng, 8<<10)
	set(h, "/doc", big)
	h.quiesce()

	if st := parent.PushStats(); st.ValueFallbacks != 1 || st.ValueApplied != 0 {
		t.Errorf("parent was meant to refuse the payload and fall back: %+v", st)
	}
	if got, _ := parent.CachedBody("/doc"); bytes.Equal(got, big) {
		t.Fatal("the parent installed the body its budget refuses")
	}
	installedFromFrame(t, h, "/doc", big)
}

// TestRelayPassesOnAnEventWhoseEntryWasEvicted: the parent's pushed job
// waits behind a held poll on its only worker, and the key is evicted
// before the job runs. The job installs nothing, and still passes the
// event on to the child, which holds the key.
func TestRelayPassesOnAnEventWhoseEntryWasEvicted(t *testing.T) {
	h := newHarness(t, valueChain(2, nil))
	v1, v2 := []byte("version 1"), []byte("version 2")
	set(h, "/doc", v1)
	set(h, "/slow", []byte("s"))
	h.start()
	admitAll(t, h, "/doc")

	parent := h.root()
	parent.get("/slow")
	held := parent.up.hold(t, "/slow")
	parent.reschedule(parent.lookup("/slow"), h.clk.Now())
	held.wait(t)

	set(h, "/doc", v2)
	h.quiesce()
	e := parent.lookup("/doc")
	if e == nil || e.pendingPush.Load() == nil {
		t.Fatal("the parent's pushed job is not waiting behind the held poll")
	}
	parent.Evict("/doc")
	held.release()
	h.quiesce()

	if parent.lookup("/doc") != nil {
		t.Fatal("the evicted key came back at the parent")
	}
	installedFromFrame(t, h, "/doc", v2)
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
