package webproxy

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"broadway/internal/metrics"
	"broadway/internal/push"
	"broadway/internal/simtime"
	"broadway/internal/trace"
	"broadway/internal/tracegen"
	"broadway/internal/webserver"
)

// This file is the fleet-scale fan-out soak: the conformance battery's
// stepped-clock replay applied to a THREE-hop hierarchy — origin → root
// relay → mid relays → leaves — where the leaf tier is hundreds of
// interest-filtered subscribers. The key space is sharded by path
// prefix; every node declares only the slice it serves, so each hub
// skips the frames its subscriber never asked for.
//
// The phases, in replay order:
//
//  1. Healthy fan-out: trace updates flow to every shard; filtered
//     watchers must receive exactly their own shard's updates.
//  2. Resume-hole churn: every mid→leaf stream is killed and an update
//     published into ONE shard while the leaves are down. On resume,
//     watchers of the other shards have a hole consisting purely of
//     frames they never declared — they must come back with NO Reset
//     and no deliveries, while the matching shard's watchers get the
//     update (replayed or live).
//  3. Interest widening: a leaf admits an object outside every static
//     declaration. The admission must bounce the subscription at every
//     level (leaf, mid, root), each reconnect re-declaring a wider set,
//     until the origin announces the new object end to end.
//  4. Upstream kill/revive: the origin's event endpoint dies and comes
//     back. The root's blindness must propagate as mid-stream Resets
//     through both relay hops to every watcher — a REAL hole is
//     announced exactly where a filtered hole was not.
//
// Throughout, the four Δt-instrumented proxy leaves replay their
// shard's trace with zero violations: filtering and churn may cost
// frames and reconnects, never staleness beyond Δ.

const (
	fleetHorizon  = 4 * time.Hour
	fleetShards   = 4
	fleetWatchers = 200
)

// fleetWatcher is one raw interest-filtered subscriber at the leaf tier.
type fleetWatcher struct {
	*watcher
	prefix  string
	events  atomic.Uint64 // update events delivered
	foreign atomic.Uint64 // deliveries outside the declared prefix
	resets  atomic.Uint64 // Reset hellos (connect-time or mid-stream)
}

func startFleetWatcher(h *harness, mid *node, prefix string) *fleetWatcher {
	w := &fleetWatcher{prefix: prefix}
	w.watcher = h.watch(mid, push.SubscriberConfig{
		OnEvent: func(ev push.Event) {
			w.events.Add(1)
			if !strings.HasPrefix(ev.Key, prefix) {
				w.foreign.Add(1)
			}
		},
		OnConnect: func(hello push.Event, resumed bool) {
			if hello.Reset && resumed {
				w.resets.Add(1)
			}
		},
		Interest: func() push.InterestSet {
			return push.NewInterest([]string{prefix})
		},
	})
	return w
}

func TestFleetFanoutHierarchy(t *testing.T) {
	declare := func(relay bool, prefixes ...string) func(*Config) {
		return func(cfg *Config) {
			cfg.RelayEvents = relay
			cfg.PushPrefixes = prefixes
		}
	}
	h := newHarness(t, topology{
		push:   true,
		origin: []webserver.Option{webserver.WithHistoryExtension(true)},
		cfg: Config{
			DefaultDelta: confDelta,
			Bounds:       confBounds,
			PushStretch:  16,
			PushInterest: true,
		},
		tune: func(_ int, cfg *Config) { declare(true, "/s0/", "/s1/", "/s2/", "/s3/")(cfg) },
	})
	root := h.root()
	mids := []*node{
		h.attach(root, declare(true, "/s0/", "/s1/")),
		h.attach(root, declare(true, "/s2/", "/s3/")),
	}
	leaves := make([]*node, fleetShards)
	for i := range leaves {
		leaves[i] = h.attach(mids[i/2], declare(false, fmt.Sprintf("/s%d/", i)))
	}

	// One trace per shard, distinct presets so shard update instants
	// interleave rather than coincide.
	presets := []*trace.Trace{tracegen.CNNFN(), tracegen.NYTReuters(), tracegen.NYTAP(), tracegen.CNNFN()}
	objs := make([]replayObject, fleetShards)
	for i := range objs {
		tr := clipRound(presets[i], fleetHorizon)
		if tr.NumUpdates() < 3 {
			t.Fatalf("shard %d trace has only %d updates", i, tr.NumUpdates())
		}
		objs[i] = replayObject{path: fmt.Sprintf("/s%d/obj", i), tr: tr}
		h.origin.Set(objs[i].path, replayBody(objs[i], 0), "")
	}
	h.origin.Set("/s0/hole", []byte("hole rev 0"), "")
	h.origin.Set("/extra/obj", []byte("extra rev 0"), "")

	// Admit each shard's object at its leaf (cascading through mid and
	// root), plus the hole probe on leaf 0. Every key sits inside its
	// whole chain's static declaration, so admission must not bounce.
	h.stepTo(h.clk.base.Add(admissionPhase))
	admit := func(leaf *node, path string) {
		t.Helper()
		if code, body, _ := leaf.get(path); code != 200 {
			t.Fatalf("admission of %s: %d %s", path, code, body)
		}
	}
	for i, o := range objs {
		admit(leaves[i], o.path)
	}
	admit(leaves[0], "/s0/hole")
	h.quiesce()
	for _, n := range h.nodes {
		if b := n.PushStats().Bounces; b != 0 {
			t.Fatalf("a covered admission bounced the stream (%d bounces)", b)
		}
	}

	// The leaf tier: fleetWatchers filtered subscribers spread over the
	// mids, each declaring exactly one shard prefix.
	watchers := make([]*fleetWatcher, fleetWatchers)
	for i := range watchers {
		shard := i % fleetShards
		watchers[i] = startFleetWatcher(h, mids[shard/2], fmt.Sprintf("/s%d/", shard))
	}
	h.quiesce()

	// Phase 2: cut every mid→leaf stream, then publish into shard 0 while
	// the leaf tier reconnects: the update lands in the mid rings (the
	// root and mids stay connected), so every stream resumed across it
	// sees a hole — matching for shard 0, purely filtered for the rest.
	holeChurn := func() {
		preEvents := make([]uint64, len(watchers))
		preConnects := make([]uint64, len(watchers))
		for i, w := range watchers {
			preEvents[i] = w.events.Load()
			preConnects[i] = w.Stats().Connects
		}
		preLeafConnects := make([]uint64, len(leaves))
		for i, l := range leaves {
			preLeafConnects[i] = l.PushStats().Connects
		}
		mids[0].KillRelayStreams()
		mids[1].KillRelayStreams()
		h.origin.Set("/s0/hole", []byte("hole rev 1"), "")
		h.quiesce()
		for i, l := range leaves {
			if l.PushStats().Connects <= preLeafConnects[i] {
				t.Errorf("proxy leaf %d never resumed after the mid-stream kill", i)
			}
		}
		for i, w := range watchers {
			shard := i % fleetShards
			if w.Stats().Connects <= preConnects[i] {
				t.Errorf("watcher %d never resumed after the mid-stream kill", i)
			}
			if r := w.resets.Load(); r != 0 {
				t.Errorf("watcher %d (shard %d) was Reset across a resume hole it never declared (%d resets)", i, shard, r)
			}
			got := w.events.Load()
			if shard == 0 {
				if got <= preEvents[i] {
					t.Errorf("shard-0 watcher %d missed the update published across the kill", i)
				}
			} else if got != preEvents[i] {
				t.Errorf("watcher %d (shard %d) received %d frames outside its interest across the churn",
					i, shard, got-preEvents[i])
			}
		}
	}

	// Phase 3: the admission cascades the object through mid 0 and the
	// root; none of their declarations cover /extra/, so each must bounce
	// and re-declare until the whole chain announces it.
	extraAdmit := func() {
		admit(leaves[0], "/extra/obj")
		h.quiesce()
		for i, n := range []*node{root, mids[0], leaves[0]} {
			if ps := n.PushStats(); ps.Bounces == 0 || !n.sub.DeclaredInterest().Matches("/extra/obj") {
				t.Fatalf("interest widening never converged at hop %d: %d bounces", i, ps.Bounces)
			}
		}
	}

	// Replay every shard's trace updates, with the chaos instants off the
	// whole-second grid the updates live on.
	var steps []step
	for _, o := range objs {
		for r, u := range o.tr.Updates {
			o, rev := o, r+1
			steps = append(steps, step{at: u.At, do: func() { h.origin.Set(o.path, replayBody(o, rev), "") }})
		}
	}
	const offGrid = 511 * time.Millisecond
	steps = append(steps,
		step{at: fleetHorizon/4 + offGrid, do: holeChurn},
		step{at: fleetHorizon/2 + offGrid, do: extraAdmit},
		step{at: fleetHorizon/2 + 5*time.Second + offGrid, do: func() {
			h.origin.Set("/extra/obj", []byte("extra rev 1"), "")
		}},
	)
	h.play(fleetHorizon, steps)

	// Take the Δt logs before the upstream kill below adds post-horizon
	// sweep polls.
	logs := make([][]metrics.Refresh, fleetShards)
	for i, l := range leaves {
		for _, o := range l.observations() {
			if o.Key == objs[i].path {
				logs[i] = append(logs[i], metrics.Refresh{
					At: simtime.At(o.At.Sub(h.clk.base)), Modified: o.Modified,
					Value: o.Value, Triggered: o.Triggered || o.Pushed,
				})
			}
		}
	}

	// Phase 4: a REAL upstream hole. The root's blindness must propagate
	// as mid-stream Resets through both relay hops — every leaf proxy and
	// every watcher hears it, exactly where the filtered hole stayed
	// silent.
	preResets := make([]uint64, len(watchers))
	for i, w := range watchers {
		preResets[i] = w.resets.Load()
	}
	h.origin.SetPushAvailable(false)
	h.quiesce()
	if root.PushStats().Connected {
		t.Fatal("root never noticed the origin kill")
	}
	for i, l := range leaves {
		if l.PushStats().Resets == 0 {
			t.Errorf("the origin kill never reached leaf %d as a Reset", i)
		}
	}
	for i, w := range watchers {
		if w.resets.Load() <= preResets[i] {
			t.Errorf("the origin kill never reached watcher %d as a Reset", i)
		}
	}
	h.origin.SetPushAvailable(true)
	h.quiesce()

	// --- Verdicts. ---
	if root.PushStats().Fallbacks == 0 {
		t.Error("the origin kill never produced a root fallback")
	}
	for i := range objs {
		if len(logs[i]) < 3 {
			t.Fatalf("leaf %d recorded only %d polls", i, len(logs[i]))
		}
		meas := metrics.EvaluateTemporal(objs[i].tr, logs[i], confDelta, fleetHorizon)
		t.Logf("leaf %d measured: %v", i, meas)
		if meas.Violations != 0 {
			t.Errorf("leaf %d Δt violations through the filtered hierarchy: %d", i, meas.Violations)
		}
	}
	for _, probe := range []struct{ key, want string }{
		{"/s0/hole", "hole rev 1"},
		{"/extra/obj", "extra rev 1"},
	} {
		body, ok := leaves[0].CachedBody(probe.key)
		if !ok || string(body) != probe.want {
			t.Errorf("leaf 0 %s = %q, %v; want %q", probe.key, body, ok, probe.want)
		}
	}
	for i, w := range watchers {
		if f := w.foreign.Load(); f != 0 {
			t.Errorf("watcher %d received %d frames outside its declared prefix %s", i, f, w.prefix)
		}
		if w.events.Load() == 0 {
			t.Errorf("watcher %d (prefix %s) received nothing over the whole soak", i, w.prefix)
		}
	}
	// Filtering did real work at both relay tiers: the root skipped
	// cross-subtree frames for the mids, the mids for their watchers.
	if f := root.relayHub().Filtered; f == 0 {
		t.Error("root hub filtered nothing; mids were not interest-narrowed")
	}
	for j, m := range mids {
		if f := m.relayHub().Filtered; f == 0 {
			t.Errorf("mid %d hub filtered nothing; watchers were not interest-narrowed", j)
		}
	}
	t.Logf("fleet: origin polls=%d rootHub=%+v mid0Hub=%+v mid1Hub=%+v",
		h.origin.Stats().Polls, root.relayHub(), mids[0].relayHub(), mids[1].relayHub())
}
