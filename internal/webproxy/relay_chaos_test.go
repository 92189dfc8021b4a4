package webproxy

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"broadway/internal/core"
	"broadway/internal/push"
	"broadway/internal/webserver"
)

// This file is the deeper-hierarchy chaos battery: a relaying parent
// under leaf-churn storms — subscribe/unsubscribe cycles racing live
// publishes — must account every subscription back down to zero with no
// handler goroutine left behind, and a relay whose replay ring is
// smaller than a disconnect burst must Reset each resuming leaf exactly
// once while the fallback sweep keeps the staleness bound.

// relayTopology is an origin and one relaying parent; leaves attach to
// it.
func relayTopology(cfg Config) topology {
	return topology{push: true, cfg: cfg, origin: []webserver.Option{webserver.WithHistoryExtension(true)},
		tune: func(_ int, cfg *Config) { cfg.RelayEvents = true }}
}

// TestRelayLeafChurnSoak storms a relaying parent with subscribe/
// unsubscribe cycles — well-behaved subscribers, clients that vanish
// mid-stream, and clients that never speak the protocol — while the
// origin churns updates through the relay. When the storm ends, the
// hub's subscriber accounting must return to zero, every handler
// goroutine must unwind, and the relay must still serve a fresh
// subscriber.
func TestRelayLeafChurnSoak(t *testing.T) {
	h := newHarness(t, relayTopology(Config{
		PushStretch: 10,
		Bounds:      core.TTRBounds{Min: 50 * time.Millisecond, Max: 300 * time.Millisecond},
	}))
	parent := h.root()
	h.origin.Set("/page", []byte("v0"), "")

	// Churn the origin throughout so the storm races live broadcasts
	// (subscription teardown while frames are in flight is the leak-
	// prone path).
	stopChurn := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for rev := 1; ; rev++ {
			select {
			case <-stopChurn:
				return
			default:
			}
			h.origin.Set("/page", []byte(fmt.Sprintf("v%d", rev)), "")
			runtime.Gosched()
		}
	}()

	baselineGoroutines := runtime.NumGoroutine()
	const (
		stormWorkers = 8
		stormCycles  = 25
	)
	var stormWG sync.WaitGroup
	for w := 0; w < stormWorkers; w++ {
		l := h.dial(parent, nil)
		stormWG.Add(1)
		go func() {
			defer stormWG.Done()
			for c := 0; c < stormCycles; c++ {
				switch c % 3 {
				case 0:
					// A well-behaved subscriber that lives until its hello.
					connected := make(chan struct{}, 1)
					sub, err := push.NewSubscriber(push.SubscriberConfig{
						URL:     linkBase + "/events",
						Client:  &http.Client{Transport: l},
						OnEvent: func(push.Event) {},
						OnConnect: func(push.Event, bool) {
							select {
							case connected <- struct{}{}:
							default:
							}
						},
						BackoffMin: time.Millisecond,
					})
					if err != nil {
						t.Error(err)
						return
					}
					ctx, cancel := context.WithCancel(context.Background())
					done := make(chan struct{})
					go func() { sub.Run(ctx); close(done) }()
					select {
					case <-connected:
					case <-time.After(10 * time.Second):
						t.Error("a storm subscriber never connected")
					}
					cancel()
					<-done
				case 1:
					// A client that connects and vanishes mid-stream.
					req, _ := http.NewRequest(http.MethodGet, linkBase+"/events", nil)
					if resp, err := l.RoundTrip(req); err == nil {
						resp.Body.Close()
					}
				case 2:
					// A non-subscriber poking the endpoint wrongly.
					req, _ := http.NewRequest(http.MethodPost, linkBase+"/events", nil)
					if resp, err := l.RoundTrip(req); err == nil {
						resp.Body.Close()
					}
				}
			}
		}()
	}
	stormWG.Wait()
	close(stopChurn)
	churnWG.Wait()

	// Accounting must return to zero: no registered subscriptions, no
	// handler goroutines still unwinding.
	h.quiesce()
	if st := parent.relayHub(); st.Subscribers != 0 || st.ActiveStreams != 0 {
		t.Fatalf("hub accounting did not drain: %+v", st)
	}
	// No goroutine leak: a per-cycle leak (200 cycles) must show.
	if n := runtime.NumGoroutine(); n > baselineGoroutines+10 {
		t.Errorf("goroutines %d after the storm, baseline %d; handlers leaked", n, baselineGoroutines)
	}

	// The relay survived: a fresh subscriber connects and sees events.
	var got atomic.Int64
	h.watch(parent, push.SubscriberConfig{OnEvent: func(push.Event) { got.Add(1) }})
	h.quiesce()
	h.origin.Set("/page", []byte("after-storm"), "")
	h.quiesce()
	if got.Load() == 0 {
		t.Fatalf("relay dead after the storm: hub %+v push %+v", parent.relayHub(), parent.PushStats())
	}
}

// TestRelayReplayOverflowResetsEachLeafOnce: leaves disconnected across
// a burst larger than the relay's replay ring must be told to Reset on
// resume — exactly once each — and the fallback sweep must bound the
// staleness the blind window left behind.
func TestRelayReplayOverflowResetsEachLeafOnce(t *testing.T) {
	const ttrMax = 300 * time.Millisecond
	cfg := Config{
		PushStretch: 10,
		Bounds:      core.TTRBounds{Min: 50 * time.Millisecond, Max: ttrMax},
	}
	h := newHarness(t, relayTopology(cfg))
	parent := h.root()
	h.origin.Set("/page", []byte("v1"), "")

	// One full leaf proxy plus two bare subscribers.
	leaf := h.attach(parent, nil)
	var resetHellos [2]atomic.Int64
	for i := range resetHellos {
		h.watch(parent, push.SubscriberConfig{
			OnConnect: func(hello push.Event, resumed bool) {
				if hello.Reset && resumed {
					resetHellos[i].Add(1)
				}
			},
		})
	}
	// Give every leaf a resume point beyond zero (a since=0 resume can
	// never Reset), and the proxy leaf a resident object to keep fresh.
	h.origin.Set("/page", []byte("v2"), "")
	if code, _, _ := leaf.get("/page"); code != 200 {
		t.Fatalf("admission: %d", code)
	}
	h.quiesce()
	if leaf.PushStats().LastSeq == 0 {
		t.Fatal("leaf never consumed the warm-up event")
	}
	relaySeqBefore := parent.relayHub().Seq

	// Cut every leaf off, then push a burst through the relay that
	// outruns its replay ring while they are away.
	links := []*link{leaf.up}
	for _, l := range h.links {
		if l.owner == nil {
			links = append(links, l)
		}
	}
	for _, l := range links {
		l.cut()
	}
	const burst = push.DefaultReplayLen + 64
	for i := 0; i < burst; i++ {
		h.origin.Set(fmt.Sprintf("/burst/%d", i), []byte("x"), "")
		if i%128 == 127 {
			h.quiesce() // the parent keeps up: its own stream is never slow-killed
		}
	}
	h.origin.Set("/page", []byte("v3"), "") // the update the blind window hides
	h.quiesce()
	if got := parent.relayHub().Seq; got < relaySeqBefore+burst+1 {
		t.Fatalf("burst never traversed the relay: seq %d", got)
	}

	// Every leaf resumes, is Reset exactly once, and stays connected.
	for _, l := range links {
		l.restore()
	}
	h.quiesce()
	if hs := parent.relayHub(); hs.ResumeHoles != 3 {
		t.Fatalf("resume Resets: hub %+v", hs)
	}
	for i := range resetHellos {
		if n := resetHellos[i].Load(); n != 1 {
			t.Errorf("bare subscriber %d was Reset %d times, want once", i, n)
		}
	}
	if st := leaf.PushStats(); !st.Connected || st.Connects != 2 {
		t.Errorf("leaf %+v, want connected twice (one cut, one resume)", st)
	}
	if parent.relayHub().Resets != 0 {
		t.Errorf("mid-stream Resets %d; the overflow must Reset resumes, not live streams",
			parent.relayHub().Resets)
	}

	// The fallback sweep bounds the staleness: the leaf's copy of /page
	// converges to the update hidden by the blind window within the
	// paper-mode TTR, not the stretched one.
	h.advance(ttrMax)
	if b, _ := leaf.CachedBody("/page"); string(b) != "v3" {
		t.Fatalf("leaf never recovered the update hidden by the overflow within %v: %q", ttrMax, b)
	}
	// A second reconnect must NOT re-Reset: the Reset hello fast-
	// forwarded every resume point.
	if hs := parent.relayHub(); hs.ResumeHoles != 3 {
		t.Errorf("ResumeHoles = %d after recovery, want exactly one per leaf (3)", hs.ResumeHoles)
	}
}
