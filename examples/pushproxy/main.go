// Pushproxy: poll volume collapsing under hybrid push–pull consistency
// while freshness holds. One churning origin streams invalidation
// events; two proxies cache the same objects under identical Δt
// tolerances — one polling pure paper-mode, one subscribed to the
// channel, whose objects hold a lease while it is healthy: each polls
// once per lease term (PushStretch × TTRmax) from admission on, and
// would drop back to the pull proxy's schedule within one sweep of the
// channel dying. After a few seconds of churn the example
// prints the origin poll counts both proxies generated and the
// freshness each one ended with.
//
// Everything runs in-process on loopback and finishes in a few seconds.
//
// Run with:
//
//	go run ./examples/pushproxy
package main

import (
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"time"

	"broadway"

	"broadway/internal/core"
)

// The regime where push pays off is the paper's news-feed workload:
// updates arrive much less often than the Δt tolerance forces a pure
// puller to poll. Here Δ = 100ms (so pull polls several times a second)
// while each object updates only every couple of seconds; the hybrid
// proxy polls on push events plus one safety-net poll per lease term.
// (Invert the ratio — churn faster than Δ — and push degenerates into
// one poll per update, costing more than pull: the channel is a
// bandwidth optimization for update-sparse objects, not a universal
// win.)
const (
	objects     = 6
	delta       = 100 * time.Millisecond
	ttrMax      = 2 * time.Second
	updateEvery = 2 * time.Second
	churnFor    = 6 * time.Second
)

func main() {
	// --- Origin: a handful of objects updating continuously, streaming
	// invalidation events at /events. ---
	origin := broadway.NewWebOrigin(
		broadway.WithHistoryExtension(true),
		broadway.WithPushHeartbeat(500*time.Millisecond),
	)
	paths := make([]string, objects)
	for i := range paths {
		paths[i] = fmt.Sprintf("/feed/%d", i)
		origin.Set(paths[i], []byte("rev 0"), "text/plain")
	}
	originSrv := httptest.NewServer(origin)
	defer originSrv.Close()
	originURL, err := url.Parse(originSrv.URL)
	if err != nil {
		log.Fatal(err)
	}
	pushURL, _ := url.Parse(originSrv.URL + "/events")

	// --- Two proxies, identical tolerances; only the channel differs. ---
	mkProxy := func(push bool) *broadway.WebProxy {
		cfg := broadway.WebProxyConfig{
			Origin:       originURL,
			DefaultDelta: delta,
			Bounds:       core.TTRBounds{Min: delta, Max: ttrMax},
		}
		if push {
			cfg.PushURL = pushURL
			cfg.PushStretch = 10
			cfg.PushBackoffMin = 20 * time.Millisecond
			cfg.PushHeartbeatTimeout = 2 * time.Second
		}
		px, err := broadway.NewWebProxy(cfg)
		if err != nil {
			log.Fatal(err)
		}
		px.Start()
		return px
	}
	pullProxy, pushProxy := mkProxy(false), mkProxy(true)
	defer pullProxy.Close()
	defer pushProxy.Close()

	// Admit every object into both caches.
	warm := func(px *broadway.WebProxy) {
		srv := httptest.NewServer(px)
		defer srv.Close()
		for _, p := range paths {
			resp, err := http.Get(srv.URL + p)
			if err != nil {
				log.Fatal(err)
			}
			resp.Body.Close()
		}
	}
	warm(pullProxy)
	warm(pushProxy)

	// --- Churn: every object updates every couple of seconds. ---
	fmt.Printf("churning %d objects for %v (Δ=%v, TTR ∈ [%v, %v], update every %v, lease term %v)...\n",
		objects, churnFor, delta, delta, ttrMax, updateEvery, 10*ttrMax)
	stop := make(chan struct{})
	go func() {
		rev := 0
		ticker := time.NewTicker(updateEvery)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				rev++
				for _, p := range paths {
					origin.Set(p, []byte(fmt.Sprintf("rev %d", rev)), "text/plain")
				}
			}
		}
	}()
	time.Sleep(churnFor)
	close(stop)

	// Both proxies share the one origin, so attribute traffic through
	// each proxy's own per-object poll counters.
	var pullPolls, pushPolls, pushPushed uint64
	for _, p := range paths {
		pullPolls += pullProxy.ObjectStats(p).Polls
		st := pushProxy.ObjectStats(p).Polls
		pushPolls += st
		pushPushed += pushProxy.ObjectStats(p).Pushed
	}

	fmt.Printf("\n%-28s %10s %10s\n", "", "pull-only", "hybrid")
	fmt.Printf("%-28s %10d %10d\n", "origin polls", pullPolls, pushPolls)
	fmt.Printf("%-28s %10s %10d\n", "  of which pushed", "-", pushPushed)
	if pushPolls > 0 {
		fmt.Printf("%-28s %9.1fx\n", "poll reduction", float64(pullPolls)/float64(pushPolls))
	}
	ps := pushProxy.PushStats()
	fmt.Printf("\npush channel: connected=%v events=%d pushedPolls=%d fallbacks=%d\n",
		ps.Connected, ps.Events, ps.Polls, ps.Fallbacks)

	// Freshness check: both caches must hold the latest revision within
	// one Δ of the final update.
	time.Sleep(2 * delta)
	for _, px := range []*broadway.WebProxy{pullProxy, pushProxy} {
		body, _ := px.CachedBody(paths[0])
		fmt.Printf("final cached %s: %q\n", paths[0], body)
	}
}
