// Edgefleet: one origin stream serving a whole fleet through a
// THREE-hop, interest-filtered proxy hierarchy. A churning origin
// publishes invalidation events; one root proxy subscribes to it and
// relays on its own /events stream; two mid proxies subscribe to the
// root, each declaring only its half of the key space; four leaf
// proxies subscribe to — and fetch through — their mid, each declaring
// a single shard prefix. Every hub renders each event once and skips
// the frames a subscriber never asked for, so the origin pays for a
// single subscription and a single poller no matter how wide (or how
// narrow-interested) the edge is.
//
// Three phases:
//
//  1. Healthy churn across every shard — each leaf receives exactly its
//     own shard's events; the root and mid hubs report how many frames
//     interest filtering skipped.
//  2. The origin's event endpoint is killed and revived: the root falls
//     back to paper-mode polling and the blindness propagates as
//     mid-stream hello/Resets through BOTH relay tiers to every leaf.
//  3. Leaf 0 fetches an object outside every static declaration: the
//     admission bounces its subscription — and the mid's, and the
//     root's — widening the declared interest chain-wide until the
//     origin's updates for it reach the edge.
//
// Every node — origin, root, mids, leaves — also mounts the operational
// surface (broadway.NewOpsHandler) on its own listener, so the whole
// hierarchy is scrapeable: the run finishes by probing each node's
// /healthz and cross-checking a /metrics scrape with the strict parser.
// It exits non-zero if any node's /healthz is not 200, or if root, mid 0
// or leaf 0 recorded no widening bounce in phase 3; CI runs it.
//
// Everything runs in-process on loopback and finishes in a few seconds.
//
// Run with:
//
//	go run ./examples/edgefleet
package main

import (
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"time"

	"broadway"

	"broadway/internal/core"
)

const (
	shards      = 4
	perShard    = 2
	delta       = 100 * time.Millisecond
	ttrMax      = 2 * time.Second
	updateEvery = 400 * time.Millisecond
	phaseFor    = 2 * time.Second
)

func main() {
	// --- Origin: churning sharded objects + invalidation stream. ---
	origin := broadway.NewWebOrigin(
		broadway.WithHistoryExtension(true),
		broadway.WithPushHeartbeat(250*time.Millisecond),
		broadway.WithPushValues(0),
	)
	var paths []string
	for s := 0; s < shards; s++ {
		for o := 0; o < perShard; o++ {
			paths = append(paths, fmt.Sprintf("/edge/%d/obj%d", s, o))
		}
	}
	for _, p := range paths {
		origin.Set(p, []byte("rev 0"), "text/plain")
	}
	origin.Set("/extra/hot", []byte("rev 0"), "text/plain")
	originSrv := httptest.NewServer(origin)
	defer originSrv.Close()

	// Every node gets its own ops listener: name → /metrics + /healthz +
	// /admin, exactly what a scrape config would target per instance.
	type opsNode struct {
		name string
		srv  *httptest.Server
	}
	var opsNodes []opsNode
	mountOps := func(name string, px *broadway.WebProxy, o *broadway.WebOrigin) {
		h, err := broadway.NewOpsHandler(broadway.OpsConfig{Proxy: px, Origin: o})
		if err != nil {
			log.Fatal(err)
		}
		srv := httptest.NewServer(h)
		opsNodes = append(opsNodes, opsNode{name, srv})
	}
	defer func() {
		for _, n := range opsNodes {
			n.srv.Close()
		}
	}()
	mountOps("origin", nil, origin)

	newNode := func(upstream string, relay bool, prefixes []string) (*broadway.WebProxy, *httptest.Server) {
		up, err := url.Parse(upstream)
		if err != nil {
			log.Fatal(err)
		}
		push, _ := url.Parse(upstream + "/events")
		p, err := broadway.NewWebProxy(broadway.WebProxyConfig{
			Origin:         up,
			DefaultDelta:   delta,
			Bounds:         core.TTRBounds{Min: delta, Max: ttrMax},
			PushURL:        push,
			PushStretch:    10,
			PushValues:     true,
			PushInterest:   true,
			PushPrefixes:   prefixes,
			PushBackoffMin: 20 * time.Millisecond,
			PushBackoffMax: 200 * time.Millisecond,
			RelayEvents:    relay,
		})
		if err != nil {
			log.Fatal(err)
		}
		p.Start()
		var srv *httptest.Server
		if relay {
			srv = httptest.NewServer(p)
		}
		return p, srv
	}

	// --- Root: subscribes to the origin, declares every shard. ---
	root, rootSrv := newNode(originSrv.URL, true,
		[]string{"/edge/0/", "/edge/1/", "/edge/2/", "/edge/3/"})
	defer root.Close()
	defer rootSrv.Close()
	mountOps("root", root, nil)

	// --- Mids: each declares half the shards to the root. ---
	mids := make([]*broadway.WebProxy, 2)
	midSrvs := make([]*httptest.Server, 2)
	for j := range mids {
		mids[j], midSrvs[j] = newNode(rootSrv.URL, true,
			[]string{fmt.Sprintf("/edge/%d/", 2*j), fmt.Sprintf("/edge/%d/", 2*j+1)})
		defer mids[j].Close()
		defer midSrvs[j].Close()
		mountOps(fmt.Sprintf("mid%d", j), mids[j], nil)
	}

	// --- Leaves: one shard each, fetched through their mid. ---
	fleet := make([]*broadway.WebProxy, shards)
	fleetSrvs := make([]*httptest.Server, shards)
	for i := range fleet {
		leaf, _ := newNode(midSrvs[i/2].URL, false, []string{fmt.Sprintf("/edge/%d/", i)})
		defer leaf.Close()
		fleet[i] = leaf
		fleetSrvs[i] = httptest.NewServer(leaf)
		defer fleetSrvs[i].Close()
		mountOps(fmt.Sprintf("leaf%d", i), leaf, nil)
	}

	// Warm each leaf with ITS shard only (which warms the chain once).
	get := func(srv *httptest.Server, p string) {
		resp, err := http.Get(srv.URL + p)
		if err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
	}
	for i, srv := range fleetSrvs {
		for o := 0; o < perShard; o++ {
			get(srv, fmt.Sprintf("/edge/%d/obj%d", i, o))
		}
	}

	// --- Churn: every shard plus the undeclared extra. ---
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
				body := []byte(fmt.Sprintf("rev %d", rev))
				for _, p := range paths {
					origin.Set(p, body, "text/plain")
				}
				origin.Set("/extra/hot", body, "text/plain")
			}
		}
	}()

	fmt.Printf("edge fleet: origin → 1 root → 2 mids → %d leaves (1 shard each), %d objects, update every %v\n\n",
		shards, len(paths)+1, updateEvery)

	fmt.Printf("phase 1: healthy filtered fan-out for %v...\n", phaseFor)
	time.Sleep(phaseFor)
	report(origin, root, mids, fleet)

	fmt.Printf("\nphase 2: killing the origin's event endpoint for %v (root blind, Resets relay through both tiers)...\n", phaseFor)
	origin.SetPushAvailable(false)
	time.Sleep(phaseFor)
	origin.SetPushAvailable(true)
	fmt.Printf("         ...revived; letting the chain re-arm for %v...\n", phaseFor/2)
	time.Sleep(phaseFor / 2)
	report(origin, root, mids, fleet)

	fmt.Printf("\nphase 3: leaf 0 admits /extra/hot — outside every static declaration...\n")
	chainNames := []string{"root", "mid0", "leaf0"}
	chain := []*broadway.WebProxy{root, mids[0], fleet[0]}
	before := make([]uint64, len(chain))
	for i, px := range chain {
		before[i] = px.PushStats().Bounces
	}
	get(fleetSrvs[0], "/extra/hot")
	time.Sleep(phaseFor)
	close(stop)
	report(origin, root, mids, fleet)
	fmt.Printf("  widening bounces: root=%d mid0=%d leaf0=%d (each hop re-declared a wider interest)\n",
		root.PushStats().Bounces, mids[0].PushStats().Bounces, fleet[0].PushStats().Bounces)
	var failures []string
	for i, px := range chain {
		if px.PushStats().Bounces == before[i] {
			failures = append(failures, chainNames[i]+" recorded no widening bounce in phase 3")
		}
	}

	// --- Operational sweep: probe every node the way monitoring would. ---
	fmt.Printf("\nops sweep: %d scrape targets (one per node)\n", len(opsNodes))
	for _, n := range opsNodes {
		resp, err := http.Get(n.srv.URL + "/healthz")
		if err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		health := "ok"
		if resp.StatusCode != http.StatusOK {
			health = fmt.Sprintf("degraded (%d)", resp.StatusCode)
			failures = append(failures, n.name+" /healthz "+health)
		}
		m, err := http.Get(n.srv.URL + "/metrics")
		if err != nil {
			log.Fatal(err)
		}
		scrape, err := broadway.ParseOpsExposition(m.Body)
		m.Body.Close()
		if err != nil {
			log.Fatalf("%s: /metrics failed strict parse: %v", n.name, err)
		}
		switch n.name {
		case "origin":
			seq, _ := scrape.Value("broadway_hub_seq", broadway.OpsLabel{Name: "hub", Value: "origin"})
			fmt.Printf("  %-7s healthz=%s  %d series  hub seq %.0f\n", n.name, health, len(scrape.Values), seq)
		default:
			events, _ := scrape.Value("broadway_push_events_total")
			filtered, _ := scrape.Value("broadway_hub_filtered_total", broadway.OpsLabel{Name: "hub", Value: "relay"})
			fmt.Printf("  %-7s healthz=%s  %d series  events %.0f  relay-filtered %.0f\n",
				n.name, health, len(scrape.Values), events, filtered)
		}
	}

	if len(failures) > 0 {
		log.Fatalf("FAIL: %s", strings.Join(failures, "; "))
	}

	fmt.Println("\nThe origin carried ONE subscriber and ONE poller's load for the whole fleet;")
	fmt.Println("every hub rendered each event once and skipped it for subscribers that never")
	fmt.Println("declared it, and one out-of-set fetch re-negotiated interest up the whole chain.")
	fmt.Println("Every node exposed /metrics and /healthz, and every scrape passed strict parsing.")
}

func report(origin *broadway.WebOrigin, root *broadway.WebProxy, mids, fleet []*broadway.WebProxy) {
	st := origin.Stats()
	rrs := root.RelayStats()
	rps := root.PushStats()
	fmt.Printf("  origin: %d polls served, %d subscribers, seq %d\n",
		st.Polls, st.Hub.Subscribers, st.Hub.Seq)
	fmt.Printf("  root:   connected=%v fallbacks=%d | relay seq %d → %d subs, filtered %d, resets %d\n",
		rps.Connected, rps.Fallbacks, rrs.Hub.Seq, rrs.Hub.Subscribers, rrs.Hub.Filtered, rrs.Hub.Resets)
	for j, m := range mids {
		ms := m.PushStats()
		mrs := m.RelayStats()
		fmt.Printf("  mid %d:  connected=%v events=%d midStreamResets=%d | relay seq %d → %d subs, filtered %d\n",
			j, ms.Connected, ms.Events, ms.Resets, mrs.Hub.Seq, mrs.Hub.Subscribers, mrs.Hub.Filtered)
	}
	for i, leaf := range fleet {
		ls := leaf.PushStats()
		fmt.Printf("  leaf %d: connected=%v connects=%d midStreamResets=%d applied=%d events=%d\n",
			i, ls.Connected, ls.Connects, ls.Resets, ls.ValueApplied, ls.Events)
	}
}
