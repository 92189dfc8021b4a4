// Churnproxy: consistency-aware cache replacement under adversarial
// churn. A proxy capped at 64 objects (and a small byte budget) serves
// a workload that enumerates a 1,000-key space — the attack that froze
// the pre-eviction cache solid — while a small hot set and a
// mutual-consistency group are re-requested continuously. The CLOCK
// replacement keeps the hot set and the group resident, churns the cold
// tail through, and the example prints the resulting hit ratios and
// proxy-wide cache counters.
//
// Everything runs in-process on loopback and finishes in a few seconds.
//
// Run with:
//
//	go run ./examples/churnproxy
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
	"broadway/internal/httpx"
)

func main() {
	// --- Origin: a hot front page, a grouped story bundle, and a long
	// tail of one-hit-wonder objects. ---
	origin := broadway.NewWebOrigin()
	for i := 0; i < 8; i++ {
		origin.Set(fmt.Sprintf("/hot/%d", i), []byte(fmt.Sprintf("hot object %d", i)), "text/plain")
	}
	groupPaths := []string{"/bundle/story.html", "/bundle/photo.jpg", "/bundle/score.js"}
	for _, p := range groupPaths {
		origin.Set(p, []byte("bundle member "+p), "text/plain")
		origin.SetTolerances(p, httpx.Tolerances{Group: "bundle"})
	}
	for i := 0; i < 1000; i++ {
		origin.Set(fmt.Sprintf("/tail/%d", i), []byte(fmt.Sprintf("cold tail object %d", i)), "text/plain")
	}
	originSrv := httptest.NewServer(origin)
	defer originSrv.Close()
	originURL, err := url.Parse(originSrv.URL)
	if err != nil {
		log.Fatal(err)
	}

	// --- Proxy: tiny residency budgets, enforced by CLOCK replacement. ---
	px, err := broadway.NewWebProxy(broadway.WebProxyConfig{
		Origin:       originURL,
		DefaultDelta: time.Minute,
		Bounds:       core.TTRBounds{Min: time.Minute, Max: 10 * time.Minute},
		MaxObjects:   64,
		MaxBytes:     64 << 10, // 64 KiB resident budget
	})
	if err != nil {
		log.Fatal(err)
	}
	px.Start()
	defer px.Close()
	proxySrv := httptest.NewServer(px)
	defer proxySrv.Close()

	get := func(path string) string {
		resp, err := http.Get(proxySrv.URL + path)
		if err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		return resp.Header.Get("X-Cache")
	}

	// Warm the hot set and the group.
	for i := 0; i < 8; i++ {
		get(fmt.Sprintf("/hot/%d", i))
	}
	for _, p := range groupPaths {
		get(p)
	}

	// --- The churn: enumerate 1,000 cold keys (16x capacity) while the
	// hot set and the bundle keep getting traffic. ---
	hotHits, hotReqs := 0, 0
	groupHits, groupReqs := 0, 0
	for i := 0; i < 3000; i++ {
		get(fmt.Sprintf("/tail/%d", i%1000))
		hotReqs++
		if get(fmt.Sprintf("/hot/%d", i%8)) == "HIT" {
			hotHits++
		}
		if i%2 == 0 {
			groupReqs++
			if get(groupPaths[(i/2)%len(groupPaths)]) == "HIT" {
				groupHits++
			}
		}
	}

	cs := px.CacheStats()
	fmt.Printf("after 3000 churn rounds over a 1000-key space (64-object cap):\n")
	fmt.Printf("  hot set hit ratio:      %5.1f%%  (%d/%d)\n", 100*float64(hotHits)/float64(hotReqs), hotHits, hotReqs)
	fmt.Printf("  group member hit ratio: %5.1f%%  (%d/%d)\n", 100*float64(groupHits)/float64(groupReqs), groupHits, groupReqs)
	fmt.Printf("  resident objects:       %d (bytes %d of budget %d)\n", cs.ResidentObjects, cs.ResidentBytes, int64(64<<10))
	fmt.Printf("  misses: %d   evictions: %d   capped: %d\n", cs.Misses, cs.Evictions, cs.Capped)

	for _, p := range groupPaths {
		st := px.ObjectStats(p)
		fmt.Printf("  %-20s cached=%-5v grouped=%v bytes=%d\n", p, st.Cached, st.Grouped, st.Bytes)
	}

	// --- Admin eviction + singleflight re-admission. ---
	px.Evict("/hot/0")
	first := get("/hot/0")  // refetched from the origin
	second := get("/hot/0") // resident again
	fmt.Printf("after Evict(/hot/0): next request %s, then %s\n", first, second)
}
