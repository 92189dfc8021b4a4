// Liveproxy: the whole system over real HTTP. A self-updating origin
// serves a news story with two embedded objects (one consistency group,
// advertised via the paper's cache-control extensions) — the proxy caches
// them, refreshes each on its LIMD schedule, consumes the
// X-Modification-History extension, and triggers group polls when the
// story changes. The example drives a few client requests, injects
// updates, and prints what the proxy did.
//
// Everything runs in-process on loopback and finishes in a few seconds.
//
// Run with:
//
//	go run ./examples/liveproxy
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"time"

	"broadway"

	"broadway/internal/core"
)

func main() {
	// --- Origin: a miniature news site with the history extension. ---
	origin := broadway.NewWebOrigin(broadway.WithHistoryExtension(true))
	publish := func(rev int) {
		origin.Set("/story.html", []byte(fmt.Sprintf(
			`<html><body><h1>Rev %d</h1><img src="/photo.jpg"></body></html>`, rev)),
			"text/html")
		origin.Set("/photo.jpg", []byte(fmt.Sprintf("photo-rev-%d", rev)), "image/jpeg")
	}
	publish(1)
	for _, p := range []string{"/story.html", "/photo.jpg"} {
		origin.SetTolerances(p, broadway.Tolerances{Group: "front", GroupDelta: time.Second})
	}
	originSrv := httptest.NewServer(origin)
	defer originSrv.Close()

	// --- Proxy: millisecond-scale TTRs so the demo runs fast. ---
	originURL, err := url.Parse(originSrv.URL)
	if err != nil {
		log.Fatal(err)
	}
	proxy, err := broadway.NewWebProxy(broadway.WebProxyConfig{
		Origin:       originURL,
		DefaultDelta: 50 * time.Millisecond,
		Mode:         broadway.TriggerAll,
		Bounds:       core.TTRBounds{Min: 50 * time.Millisecond, Max: 400 * time.Millisecond},
	})
	if err != nil {
		log.Fatal(err)
	}
	proxy.Start()
	defer proxy.Close()
	proxySrv := httptest.NewServer(proxy)
	defer proxySrv.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get(proxySrv.URL + path)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			log.Fatal(err)
		}
		return string(body), resp.Header.Get("X-Cache")
	}

	// --- Act 1: admission. ---
	_, cache1 := get("/story.html")
	_, cache2 := get("/story.html")
	fmt.Printf("first request:  X-Cache=%s (admitted + refresher registered)\n", cache1)
	fmt.Printf("second request: X-Cache=%s (served from cache)\n", cache2)
	get("/photo.jpg")

	// --- Act 2: the origin publishes updates; the proxy's background
	// LIMD refresher picks them up without any client request. ---
	fmt.Println("\npublishing revisions 2..4 at the origin...")
	for rev := 2; rev <= 4; rev++ {
		publish(rev)
		time.Sleep(250 * time.Millisecond)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if body, _ := proxy.CachedBody("/story.html"); len(body) > 0 &&
			string(body) != "" && containsRev(string(body), 4) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	body, cache := get("/story.html")
	fmt.Printf("client now sees: %q (X-Cache=%s)\n", trim(body, 48), cache)

	// --- Act 3: what the proxy did. ---
	story := proxy.ObjectStats("/story.html")
	photo := proxy.ObjectStats("/photo.jpg")
	fmt.Printf("\nproxy activity:\n")
	fmt.Printf("  /story.html  polls=%d triggered=%d hits=%d\n", story.Polls, story.Triggered, story.Hits)
	fmt.Printf("  /photo.jpg   polls=%d triggered=%d hits=%d\n", photo.Polls, photo.Triggered, photo.Hits)
	st := origin.Stats()
	fmt.Printf("  origin served %d polls, %d of them 304 Not Modified\n",
		st.Polls, st.NotModified)
	fmt.Println("\nClients always hit the cache; freshness is maintained entirely by")
	fmt.Println("background LIMD polls plus group-triggered refreshes — the paper's")
	fmt.Println("architecture, speaking real HTTP.")
}

func containsRev(body string, rev int) bool {
	return len(body) > 0 && body != "" &&
		// the story body embeds "Rev N"
		(func() bool {
			needle := fmt.Sprintf("Rev %d", rev)
			for i := 0; i+len(needle) <= len(body); i++ {
				if body[i:i+len(needle)] == needle {
					return true
				}
			}
			return false
		})()
}

func trim(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
