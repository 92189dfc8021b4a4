package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"broadway/internal/cli"
	"broadway/internal/ops"
	"broadway/internal/push"
)

func TestDemoOriginServesAndUpdates(t *testing.T) {
	_, url, stop, err := startDemoOrigin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	resp, err := http.Get(url + "/news/story.html")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "Breaking news") {
		t.Errorf("body = %q", body)
	}
	if resp.Header.Get("Last-Modified") == "" {
		t.Error("demo origin must set Last-Modified")
	}
	// The group tolerances are advertised.
	if cc := resp.Header.Get("Cache-Control"); !strings.Contains(cc, "x-mc-group=frontpage") {
		t.Errorf("Cache-Control = %q", cc)
	}
}

func TestDemoOriginStopIsClean(t *testing.T) {
	_, url, stop, err := startDemoOrigin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if _, err := http.Get(url + "/news/story.html"); err == nil {
		t.Error("origin must be unreachable after stop")
	}
}

// startRun runs mcproxy with args in the background until the test calls
// stop, which delivers the SIGINT an operator would and returns run's
// error. If the test ends first, its cleanup stops the run the same way,
// so a failed test never leaves a proxy serving into the next one.
func startRun(t *testing.T, args ...string) (stop func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- run(args) }()
	var once sync.Once
	var err error
	stop = func() error {
		once.Do(func() { err = interrupt(done) })
		return err
	}
	t.Cleanup(func() { stop() })
	return stop
}

// interrupt sends this process SIGINT until run reports on done. The test
// subscribes to the signal meanwhile, so one that lands before run has
// subscribed is absorbed (and sent again) instead of killing the test
// binary.
func interrupt(done <-chan error) error {
	sink := make(chan os.Signal, 1)
	signal.Notify(sink, os.Interrupt)
	defer signal.Stop(sink)
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		return err
	}
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if err := p.Signal(os.Interrupt); err != nil {
			return err
		}
		select {
		case err := <-done:
			return err
		case <-time.After(100 * time.Millisecond):
		}
	}
	return fmt.Errorf("run never returned after SIGINT")
}

// TestRunEndToEnd is the one run ended by its -run-for timer.
func TestRunEndToEnd(t *testing.T) {
	// Reserve a port for the proxy.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-demo", "-listen", addr,
			"-delta", "1s", "-mdelta", "1s", "-run-for", "1s"})
	}()

	// Wait for the proxy to come up, then fetch through it.
	var resp *http.Response
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		resp, err = http.Get(fmt.Sprintf("http://%s/news/story.html", addr))
		if err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("proxy never came up: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "Breaking news") {
		t.Errorf("body through proxy = %q", body)
	}
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRunWithPushEndToEnd runs the demo origin with -push and checks a
// story update reaches the cache via the invalidation channel well
// before the 30s Δ could have polled for it: the demo origin rewrites
// the story every 7s, the policy's first regular poll is 30s out, so a
// revision advance observed on a cache HIT inside the test window can
// only have been delivered by push.
func TestRunWithPushEndToEnd(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	stop := startRun(t, "-demo", "-listen", addr, "-push",
		"-delta", "30s", "-ttr-max", "5m")

	get := func() (body, cache string, ok bool) {
		resp, err := http.Get(fmt.Sprintf("http://%s/news/story.html", addr))
		if err != nil {
			return "", "", false
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return "", "", false
		}
		return string(b), resp.Header.Get("X-Cache"), resp.StatusCode == http.StatusOK
	}
	var first string
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if body, _, ok := get(); ok {
			first = body
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !strings.Contains(first, "Breaking news") {
		t.Fatalf("proxy never served the story (last body %q)", first)
	}

	// Wait out one origin rewrite (7s): the cached story must advance
	// revision while still serving HITs, with the regular poll schedule
	// nowhere near due.
	advanced := false
	deadline = time.Now().Add(11 * time.Second)
	for time.Now().Before(deadline) {
		body, cache, ok := get()
		if ok && body != first {
			if cache != "HIT" {
				t.Errorf("revision advanced on X-Cache=%q, want a background (push) refresh serving HIT", cache)
			}
			advanced = true
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !advanced {
		t.Error("story revision never advanced within 11s; the push channel did not deliver")
	}
	if err := stop(); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRunWithRelayServesEventStream: -relay-events must expose the
// proxy's own invalidation stream at -events-path, speaking the same
// SSE protocol the origin does (hello first), so a child mcproxy can
// point -push at this one.
func TestRunWithRelayServesEventStream(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	stop := startRun(t, "-demo", "-listen", addr, "-push", "-relay-events",
		"-events-path", "/fleet-events")

	deadline := time.Now().Add(3 * time.Second)
	var frame string
	for time.Now().Before(deadline) {
		resp, err := http.Get(fmt.Sprintf("http://%s/fleet-events", addr))
		if err != nil {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		buf := make([]byte, 4096)
		n, _ := resp.Body.Read(buf)
		resp.Body.Close()
		frame = string(buf[:n])
		break
	}
	// The first frame of a relayed stream is the hub's hello, exactly as
	// the origin's endpoint speaks it.
	if ev := firstEvent(t, frame); ev.Kind != push.KindHello {
		t.Fatalf("relay endpoint opened with %v, not a hello: %q", ev.Kind, frame)
	}
	// The relay path must not shadow proxied objects.
	resp, err := http.Get(fmt.Sprintf("http://%s/news/story.html", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("story through relay-enabled proxy: %d", resp.StatusCode)
	}
	if err := stop(); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRunWithPushValuesServesPayloadStream: with -push the whole chain
// carries bodies — the demo origin publishes them, and a relay-enabled
// proxy serves its own stream, which negotiates nothing: the hello is
// the five core fields alone.
func TestRunWithPushValuesServesPayloadStream(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	stop := startRun(t, "-demo", "-listen", addr, "-push", "-relay-events")

	deadline := time.Now().Add(3 * time.Second)
	var frame string
	for time.Now().Before(deadline) {
		resp, err := http.Get(fmt.Sprintf("http://%s/events", addr))
		if err != nil {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		buf := make([]byte, 4096)
		n, _ := resp.Body.Read(buf)
		resp.Body.Close()
		frame = string(buf[:n])
		break
	}
	if ev := firstEvent(t, frame); ev.Kind != push.KindHello || ev.Encode() != (push.Event{Kind: push.KindHello, Seq: ev.Seq}).Encode() {
		t.Fatalf("relay did not open with a plain hello: %q", frame)
	}
	if err := stop(); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// firstEvent decodes the first data line of an event-stream read.
func firstEvent(t *testing.T, stream string) push.Event {
	t.Helper()
	_, rest, ok := strings.Cut(stream, "data: ")
	line, _, _ := strings.Cut(rest, "\n")
	ev, err := push.Decode(line)
	if !ok || err != nil {
		t.Fatalf("stream did not open with an event frame: %q (%v)", stream, err)
	}
	return ev
}

// TestRunWithOpsListenServesOperationalSurface: -ops-listen must expose
// /metrics (parseable Prometheus text, covering the proxy AND the demo
// origin), /healthz (200 once the push channel is up), and the
// token-gated /admin API, all on a separate listener so scrapes never
// share a port with cached content.
func TestRunWithOpsListenServesOperationalSurface(t *testing.T) {
	reserve := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		return addr
	}
	addr, opsAddr := reserve(), reserve()

	stop := startRun(t, "-demo", "-listen", addr, "-push", "-relay-events",
		"-ops-listen", opsAddr, "-ops-token", "sesame")

	// Warm the cache through the proxy so the scrape has traffic behind it.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(fmt.Sprintf("http://%s/news/story.html", addr))
		if err == nil {
			resp.Body.Close()
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	// /healthz turns 200 once the push subscription connects.
	var health *http.Response
	var err error
	deadline = time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		health, err = http.Get(fmt.Sprintf("http://%s/healthz", opsAddr))
		if err == nil && health.StatusCode == http.StatusOK {
			break
		}
		if err == nil {
			health.Body.Close()
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("ops listener never came up: %v", err)
	}
	healthBody, _ := io.ReadAll(health.Body)
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d, body %s", health.StatusCode, healthBody)
	}
	if !strings.Contains(string(healthBody), `"status": "ok"`) {
		t.Errorf("/healthz body = %s", healthBody)
	}

	// /metrics parses under the strict exposition rules and covers the
	// proxy's cache, the relay hub, and the demo origin's hub.
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", opsAddr))
	if err != nil {
		t.Fatal(err)
	}
	scrape, err := ops.ParseExposition(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/metrics unparseable: %v", err)
	}
	for _, name := range []string{
		ops.SeriesKey("broadway_cache_hits_total"),
		ops.SeriesKey("broadway_hub_seq", ops.Label{Name: "hub", Value: "relay"}),
		ops.SeriesKey("broadway_hub_seq", ops.Label{Name: "hub", Value: "origin"}),
		ops.SeriesKey("broadway_origin_polls_total"),
	} {
		if _, ok := scrape.Values[name]; !ok {
			t.Errorf("scrape is missing %s", name)
		}
	}

	// The admin API honors the token: no credentials 401, wrong 403,
	// right one evicts.
	resp, err = http.Post(fmt.Sprintf("http://%s/admin/evict?key=/news/story.html", opsAddr), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("tokenless admin call = %d, want 401", resp.StatusCode)
	}
	adminReq := func(token string) int {
		req, err := http.NewRequest(http.MethodPost,
			fmt.Sprintf("http://%s/admin/evict?key=/news/story.html", opsAddr), nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := adminReq("wrong"); code != http.StatusForbidden {
		t.Errorf("wrong-token admin call = %d, want 403", code)
	}
	if code := adminReq("sesame"); code != http.StatusOK {
		t.Errorf("authorized admin call = %d, want 200", code)
	}

	if err := stop(); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestShutdownDrainsInflightRequests reproduces the srv.Close() teardown
// bug: a request still streaming when -run-for expires must complete
// instead of being reset mid-body.
func TestShutdownDrainsInflightRequests(t *testing.T) {
	// A deliberately slow origin: the response body arrives in two
	// installments 700ms apart.
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Last-Modified", time.Now().UTC().Format(http.TimeFormat))
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		time.Sleep(700 * time.Millisecond)
		io.WriteString(w, "slow body done")
	})
	originLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	originSrv := &http.Server{Handler: slow}
	go originSrv.Serve(originLn)
	defer originSrv.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-origin", "http://" + originLn.Addr().String(),
			"-listen", addr, "-drain", "5s"})
	}()

	// Deterministic sequencing instead of racing a -run-for timer: wait
	// until the proxy answers (POST → 405 without touching the slow
	// upstream), put the slow request in flight, then deliver the same
	// SIGINT a real operator would.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Post(fmt.Sprintf("http://%s/up", addr), "text/plain", nil)
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("proxy never came up")
		}
		time.Sleep(25 * time.Millisecond)
	}

	type result struct {
		body []byte
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("http://%s/slow", addr))
		if err != nil {
			resCh <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		resCh <- result{body: body, err: err}
	}()
	time.Sleep(150 * time.Millisecond) // the GET is now held open by the slow origin
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}

	select {
	case res := <-resCh:
		if res.err != nil {
			t.Fatalf("in-flight request was cut off mid-body: %v", res.err)
		}
		if string(res.body) != "slow body done" {
			t.Fatalf("drained body = %q, want the full slow response", res.body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run never returned after the drain")
	}
}

func TestRunFlagErrors(t *testing.T) {
	tests := [][]string{
		{},                          // neither -origin nor -demo
		{"-mode", "bogus", "-demo"}, // bad mode
		{"-demo", "-origin", "http://x"},
		{"-origin", "://bad"},
		{"-bad-flag"},
		{"-demo", "-max-bytes", "-1"},             // negative budget is not "unlimited"
		{"-demo", "-poll-workers", "-2"},          // negative workers is not GOMAXPROCS
		{"-demo", "-push", "-push-stretch", "-1"}, // only 0 and >=1 are documented
		{"-demo", "-push-stretch", "-0.5"},        // rejected even without -push
		{"-demo", "-shards", "0"},
		{"-demo", "-disk-max-bytes", "-1"},
		{"-demo", "-disk-max-bytes", "4096"},        // budget without -disk-dir
		{"-demo", "-mutex-profile-fraction", "-1"},  // negative sampling rate
		{"-demo", "-mutex-profile-fraction", "100"}, // profile without -ops-listen to serve it
		{"-demo", "-ttr-max", "10s"},                // TTR bounds inverted: below the 30 s -delta
	}
	for _, args := range tests {
		if err := run(args); err == nil {
			t.Errorf("run(%v) must fail", args)
		}
	}
	// Durations out of range are refused by name, before the missing
	// origin is noticed: no default stands in for a non-positive Δ or δ,
	// and a negative -run-for does not mean forever.
	for _, args := range [][]string{
		{"-delta", "0"},
		{"-delta", "-1s"},
		{"-mdelta", "0"},
		{"-mdelta", "-5s"},
		{"-run-for", "-1s"},
	} {
		if err := run(args); err == nil || !strings.HasPrefix(err.Error(), args[0]+" must be") {
			t.Errorf("run(%v) = %v, want %s refused", args, err, args[0])
		}
	}
	// The documented zero values stay valid: they must get past flag
	// validation (the run then fails later only for the missing origin,
	// proving validation did not reject them).
	for _, args := range [][]string{
		{"-poll-workers", "0"},
		{"-push-stretch", "0"},
		{"-max-bytes", "0"},
		{"-mutex-profile-fraction", "0"},
		{"-run-for", "0"},
	} {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), "either -origin or -demo") {
			t.Errorf("run(%v) = %v, want only the missing-origin error", args, err)
		}
	}
}

// TestRunDiskTierSurvivesRestart is the command-level restart story: one
// mcproxy run against a static origin populates -disk-dir; a second run
// over the same directory must serve the object warm — from the cache,
// without refetching the body from a now-dead origin.
func TestRunDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	// A origin that counts full-body fetches and can validate (304).
	var fetches atomic.Int64
	lastMod := time.Now().UTC().Add(-time.Hour).Format(http.TimeFormat)
	origin := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("If-Modified-Since") == lastMod {
			w.Header().Set("Last-Modified", lastMod)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		fetches.Add(1)
		w.Header().Set("Last-Modified", lastMod)
		io.WriteString(w, "durable payload")
	})
	originLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	originSrv := &http.Server{Handler: origin}
	go originSrv.Serve(originLn)
	defer originSrv.Close()
	originURL := "http://" + originLn.Addr().String()

	runOnce := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		stop := startRun(t, "-origin", originURL, "-listen", addr, "-disk-dir", dir)
		var body string
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := http.Get(fmt.Sprintf("http://%s/obj", addr))
			if err == nil {
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				body = string(b)
				break
			}
			time.Sleep(25 * time.Millisecond)
		}
		if err := stop(); err != nil {
			t.Fatalf("run: %v", err)
		}
		return body
	}

	if body := runOnce(); body != "durable payload" {
		t.Fatalf("first run served %q", body)
	}
	first := fetches.Load()
	if first == 0 {
		t.Fatal("first run never fetched from the origin")
	}
	if body := runOnce(); body != "durable payload" {
		t.Fatalf("second run served %q", body)
	}
	// The second run may re-validate (304), but must not need the body
	// again: full fetches stay where the first run left them.
	if got := fetches.Load(); got != first {
		t.Errorf("second run refetched the body: %d full fetches, want %d", got, first)
	}
}

// TestFlagErrorStatus: main adds nothing to what the FlagSet printed: a
// bad flag exits 2, and -h exits 0 with no error line.
func TestFlagErrorStatus(t *testing.T) {
	for _, c := range []struct {
		arg    string
		status int
	}{{"-bad-flag", 2}, {"-push-values", 2}, {"stray", 2}, {"-h", 0}} {
		var stderr bytes.Buffer
		if got := cli.Status("mcproxy", run([]string{c.arg}), &stderr); got != c.status || stderr.Len() > 0 {
			t.Errorf("%s: exit status %d, main printed %q; want %d and nothing", c.arg, got, stderr.String(), c.status)
		}
	}
}
