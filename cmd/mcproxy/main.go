// Command mcproxy runs the live consistency-maintaining caching proxy,
// optionally together with a demo origin whose objects update themselves
// (a miniature "breaking news" site), so the whole system can be
// exercised with any HTTP client:
//
//	# Terminal 1: demo origin + proxy
//	mcproxy -demo -listen :8089
//
//	# Terminal 2:
//	curl -i http://localhost:8089/news/story.html
//
// Against a real upstream:
//
//	mcproxy -origin https://example.com -listen :8089 -delta 30s
//
// Cache residency is bounded by -max-objects and -max-bytes (approximate
// resident memory for keys, bodies, and per-object overhead). Beyond
// those budgets group-aware CLOCK replacement admits new objects and
// evicts cold residents, with mutual-consistency group members penalized
// as victims so groups are not silently broken; an object that alone
// exceeds -max-bytes is served uncached (X-Cache: BYPASS):
//
//	mcproxy -demo -max-objects 10000 -max-bytes 67108864
//
// A -disk-dir adds a persistent tier under the memory cache:
// replacement victims are demoted to disk instead of lost, and a
// restart rehydrates the cache warm, with every rehydrated object
// re-validated against the origin (served as X-Cache: GRACE until it
// is) so the Δt guarantee holds across the restart:
//
//	mcproxy -demo -disk-dir /var/cache/mcproxy -disk-max-bytes 268435456
//
// Hybrid push–pull consistency: when the origin streams invalidation
// events (the webserver's /events endpoint; the demo origin does), -push
// subscribes the proxy to them. Updates then reach the cache the moment
// the origin announces them; while the channel is healthy every object
// it covers holds a lease — its regular poll runs once per lease term
// (-push-stretch × -ttr-max) from admission on — and a channel failure
// ends every lease and falls back to the paper's pure polling with a
// staleness-bounded catch-up sweep:
//
//	mcproxy -demo -push
//	mcproxy -origin http://origin:8080 -push -push-path /events
//
// Value-carrying push (wire protocol v2): -push-values negotiates
// payload delivery on the event stream, so an update's new body rides
// the event itself and is installed directly — digest-verified, charged
// against the byte budget — with no confirmation poll at all. Events
// whose payload cannot be installed (digest mismatch, body over the
// negotiated cap, byte-budget refusal) degrade to the pushed poll;
// value push → invalidation push → pure pull is the full ladder:
//
//	mcproxy -demo -push -push-values
//
// Proxy hierarchy: -relay-events gives the proxy a downstream face — it
// republishes every upstream invalidation (and every update its own
// polls confirm) on its own event stream at -events-path, so child
// proxies subscribe to it exactly as it subscribes to the origin, and
// one origin stream serves a whole edge fleet:
//
//	# parent: subscribes to the origin, relays downstream
//	mcproxy -demo -push -relay-events -listen :8089
//	# leaves: origin AND event stream are the parent
//	mcproxy -origin http://parent:8089 -push -listen :8090
//
// On SIGINT the proxy drains in-flight requests for up to -drain before
// exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"time"

	"broadway/internal/core"
	"broadway/internal/httpx"
	"broadway/internal/ops"
	"broadway/internal/webproxy"
	"broadway/internal/webserver"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mcproxy:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mcproxy", flag.ContinueOnError)
	listen := fs.String("listen", ":8089", "proxy listen address")
	originURL := fs.String("origin", "", "upstream origin base URL")
	demo := fs.Bool("demo", false, "run a self-updating demo origin and proxy it")
	demoListen := fs.String("demo-listen", "127.0.0.1:0", "demo origin listen address")
	delta := fs.Duration("delta", 30*time.Second, "default Δt tolerance")
	groupDelta := fs.Duration("mdelta", 10*time.Second, "default mutual δ tolerance")
	mode := fs.String("mode", "triggered", "mutual mode: baseline | triggered | heuristic")
	ttrMax := fs.Duration("ttr-max", 10*time.Minute, "TTR upper bound")
	shards := fs.Int("shards", 64, "object-store shards (rounded up to a power of two)")
	pollWorkers := fs.Int("poll-workers", 0, "concurrent origin poll workers (0 = GOMAXPROCS)")
	maxObjects := fs.Int("max-objects", 0, "cached-object cap (0 = default 65536, negative = unlimited)")
	maxBytes := fs.Int64("max-bytes", 0, "resident-memory budget in bytes for cached objects (0 = unlimited)")
	pushEnabled := fs.Bool("push", false, "subscribe to the origin's invalidation event stream (hybrid push-pull)")
	pushPath := fs.String("push-path", "/events", "path of the origin's event-stream endpoint")
	pushStretch := fs.Float64("push-stretch", 4, "lease term as a multiple of -ttr-max: while the push channel is healthy and covers an object, its regular poll runs once per term, starting at admission; disconnect, heartbeat timeout, Reset or frame loss end every lease and restore the unstretched schedule in one sweep (values <= 1 disable leases)")
	pushValues := fs.Bool("push-values", false, "value-carrying push (protocol v2): negotiate payload delivery on the event stream and install pushed bodies directly, with no confirmation poll; with -relay-events the relayed stream carries payloads too, and with -demo the demo origin publishes them")
	relayEvents := fs.Bool("relay-events", false, "republish invalidation events downstream: serve this proxy's own event stream so child proxies can subscribe to it (proxy hierarchy)")
	eventsPath := fs.String("events-path", "/events", "path the relayed event stream is served at (with -relay-events)")
	subscriberBuffer := fs.Int("subscriber-buffer", 0, "relayed-stream slow-consumer allowance in events: a child stream falling this far behind the head is terminated and must resume (0 = default 256; with -relay-events)")
	mutexProfileFraction := fs.Int("mutex-profile-fraction", 0, "runtime mutex-contention sampling rate for /admin/pprof/mutex on -ops-listen (0 = off, n samples 1/n of contention events)")
	opsListen := fs.String("ops-listen", "", "operational-surface listen address serving /metrics, /healthz, and /admin (empty = disabled); kept off the proxy's own listener so scrapes and admin calls never share a port with cached content")
	opsToken := fs.String("ops-token", "", "bearer token gating the /admin API on -ops-listen (empty = open)")
	diskDir := fs.String("disk-dir", "", "directory for the persistent disk tier (empty = memory only); survives restarts, rehydrating cached objects with their learned TTR state")
	diskMaxBytes := fs.Int64("disk-max-bytes", 0, "byte budget for the disk tier's blobs (0 = unlimited); oldest-validated records are dropped beyond it")
	drain := fs.Duration("drain", 5*time.Second, "in-flight request drain timeout on shutdown")
	runFor := fs.Duration("run-for", 0, "exit after this long (0 = run until interrupted)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Nonsensical values used to fall silently through to defaults (a
	// negative -max-bytes behaved like "unlimited", a negative
	// -poll-workers like GOMAXPROCS); fail loudly instead so a typo in a
	// unit file is caught at startup, not discovered as an unbounded
	// cache in production. Zero stays valid where the help text gives it
	// a meaning (-poll-workers 0, -push-stretch 0, -max-bytes 0).
	switch {
	case *maxBytes < 0:
		return fmt.Errorf("-max-bytes must be >= 0 (0 = unlimited), got %d", *maxBytes)
	case *pollWorkers < 0:
		return fmt.Errorf("-poll-workers must be >= 0 (0 = GOMAXPROCS), got %d", *pollWorkers)
	case *pushStretch < 0:
		return fmt.Errorf("-push-stretch must be >= 0 (0 and 1 disable stretching), got %v", *pushStretch)
	case *shards < 1:
		return fmt.Errorf("-shards must be >= 1, got %d", *shards)
	case *diskMaxBytes < 0:
		return fmt.Errorf("-disk-max-bytes must be >= 0 (0 = unlimited), got %d", *diskMaxBytes)
	case *diskMaxBytes > 0 && *diskDir == "":
		return fmt.Errorf("-disk-max-bytes needs -disk-dir")
	case *subscriberBuffer < 0:
		return fmt.Errorf("-subscriber-buffer must be >= 0 (0 = default), got %d", *subscriberBuffer)
	case *subscriberBuffer > 0 && !*relayEvents:
		return fmt.Errorf("-subscriber-buffer needs -relay-events")
	case *mutexProfileFraction < 0:
		return fmt.Errorf("-mutex-profile-fraction must be >= 0 (0 = off), got %d", *mutexProfileFraction)
	case *mutexProfileFraction > 0 && *opsListen == "":
		return fmt.Errorf("-mutex-profile-fraction needs -ops-listen (the profile is served at /admin/pprof/mutex)")
	}
	if *mutexProfileFraction > 0 {
		runtime.SetMutexProfileFraction(*mutexProfileFraction)
	}

	var triggerMode core.TriggerMode
	switch *mode {
	case "baseline":
		triggerMode = core.TriggerNone
	case "triggered":
		triggerMode = core.TriggerAll
	case "heuristic":
		triggerMode = core.TriggerFaster
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}

	var stopDemo func()
	var demoOrigin *webserver.Origin
	if *demo {
		if *originURL != "" {
			return fmt.Errorf("-demo and -origin are mutually exclusive")
		}
		o, u, stop, err := startDemoOrigin(*demoListen, *pushValues)
		if err != nil {
			return err
		}
		demoOrigin = o
		stopDemo = stop
		defer stopDemo()
		*originURL = u
		fmt.Printf("demo origin listening on %s\n", u)
	}
	if *originURL == "" {
		return fmt.Errorf("either -origin or -demo is required")
	}
	origin, err := url.Parse(*originURL)
	if err != nil {
		return fmt.Errorf("parsing origin URL: %w", err)
	}

	proxyCfg := webproxy.Config{
		Origin:                origin,
		DefaultDelta:          *delta,
		DefaultGroupDelta:     *groupDelta,
		Mode:                  triggerMode,
		Bounds:                core.TTRBounds{Min: *delta, Max: *ttrMax},
		Shards:                *shards,
		PollWorkers:           *pollWorkers,
		MaxObjects:            *maxObjects,
		MaxBytes:              *maxBytes,
		RelayEvents:           *relayEvents,
		RelayPath:             *eventsPath,
		RelaySubscriberBuffer: *subscriberBuffer,
		PushValues:            *pushValues,
		DiskDir:               *diskDir,
		DiskMaxBytes:          *diskMaxBytes,
	}
	if *pushEnabled {
		pushURL, err := origin.Parse(*pushPath)
		if err != nil {
			return fmt.Errorf("building push URL from %q: %w", *pushPath, err)
		}
		proxyCfg.PushURL = pushURL
		proxyCfg.PushStretch = *pushStretch
		if proxyCfg.PushStretch <= 0 {
			// The flag promises "<= 1 disables"; zero must not fall
			// through to the config's unset-means-default-4 rule.
			proxyCfg.PushStretch = 1
		}
	}
	px, err := webproxy.New(proxyCfg)
	if err != nil {
		return err
	}
	px.Start()
	defer px.Close()

	srv := &http.Server{Addr: *listen, Handler: px}
	errCh := make(chan error, 1)
	go func() {
		errCh <- srv.ListenAndServe()
	}()
	fmt.Printf("mcproxy listening on %s (origin %s, Δ=%v, δ=%v, mode %s, push %v, values %v, relay %v)\n",
		*listen, origin, *delta, *groupDelta, *mode, *pushEnabled, *pushValues, *relayEvents)

	var opsSrv *http.Server
	if *opsListen != "" {
		opsHandler, err := ops.NewHandler(ops.Config{
			Proxy:  px,
			Origin: demoOrigin,
			Token:  *opsToken,
		})
		if err != nil {
			return err
		}
		// net.Listen before Serve so ":0" resolves and the printed
		// address is curlable (tests depend on this).
		opsLn, err := net.Listen("tcp", *opsListen)
		if err != nil {
			return fmt.Errorf("ops listener: %w", err)
		}
		opsSrv = &http.Server{Handler: opsHandler}
		go func() {
			if err := opsSrv.Serve(opsLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				errCh <- fmt.Errorf("ops server: %w", err)
			}
		}()
		fmt.Printf("ops surface listening on %s (/metrics /healthz /admin)\n", opsLn.Addr())
	}

	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt)
	defer signal.Stop(interrupt)
	var timeout <-chan time.Time
	if *runFor > 0 {
		timeout = time.After(*runFor)
	}
	select {
	case err := <-errCh:
		return err
	case <-interrupt:
	case <-timeout:
	}
	// Graceful teardown: stop accepting, then drain in-flight requests
	// for up to -drain before abandoning them. srv.Close() here would
	// reset active connections and clients would see truncated bodies.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if opsSrv != nil {
		// The ops surface carries no client payloads; close it hard so
		// the drain window belongs entirely to content requests.
		opsSrv.Close()
	}
	if err := srv.Shutdown(shutdownCtx); err != nil {
		// The drain window expired with requests still running: tear
		// the rest down hard, and say so — clients saw truncated
		// responses, which must not look like a clean exit.
		return fmt.Errorf("drain timed out, connections reset: %w", errors.Join(err, srv.Close()))
	}
	return nil
}

// startDemoOrigin launches a self-updating origin: a news story page plus
// two embedded objects forming one consistency group, and a stock quote
// (numeric body with a Δv tolerance) updating every few seconds. The
// origin also streams invalidation events at /events so the proxy can be
// run with -push; with values it attaches each update's new body to the
// event (value-carrying push), so a -push-values proxy installs updates
// with zero confirmation polls. The *Origin is returned alongside the
// URL so -ops-listen can export its stats too.
func startDemoOrigin(addr string, values bool) (*webserver.Origin, string, func(), error) {
	opts := []webserver.Option{
		webserver.WithHistoryExtension(true),
		webserver.WithPushHeartbeat(5 * time.Second),
	}
	if values {
		opts = append(opts, webserver.WithPushValues(0))
	}
	origin := webserver.NewOrigin(opts...)

	const group = "frontpage"
	set := func(rev int) {
		origin.Set("/news/story.html", []byte(fmt.Sprintf(
			`<html><body><h1>Breaking news, revision %d</h1>`+
				`<img src="/news/photo.jpg"><script src="/news/score.js"></script></body></html>`, rev)),
			"text/html")
		origin.Set("/news/photo.jpg", []byte(fmt.Sprintf("photo bytes rev %d", rev)), "image/jpeg")
		origin.Set("/news/score.js", []byte(fmt.Sprintf("var score=%d;", rev*7)), "application/javascript")
		// A drifting quote: the proxy maintains Δv-consistency for it.
		origin.Set("/quote/acme", []byte(fmt.Sprintf("%.2f", 100.0+float64(rev%40)*0.15)), "text/plain")
	}
	set(1)
	for _, p := range []string{"/news/story.html", "/news/photo.jpg", "/news/score.js"} {
		origin.SetTolerances(p, httpx.Tolerances{Group: group, GroupDelta: 5 * time.Second})
	}
	origin.SetTolerances("/quote/acme", httpx.Tolerances{ValueDelta: 0.25})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", nil, err
	}
	srv := &http.Server{Handler: origin}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.Serve(ln) // returns on Close
	}()

	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(7 * time.Second)
		defer ticker.Stop()
		rev := 1
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				rev++
				set(rev)
			}
		}
	}()

	stop := func() {
		close(done)
		srv.Close()
		wg.Wait()
	}
	return origin, "http://" + ln.Addr().String(), stop, nil
}
