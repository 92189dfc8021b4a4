package webproxy

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"broadway/internal/core"
	"broadway/internal/httpx"
	"broadway/internal/push"
	"broadway/internal/webserver"
)

func TestMissThenHit(t *testing.T) {
	h := newHarness(t, topology{})
	h.origin.Set("/page", []byte("hello"), "text/plain")

	_, body, hdr := h.leaf().get("/page")
	if body != "hello" {
		t.Errorf("body = %q", body)
	}
	if hdr.Get("X-Cache") != "MISS" {
		t.Errorf("first request X-Cache = %q", hdr.Get("X-Cache"))
	}
	_, body, hdr = h.leaf().get("/page")
	if body != "hello" || hdr.Get("X-Cache") != "HIT" {
		t.Errorf("second request: body=%q X-Cache=%q", body, hdr.Get("X-Cache"))
	}
	stats := h.leaf().ObjectStats("/page")
	if !stats.Cached || stats.Hits != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestBackgroundRefreshPicksUpUpdates(t *testing.T) {
	h := newHarness(t, topology{})
	h.origin.Set("/page", []byte("v1"), "")
	h.leaf().get("/page")

	h.origin.Set("/page", []byte("v2"), "")
	h.advance(h.leaf().cfg.Bounds.Max)
	if body, _ := h.leaf().CachedBody("/page"); string(body) != "v2" {
		t.Fatalf("cached copy never refreshed to v2: %q", body)
	}
	// The refresh happened in the background — clients always hit.
	if _, body, hdr := h.leaf().get("/page"); body != "v2" || hdr.Get("X-Cache") != "HIT" {
		t.Errorf("body=%q X-Cache=%q", body, hdr.Get("X-Cache"))
	}
}

func TestQuietObjectPollsBackOff(t *testing.T) {
	h := newHarness(t, topology{cfg: Config{
		Bounds: core.TTRBounds{Min: time.Second, Max: 10 * time.Second},
	}})
	h.origin.Set("/static", []byte("unchanging"), "")
	h.leaf().get("/static")

	h.advance(60 * time.Second)
	polls := h.leaf().ObjectStats("/static").Polls
	// Poll-every-TTRmin would be 60 polls; LIMD backs off toward TTRmax
	// (10 s → 6 polls steady-state, plus the warm-up ramp).
	if polls > 20 {
		t.Errorf("polls = %d; LIMD did not back off on a static object", polls)
	}
	if polls < 3 {
		t.Errorf("polls = %d; the refresher does not seem to run", polls)
	}
}

func TestGroupTriggering(t *testing.T) {
	h := newHarness(t, topology{cfg: Config{
		Mode: core.TriggerAll,
		// Long Δ so regular schedules back off; the group trigger is
		// then the only way the sibling refreshes quickly.
		DefaultDelta:      time.Second,
		DefaultGroupDelta: 100 * time.Millisecond,
		Bounds:            core.TTRBounds{Min: time.Second, Max: 6 * time.Second},
	}})
	px := h.leaf()
	h.origin.Set("/story", []byte("story v1"), "text/html")
	h.origin.Set("/photo", []byte("photo v1"), "image/png")
	for _, path := range []string{"/story", "/photo"} {
		h.origin.SetTolerances(path, httpx.Tolerances{Group: "news"})
	}
	// Staggered admission desynchronizes the two refresh schedules; an
	// in-phase pair never needs (and never gets) triggered polls.
	px.get("/story")
	h.advance(2400 * time.Millisecond)
	px.get("/photo")

	// Let both schedules back off, then keep the story hot: every
	// detected story update is a trigger opportunity for the photo.
	// (When the two schedules happen to be in phase a trigger is
	// correctly suppressed, so a single update is not guaranteed to
	// trigger — a stream of updates is.)
	h.advance(6 * time.Second)
	for rev := 1; px.ObjectStats("/photo").Triggered == 0; rev++ {
		if rev > 50 {
			t.Fatalf("no triggered poll of the photo after %d story updates (story polls=%d photo polls=%d)",
				rev-1, px.ObjectStats("/story").Polls, px.ObjectStats("/photo").Polls)
		}
		h.origin.Set("/story", []byte(fmt.Sprintf("story v%d", rev)), "text/html")
		h.advance(time.Second)
	}
}

func TestOriginDeltaDirectiveHonored(t *testing.T) {
	// Bounds.Min unset: each object's TTRmin is its own Δ.
	h := newHarness(t, topology{cfg: Config{
		DefaultDelta: time.Hour, // would essentially never poll
		Bounds:       core.TTRBounds{Max: time.Hour},
	}})
	h.origin.Set("/fast", []byte("v1"), "")
	h.origin.Set("/slow", []byte("v1"), "")
	// Cache-Control carries integer seconds, so the origin advertises 1s:
	// far below the proxy default.
	h.origin.SetTolerances("/fast", httpx.Tolerances{Delta: time.Second})
	h.leaf().get("/fast")
	h.leaf().get("/slow")

	h.advance(3 * time.Second)
	if polls := h.leaf().ObjectStats("/fast").Polls; polls < 2 {
		t.Fatalf("proxy ignored the origin's x-cc-delta directive: %d polls", polls)
	}
	if polls := h.leaf().ObjectStats("/slow").Polls; polls != 1 {
		t.Errorf("an object without the directive polled %d times, want only its admission", polls)
	}
}

func TestUpstreamFailureRecovery(t *testing.T) {
	h := newHarness(t, topology{})
	h.origin.Set("/page", []byte("v1"), "")
	h.leaf().get("/page")

	// Cut the origin off, then verify the proxy keeps serving the stale
	// copy through refreshes that fail.
	h.leaf().up.cut()
	h.advance(h.leaf().cfg.Bounds.Max)
	if _, body, hdr := h.leaf().get("/page"); body != "v1" || hdr.Get("X-Cache") != "HIT" {
		t.Errorf("stale serving failed: body=%q X-Cache=%q", body, hdr.Get("X-Cache"))
	}
	if h.leaf().UpstreamStatus().Errors == 0 {
		t.Error("no refresh failed against the dead origin")
	}
}

func TestMissOnDeadOriginReturnsBadGateway(t *testing.T) {
	h := newHarness(t, topology{})
	h.leaf().up.cut()
	if code, _, _ := h.leaf().get("/never-seen"); code != http.StatusBadGateway {
		t.Errorf("status = %d, want 502", code)
	}
}

// TestOversizedOriginBodyIsRefused: a 200 whose body exceeds
// push.MaxAssembledBody is an upstream failure — a 502, nothing cached —
// never a truncated copy served as the object.
func TestOversizedOriginBodyIsRefused(t *testing.T) {
	chunk := bytes.Repeat([]byte("x"), 1<<16)
	h := newHarness(t, topology{handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for n := 0; n <= push.MaxAssembledBody; n += len(chunk) {
			w.Write(chunk)
		}
	})})
	px := h.leaf()
	if code, body, _ := px.get("/big"); code != http.StatusBadGateway {
		t.Fatalf("served %d with %d bytes, want 502", code, len(body))
	}
	if n, errs := px.Len(), px.UpstreamStatus().Errors; n != 0 || errs != 1 {
		t.Errorf("%d objects resident, %d upstream errors; want none cached and one error", n, errs)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	h := newHarness(t, topology{})
	if code, _, _ := h.leaf().do(httptest.NewRequest(http.MethodPost, "/x", nil)); code != http.StatusMethodNotAllowed {
		t.Errorf("status = %d", code)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing origin must fail")
	}
	origin, _ := url.Parse("http://origin.invalid")
	for _, b := range []core.TTRBounds{
		{Min: -time.Second},
		{Max: -time.Second},
		{Min: time.Minute, Max: time.Second},
		{Min: 2 * core.DefaultTTRMax}, // above the default Max
	} {
		if _, err := New(Config{Origin: origin, Bounds: b}); err == nil {
			t.Errorf("Bounds %+v must fail", b)
		}
	}
}

// TestToleranceAboveTTRMaxPollsAtMax: with Bounds.Min unset and Max at
// its 60 min default — what a zero Config.Bounds resolves to — an object
// whose origin advertises Δ = 2 h is served, cached and polled at
// Bounds.Max, which is stricter than its Δ; so is one whose Δ is raised
// above Max at runtime.
func TestToleranceAboveTTRMaxPollsAtMax(t *testing.T) {
	h := newHarness(t, topology{cfg: Config{Bounds: core.TTRBounds{Max: core.DefaultTTRMax}}})
	h.origin.Set("/slow", []byte("v1"), "")
	h.origin.SetTolerances("/slow", httpx.Tolerances{Delta: 2 * time.Hour})
	if code, body, _ := h.leaf().get("/slow"); code != http.StatusOK || body != "v1" {
		t.Fatalf("GET = %d %q, want 200 v1", code, body)
	}
	// The harness gives a zero Bounds its own, so build one by hand too.
	zero, err := New(Config{Origin: h.leaf().cfg.Origin, Client: &http.Client{Transport: newLink(h.top, nil)}})
	if err != nil {
		t.Fatal(err)
	}
	defer zero.Close()
	rec := httptest.NewRecorder()
	zero.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/slow", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("zero-Bounds GET = %d, want 200", rec.Code)
	}
	// The override polls at once; the next poll is Bounds.Max later.
	if _, ok := h.leaf().OverrideTolerance("/slow", 3*time.Hour, 0); !ok {
		t.Fatal("override found no resident")
	}
	for _, step := range []struct {
		d     time.Duration
		polls uint64
	}{{core.DefaultTTRMax - time.Second, 2}, {time.Second, 3}} {
		h.advance(step.d)
		if polls := h.leaf().ObjectStats("/slow").Polls; polls != step.polls {
			t.Fatalf("%d polls at %v, want %d", polls, h.clk.Now().Sub(h.clk.base), step.polls)
		}
	}
}

func TestCloseIdempotentAndStops(t *testing.T) {
	h := newHarness(t, topology{})
	h.origin.Set("/page", []byte("v1"), "")
	h.leaf().get("/page")
	h.leaf().Close()
	h.leaf().Close() // second close must not panic
	polls := h.leaf().ObjectStats("/page").Polls
	h.advance(10 * h.leaf().cfg.Bounds.Max)
	if got := h.leaf().ObjectStats("/page").Polls; got != polls {
		t.Errorf("polls continued after Close: %d → %d", polls, got)
	}
	if got := h.leaf().up.requestsFor("/page"); got != 1 {
		t.Errorf("the origin saw %d requests, want the admission alone", got)
	}
}

func TestStatsUnknownObject(t *testing.T) {
	h := newHarness(t, topology{})
	if st := h.leaf().ObjectStats("/nope"); st.Cached {
		t.Error("unknown object reported cached")
	}
	if _, ok := h.leaf().CachedBody("/nope"); ok {
		t.Error("unknown object returned a body")
	}
}

func TestHistoryExtensionConsumed(t *testing.T) {
	h := newHarness(t, topology{origin: []webserver.Option{webserver.WithHistoryExtension(true)}})
	h.origin.Set("/page", []byte("v1"), "")
	h.leaf().get("/page")
	h.origin.Set("/page", []byte("v2"), "")
	h.advance(h.leaf().cfg.Bounds.Max)
	if body, _ := h.leaf().CachedBody("/page"); string(body) != "v2" {
		t.Fatalf("refresh with history extension failed: %q", body)
	}
}

func TestValueDomainQuoteTracking(t *testing.T) {
	h := newHarness(t, topology{cfg: Config{
		Bounds: core.TTRBounds{Min: time.Second, Max: 10 * time.Second},
	}})
	px := h.leaf()
	// A quote endpoint: numeric body, Δv advertised via x-cc-vdelta.
	h.origin.Set("/quote/acme", []byte("100.00"), "text/plain")
	h.origin.SetTolerances("/quote/acme", httpx.Tolerances{ValueDelta: 0.25})

	if _, body, _ := px.get("/quote/acme"); body != "100.00" {
		t.Fatalf("body = %q", body)
	}

	// Drive the quote upward; the AdaptiveTTR refresher must track it.
	for i := 1; i <= 10; i++ {
		h.origin.Set("/quote/acme", []byte(fmt.Sprintf("%.2f", 100.0+float64(i)/10)), "text/plain")
		h.advance(1500 * time.Millisecond)
	}
	h.advance(10 * time.Second)
	if b, _ := px.CachedBody("/quote/acme"); string(b) != "101.00" {
		t.Fatalf("quote never tracked to 101.00 (cached %q)", b)
	}
	if px.ObjectStats("/quote/acme").Polls < 3 {
		t.Error("value-domain refresher barely polled")
	}
}

func TestNonNumericBodyFallsBackToLIMD(t *testing.T) {
	h := newHarness(t, topology{})
	// Δv advertised but the body is not numeric: the proxy must fall
	// back to temporal consistency rather than fail.
	h.origin.Set("/page", []byte("<html>not a number</html>"), "text/html")
	h.origin.SetTolerances("/page", httpx.Tolerances{ValueDelta: 0.5})
	if _, body, _ := h.leaf().get("/page"); body != "<html>not a number</html>" {
		t.Fatalf("body = %q", body)
	}
	// Refreshing still works.
	h.origin.Set("/page", []byte("<html>v2</html>"), "text/html")
	h.advance(h.leaf().cfg.Bounds.Max)
	if b, _ := h.leaf().CachedBody("/page"); string(b) != "<html>v2</html>" {
		t.Fatalf("LIMD fallback did not refresh: %q", b)
	}
}

func TestLiveMutualValuePairing(t *testing.T) {
	h := newHarness(t, topology{cfg: Config{
		Bounds: core.TTRBounds{Min: time.Second, Max: 10 * time.Second},
	}})
	px := h.leaf()
	// Two quotes in one group with a Δv tolerance: the proxy must pair
	// them under the partitioned M_v controller.
	h.origin.Set("/quote/fast", []byte("100.00"), "text/plain")
	h.origin.Set("/quote/slow", []byte("50.00"), "text/plain")
	for _, p := range []string{"/quote/fast", "/quote/slow"} {
		h.origin.SetTolerances(p, httpx.Tolerances{ValueDelta: 0.5, Group: "quotes"})
	}
	px.get("/quote/fast")
	px.get("/quote/slow")

	// Drive the fast quote hard, leave the slow one still.
	for i := 1; i <= 12; i++ {
		h.origin.Set("/quote/fast", []byte(fmt.Sprintf("%.2f", 100.0+float64(i)*0.3)), "text/plain")
		h.advance(1250 * time.Millisecond)
	}
	h.advance(10 * time.Second)
	if b, _ := px.CachedBody("/quote/fast"); string(b) != "103.60" {
		t.Fatalf("fast quote never tracked (cached %q)", b)
	}
	// The partitioned split gives the fast mover the tighter share and
	// therefore (far) more polls.
	fast := px.ObjectStats("/quote/fast").Polls
	slow := px.ObjectStats("/quote/slow").Polls
	if fast <= slow {
		t.Errorf("partitioned split not biased: fast=%d slow=%d", fast, slow)
	}
	// No temporal trigger storms for the paired quotes.
	if trig := px.ObjectStats("/quote/slow").Triggered; trig > 2 {
		t.Errorf("paired value entries should not be trigger targets: %d", trig)
	}
}

// TestLoopbackSmoke is the one test on real sockets: it checks that what
// the harness's in-memory links stand in for — net/http on both sides of
// the proxy, and the event stream over a real connection — behaves the
// same. A miss, a hit, a HEAD, and a pushed update end to end.
func TestLoopbackSmoke(t *testing.T) {
	origin := webserver.NewOrigin(webserver.WithPushEvents(""))
	originSrv := httptest.NewServer(origin)
	defer originSrv.Close()
	defer origin.SetPushAvailable(false) // end the stream before the server closes

	// The stream's first bytes are its hello: written once the hub has
	// registered the subscription, so an update made after them reaches it.
	streaming := make(chan struct{})
	var once sync.Once
	pushed := make(chan PollObservation, 1)
	u, _ := url.Parse(originSrv.URL)
	pu, _ := url.Parse(originSrv.URL + "/events")
	px, err := New(Config{
		Origin:  u,
		PushURL: pu,
		Client: &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			resp, err := http.DefaultTransport.RoundTrip(r)
			if err == nil && r.URL.Path == "/events" {
				resp.Body = &firstRead{ReadCloser: resp.Body, fn: func() { once.Do(func() { close(streaming) }) }}
			}
			return resp, err
		})},
		DefaultDelta: time.Hour,
		Bounds:       core.TTRBounds{Min: time.Hour, Max: 2 * time.Hour},
		PollObserver: func(o PollObservation) {
			if o.Pushed {
				select {
				case pushed <- o:
				default:
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	px.Start()
	defer px.Close()
	proxySrv := httptest.NewServer(px)
	defer proxySrv.Close()

	get := func(method string) (int, string, http.Header) {
		t.Helper()
		req, _ := http.NewRequest(method, proxySrv.URL+"/page", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header
	}
	origin.Set("/page", []byte("v1"), "text/plain")
	if code, body, hdr := get(http.MethodGet); code != 200 || body != "v1" || hdr.Get("X-Cache") != "MISS" {
		t.Fatalf("miss: %d %q %q", code, body, hdr.Get("X-Cache"))
	}
	if code, body, hdr := get(http.MethodHead); code != 200 || body != "" || hdr.Get("Content-Length") != "2" {
		t.Errorf("HEAD: %d %q Content-Length %q", code, body, hdr.Get("Content-Length"))
	}

	select {
	case <-streaming:
	case <-time.After(10 * time.Second):
		t.Fatal("the event stream never opened")
	}
	origin.Set("/page", []byte("v2"), "text/plain")
	select {
	case <-pushed:
	case <-time.After(10 * time.Second):
		t.Fatal("the update was never pushed")
	}
	if code, body, hdr := get(http.MethodGet); code != 200 || body != "v2" || hdr.Get("X-Cache") != "HIT" {
		t.Errorf("after the push: %d %q %q", code, body, hdr.Get("X-Cache"))
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// firstRead runs fn when a read first returns data.
type firstRead struct {
	io.ReadCloser
	fn func()
}

func (b *firstRead) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if n > 0 {
		b.fn()
	}
	return n, err
}

// TestStreamUsesConfiguredTransport: the push subscription opens its
// stream through Config.Client's Transport — the one a deployment gives
// its TLS roots or forward proxy — not a bare client's.
func TestStreamUsesConfiguredTransport(t *testing.T) {
	streamed := make(chan string, 1)
	rt := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if r.Header.Get("Accept") == "text/event-stream" {
			select {
			case streamed <- r.URL.Path:
			default:
			}
		}
		return nil, errLinkCut
	})
	u, _ := url.Parse(linkBase)
	pu, _ := url.Parse(linkBase + "/events")
	px, err := New(Config{Origin: u, PushURL: pu, Client: &http.Client{Transport: rt}, PushBackoffMin: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	px.Start()
	defer px.Close()
	select {
	case path := <-streamed:
		if path != "/events" {
			t.Errorf("stream opened at %q", path)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the stream never went through the configured Transport")
	}
}
