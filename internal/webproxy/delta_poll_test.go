package webproxy

// Tests for delta-encoded polls (see fetch): a conditional GET
// from a copy that holds the origin's previous version is answered 226
// with the change, verified against the held body and the result's
// digest before anything is installed; every answer that does not
// verify costs exactly one unconditional GET. Also passing on what the
// origin said: a 404 or 410, or a redirect, reaches the client as
// received and evicts a polled copy, and a no-store or private answer is
// never stored.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"broadway/internal/httpx"
	"broadway/internal/push"
	"broadway/internal/webserver"
)

// revision is a 1 KiB body whose rev-th revision differs from the
// previous one in a few bytes near the middle, as a small edit would.
func revision(rev int) []byte {
	b := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 24)[:1024]
	copy(b[500:], fmt.Sprintf("[revision %04d]", rev))
	return b
}

// deltaTopology is a pull-only proxy under the stock origin with the
// history extension, the origin wrapped by wrap when set.
func deltaTopology(wrap func(http.Handler) http.Handler) topology {
	return topology{origin: []webserver.Option{webserver.WithHistoryExtension(true)}, wrap: wrap}
}

// pollOnce steps the clock to px's next refresh and runs it.
func pollOnce(t *testing.T, h *harness, px *node) {
	t.Helper()
	at, ok := px.NextRefreshAt()
	if !ok {
		t.Fatal("nothing scheduled")
	}
	h.stepTo(at)
	h.quiesce()
}

// TestDeltaPollOneUpdate: one update between polls is answered 226, the
// installed body is the origin's, and the version the proxy builds from
// the 226 is the one it builds from the 200 to the same request without
// A-IM — the LIMD observation cannot tell them apart.
func TestDeltaPollOneUpdate(t *testing.T) {
	h := newHarness(t, deltaTopology(nil))
	px := h.leaf()
	h.origin.Set("/doc", revision(0), "text/plain")
	px.get("/doc")
	h.advance(2 * time.Second)
	h.origin.Set("/doc", revision(1), "text/plain")

	e := px.lookup("/doc")
	e.mu.RLock()
	since, base := e.since(), e.body
	e.mu.RUnlock()
	viaDelta, err := px.fetch("/doc", since, base)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := px.fetch("/doc", since, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !viaDelta.modified || !bytes.Equal(viaDelta.body, whole.body) || !viaDelta.lastMod.Equal(whole.lastMod) ||
		viaDelta.hasLastMod != whole.hasLastMod || !slices.EqualFunc(viaDelta.history, whole.history, time.Time.Equal) ||
		len(viaDelta.history) != 1 || viaDelta.contentType != whole.contentType || viaDelta.cacheControl != whole.cacheControl {
		t.Fatalf("226 version %+v differs from the 200's %+v", *viaDelta, *whole)
	}

	px.observed("/doc")
	before := px.up.bytes.Load()
	pollOnce(t, h, px)
	if got, _ := px.CachedBody("/doc"); !bytes.Equal(got, revision(1)) {
		t.Errorf("installed %q, want revision 1", got)
	}
	obs := px.observed("/doc")
	if len(obs) != 1 || !obs[0].Modified {
		t.Errorf("observations %+v, want one modified poll", obs)
	}
	cs := px.CacheStats()
	if cs.DeltaPolls != 2 || cs.DeltaFallbacks != 0 {
		t.Errorf("delta polls %d, fallbacks %d; want 2 and 0", cs.DeltaPolls, cs.DeltaFallbacks)
	}
	if n := h.origin.Stats().DeltaServes; n != 2 {
		t.Errorf("origin delta serves %d, want 2", n)
	}
	if moved := px.up.bytes.Load() - before; moved >= int64(len(revision(1)))/4 {
		t.Errorf("the delta poll moved %d bytes for a %d-byte body", moved, len(revision(1)))
	}
	e.mu.RLock()
	lm, _ := e.lastModified()
	e.mu.RUnlock()
	if !lm.Equal(whole.lastMod) {
		t.Errorf("entry Last-Modified %v, want %v", lm, whole.lastMod)
	}
}

// TestDeltaPollTwoUpdates: two updates between polls leave the copy two
// versions behind, which no delta the origin keeps starts from: a 200.
func TestDeltaPollTwoUpdates(t *testing.T) {
	h := newHarness(t, deltaTopology(nil))
	px := h.leaf()
	h.origin.Set("/doc", revision(0), "text/plain")
	px.get("/doc")
	h.advance(2 * time.Second)
	h.origin.Set("/doc", revision(1), "text/plain")
	h.origin.Set("/doc", revision(2), "text/plain")
	px.observed("/doc")
	pollOnce(t, h, px)
	if got, _ := px.CachedBody("/doc"); !bytes.Equal(got, revision(2)) {
		t.Errorf("installed %q, want revision 2", got)
	}
	if obs := px.observed("/doc"); len(obs) != 1 || !obs[0].Modified {
		t.Errorf("observations %+v, want one modified poll", obs)
	}
	if cs := px.CacheStats(); cs.DeltaPolls != 0 || cs.DeltaFallbacks != 0 {
		t.Errorf("delta polls %d, fallbacks %d; want none", cs.DeltaPolls, cs.DeltaFallbacks)
	}
}

// TestDeltaPromotionFromDisk: a demoted record one version behind is
// promoted by a 226 against the body on disk.
func TestDeltaPromotionFromDisk(t *testing.T) {
	tp := deltaTopology(nil)
	tp.cfg = Config{MaxObjects: 1, Bounds: noRefreshBounds, DefaultDelta: time.Hour, DiskDir: t.TempDir()}
	h := newHarness(t, tp)
	px := h.leaf()
	h.origin.Set("/a", revision(0), "text/plain")
	h.origin.Set("/b", revision(0), "text/plain")
	px.get("/a")
	px.FlushDisk()
	px.get("/b") // demotes /a
	px.FlushDisk()
	if px.lookup("/a") != nil {
		t.Fatal("/a still resident")
	}
	h.origin.Set("/a", revision(1), "text/plain")

	code, body, _ := px.get("/a")
	if code != http.StatusOK || body != string(revision(1)) {
		t.Fatalf("promotion served %d %q, want revision 1", code, body)
	}
	if ds := px.DiskStats(); ds.Promotions != 1 {
		t.Errorf("%d promotions, want 1", ds.Promotions)
	}
	if cs := px.CacheStats(); cs.DeltaPolls != 1 || cs.DeltaFallbacks != 0 {
		t.Errorf("delta polls %d, fallbacks %d; want 1 and 0", cs.DeltaPolls, cs.DeltaFallbacks)
	}
}

// TestProxyUpstreamNeverAnswersDelta: a proxy serving children ignores
// A-IM, so a leaf under a root polls it as before and its 226s come only
// from the origin, to the root.
func TestProxyUpstreamNeverAnswersDelta(t *testing.T) {
	tp := deltaTopology(nil)
	tp.hops = 2
	h := newHarness(t, tp)
	root, leaf := h.root(), h.leaf()
	h.origin.Set("/doc", revision(0), "text/plain")
	leaf.get("/doc")
	e := root.lookup("/doc")
	e.mu.RLock()
	since := e.since()
	e.mu.RUnlock()
	h.advance(2 * time.Second)
	h.origin.Set("/doc", revision(1), "text/plain")
	h.advance(time.Minute)

	if got, _ := leaf.CachedBody("/doc"); !bytes.Equal(got, revision(1)) {
		t.Fatalf("leaf holds %q, want revision 1", got)
	}
	if n := root.CacheStats().DeltaPolls; n != 1 {
		t.Errorf("root delta polls %d, want 1", n)
	}
	if cs := leaf.CacheStats(); cs.DeltaPolls != 0 || cs.DeltaFallbacks != 0 {
		t.Errorf("leaf delta polls %d, fallbacks %d; want none", cs.DeltaPolls, cs.DeltaFallbacks)
	}
	r := httptest.NewRequest(http.MethodGet, "/doc", nil)
	r.Header.Set("If-Modified-Since", since.Format(http.TimeFormat))
	r.Header.Set(push.HeaderAIM, push.DeltaIM)
	if code, body, hdr := root.do(r); code != http.StatusOK || body != string(revision(1)) || hdr.Get(push.HeaderIM) != "" {
		t.Errorf("root answered A-IM with %d, IM %q, %d bytes; want a plain 200", code, hdr.Get(push.HeaderIM), len(body))
	}
}

// TestRelayPassesOnPolledDeltaEitherCarrier: a relaying root over a
// pull-only origin passes the origin's delta on to its children whichever
// carrier brought it, a GET's 226 or a batch's inline one, with no
// encoder run of its own: the bodies are under relayDeltaFloor, below
// which the relay encodes none.
func TestRelayPassesOnPolledDeltaEitherCarrier(t *testing.T) {
	tp := deltaTopology(nil)
	tp.cfg = Config{Bounds: noRefreshBounds, DefaultDelta: time.Hour}
	tp.tune = func(_ int, cfg *Config) { cfg.RelayEvents = true }
	h := newHarness(t, tp)
	root := h.root()
	leaf := h.attach(root, func(cfg *Config) { cfg.PushURL, _ = url.Parse(linkBase + "/events") })
	h.quiesce()
	short := func(rev int) []byte { return revision(rev)[400:600] }
	if len(short(0)) >= relayDeltaFloor {
		t.Fatal("test premise: the bodies are not under relayDeltaFloor")
	}
	for _, k := range []string{"/a", "/b", "/c"} {
		h.origin.Set(k, short(0), "text/plain")
		if code, _, _ := leaf.get(k); code != http.StatusOK {
			t.Fatalf("admit %s: status %d", k, code)
		}
	}
	h.origin.Set("/a", short(1), "text/plain")
	h.origin.Set("/b", short(1), "text/plain")

	// /a alone: its GET. /b with the unchanged /c: a batch.
	placeAt(t, root, "/a", h.clk.Now().Add(time.Millisecond))
	h.stepTo(h.clk.Now().Add(time.Millisecond))
	h.quiesce()
	at := h.clk.Now().Add(time.Millisecond)
	placeAt(t, root, "/b", at)
	placeAt(t, root, "/c", at)
	h.stepTo(at)
	h.quiesce()

	if n := root.up.auditBatches(); n != 1 {
		t.Fatalf("test premise: the root sent %d batches, want 1", n)
	}
	if ds := h.origin.Stats().DeltaServes; ds != 2 {
		t.Fatalf("test premise: the origin served %d deltas, want 2", ds)
	}
	for _, k := range []string{"/a", "/b"} {
		if body, _ := leaf.CachedBody(k); !bytes.Equal(body, short(1)) {
			t.Errorf("leaf holds %q at %s, want revision 1", body, k)
		}
	}
	if n := root.PushStats().DeltaRebased; n != 2 {
		t.Errorf("the root published %d deltas, want the origin's 2", n)
	}
}

// tamper wraps an upstream: fn sees each reply the upstream built for a
// request and the request's headers, and returns the reply to send.
func tamper(fn func(req http.Header, code int, h http.Header, body []byte) (int, []byte)) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			code, body := fn(r.Header, rec.Code, w.Header(), rec.Body.Bytes())
			w.WriteHeader(code)
			w.Write(body)
		})
	}
}

// TestDeltaAnswersThatDoNotVerifyFallBack: every 226 that does not
// verify — a Delta-Base that is not the held body, an ETag the result
// does not hash to, a delta that does not decode, a 226 to a request
// that did not ask for one — ends in exactly one unconditional GET whose
// body, the origin's, is installed, and one counted fallback.
func TestDeltaAnswersThatDoNotVerifyFallBack(t *testing.T) {
	rewrite := func(edit func(h http.Header, body []byte) []byte) func(http.Header, int, http.Header, []byte) (int, []byte) {
		return func(_ http.Header, code int, h http.Header, body []byte) (int, []byte) {
			if code == http.StatusIMUsed {
				body = edit(h, body)
			}
			return code, body
		}
	}
	for _, tc := range []struct {
		name  string
		fn    func(http.Header, int, http.Header, []byte) (int, []byte)
		admit bool // the hostile answer is the admission's
	}{
		{name: "wrong Delta-Base", fn: rewrite(func(h http.Header, body []byte) []byte {
			h.Set(push.HeaderDeltaBase, `"0123456789abcdef"`)
			return body
		})},
		{name: "wrong ETag", fn: rewrite(func(h http.Header, body []byte) []byte {
			h.Set("ETag", `"0123456789abcdef"`)
			return body
		})},
		{name: "undecodable delta", fn: rewrite(func(h http.Header, body []byte) []byte {
			return []byte{0x7f, 0x01}
		})},
		{name: "226 not asked for", admit: true, fn: func() func(http.Header, int, http.Header, []byte) (int, []byte) {
			var once sync.Once
			return func(req http.Header, code int, h http.Header, body []byte) (int, []byte) {
				if req.Get(push.HeaderAIM) != "" {
					return code, body
				}
				once.Do(func() {
					// A delta from the empty body that builds the true body,
					// with headers that verify against it: refused only
					// because nobody asked.
					push.SetDeltaHeaders(h, push.DigestOf(nil), push.DigestOf(body))
					code, body = http.StatusIMUsed, append(binary.AppendUvarint([]byte{0x01}, uint64(len(body))), body...)
				})
				return code, body
			}
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var seen []http.Header
			h := newHarness(t, deltaTopology(tamper(func(req http.Header, code int, hdr http.Header, body []byte) (int, []byte) {
				mu.Lock()
				seen = append(seen, req.Clone())
				mu.Unlock()
				return tc.fn(req, code, hdr, body)
			})))
			px := h.leaf()
			h.origin.Set("/doc", revision(0), "text/plain")
			if tc.admit {
				if code, body, _ := px.get("/doc"); code != http.StatusOK || body != string(revision(0)) {
					t.Fatalf("admission served %d %q", code, body)
				}
			} else {
				px.get("/doc")
				h.advance(2 * time.Second)
				h.origin.Set("/doc", revision(1), "text/plain")
				mu.Lock()
				seen = nil
				mu.Unlock()
				pollOnce(t, h, px)
			}
			want := revision(0)
			if !tc.admit {
				want = revision(1)
			}
			if got, _ := px.CachedBody("/doc"); !bytes.Equal(got, want) {
				t.Errorf("installed %q, want %q", got, want)
			}
			if cs := px.CacheStats(); cs.DeltaFallbacks != 1 || cs.DeltaPolls != 0 {
				t.Errorf("delta fallbacks %d, polls %d; want 1 and 0", cs.DeltaFallbacks, cs.DeltaPolls)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(seen) != 2 {
				t.Fatalf("%d requests, want the answered one and one unconditional GET", len(seen))
			}
			if last := seen[1]; last.Get("If-Modified-Since") != "" || last.Get(push.HeaderAIM) != "" {
				t.Errorf("fallback GET carried If-Modified-Since %q, A-IM %q; want neither",
					last.Get("If-Modified-Since"), last.Get(push.HeaderAIM))
			}
			if n := px.UpstreamStatus().Errors; n != 0 {
				t.Errorf("%d upstream errors, want none", n)
			}
		})
	}
}

// TestOriginMissingObjectReachesClient: an origin 404 or 410 on
// admission reaches the client as received, is not stored, and is no
// upstream error: the origin answered. A HEAD hears the GET's length (RFC
// 9110 §9.3.2), which on a socket nothing infers from a body.
func TestOriginMissingObjectReachesClient(t *testing.T) {
	h := newHarness(t, topology{wrap: func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/gone" {
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				w.WriteHeader(http.StatusGone)
				w.Write([]byte("retired\n"))
				return
			}
			next.ServeHTTP(w, r)
		})
	}})
	px := h.leaf()
	srv := httptest.NewServer(px)
	defer srv.Close()
	for _, tc := range []struct {
		path string
		code int
		body string
	}{
		{"/missing", http.StatusNotFound, "404 page not found\n"},
		{"/gone", http.StatusGone, "retired\n"},
	} {
		for i := 0; i < 2; i++ {
			code, body, hdr := px.get(tc.path)
			if code != tc.code || body != tc.body || !strings.HasPrefix(hdr.Get("Content-Type"), "text/plain") {
				t.Errorf("GET %s = %d %q (%s), want %d %q", tc.path, code, body, hdr.Get("Content-Type"), tc.code, tc.body)
			}
		}
		resp, err := srv.Client().Head(srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code || resp.ContentLength != int64(len(tc.body)) {
			t.Errorf("HEAD %s = %d, length %d; want %d, length %d", tc.path, resp.StatusCode, resp.ContentLength, tc.code, len(tc.body))
		}
		if n := px.up.requestsFor(tc.path); n != 3 {
			t.Errorf("%s reached the origin %d times, want 3: nothing is stored", tc.path, n)
		}
	}
	if n := px.Len(); n != 0 {
		t.Errorf("%d objects resident, want none", n)
	}
	if n := px.UpstreamStatus().Errors; n != 0 {
		t.Errorf("%d upstream errors, want none", n)
	}
}

// TestPollAnsweredGoneEvicts: a resident whose origin starts answering
// 404 or 410 leaves both tiers at its next poll, counted as an eviction;
// the next GET hears the origin's answer, and none of it is an upstream
// error. (Backing off instead, the copy would be served STALE.)
func TestPollAnsweredGoneEvicts(t *testing.T) {
	for _, code := range []int{http.StatusNotFound, http.StatusGone} {
		t.Run(http.StatusText(code), func(t *testing.T) {
			var gone atomic.Bool
			h := newHarness(t, topology{
				cfg: Config{DiskDir: t.TempDir()},
				wrap: func(next http.Handler) http.Handler {
					return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
						if gone.Load() {
							w.Header().Set("Content-Type", "text/plain; charset=utf-8")
							w.WriteHeader(code)
							w.Write([]byte("no such object\n"))
							return
						}
						next.ServeHTTP(w, r)
					})
				},
			})
			px := h.leaf()
			h.origin.Set("/obj", []byte("v1"), "")
			if _, body, hdr := px.get("/obj"); body != "v1" || hdr.Get("X-Cache") != "MISS" {
				t.Fatalf("admission served %q %s", body, hdr.Get("X-Cache"))
			}
			px.FlushDisk()
			if _, _, ok := px.disk.Get("/obj"); !ok {
				t.Fatal("test premise: the copy never reached the disk tier")
			}

			gone.Store(true)
			h.advance(2 * time.Second) // past the first TTR: the poll runs
			if n := px.Len(); n != 0 {
				t.Errorf("%d objects resident after the origin answered %d, want none", n, code)
			}
			if _, _, ok := px.disk.Get("/obj"); ok {
				t.Error("the disk record outlived the origin's answer")
			}
			if n := px.CacheStats().Evictions; n != 1 {
				t.Errorf("Evictions = %d, want 1", n)
			}
			got, body, hdr := px.get("/obj")
			if got != code || body != "no such object\n" || hdr.Get("X-Cache") != "MISS" {
				t.Errorf("GET after eviction = %d %q %s, want the origin's %d", got, body, hdr.Get("X-Cache"), code)
			}
			if n := px.UpstreamStatus().Errors; n != 0 {
				t.Errorf("%d upstream errors, want none: the origin answered", n)
			}
		})
	}
}

// TestRedirectPassesThroughUnstored: the default client follows no
// redirect. An admission answered 301, 302, 303, 307 or 308 reaches the
// client with its status and Location, labelled MISS, and nothing is
// stored under the requested key; a poll answered with one evicts the
// copy. None of it is an upstream error.
func TestRedirectPassesThroughUnstored(t *testing.T) {
	var moved atomic.Bool
	origin := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/new":
			w.Write([]byte("the target's body"))
		case r.URL.Path == "/old" && !moved.Load():
			w.Header().Set("Last-Modified", time.Unix(1e9, 0).UTC().Format(http.TimeFormat))
			w.Write([]byte("v1"))
		default:
			code := http.StatusPermanentRedirect
			fmt.Sscanf(r.URL.Path, "/r%d", &code)
			http.Redirect(w, r, "/new", code)
		}
	})
	u, _ := url.Parse("http://origin.test")
	px, err := New(Config{Origin: u})
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	// The default client, on an in-memory transport.
	px.cfg.Client.Transport = roundTripFunc(func(r *http.Request) (*http.Response, error) {
		rec := httptest.NewRecorder()
		origin.ServeHTTP(rec, r)
		return rec.Result(), nil
	})
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		px.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	for _, code := range []int{301, 302, 303, 307, 308} {
		path := fmt.Sprintf("/r%d", code)
		rec := get(path)
		if rec.Code != code || rec.Header().Get("Location") != "/new" || rec.Header().Get("X-Cache") != "MISS" {
			t.Errorf("GET %s = %d Location %q X-Cache %q, want %d to /new, MISS",
				path, rec.Code, rec.Header().Get("Location"), rec.Header().Get("X-Cache"), code)
		}
	}
	if n := px.Len(); n != 0 {
		t.Errorf("%d objects resident after redirects, want none", n)
	}

	if rec := get("/old"); rec.Code != http.StatusOK || px.Len() != 1 {
		t.Fatalf("admission answered %d with %d resident", rec.Code, px.Len())
	}
	moved.Store(true)
	px.pollEntry(px.lookup("/old"), pollRegular)
	if n := px.Len(); n != 0 {
		t.Errorf("%d objects resident after the poll was redirected, want none", n)
	}
	if n := px.CacheStats().Evictions; n != 1 {
		t.Errorf("Evictions = %d, want 1", n)
	}
	if n := px.UpstreamStatus().Errors; n != 0 {
		t.Errorf("%d upstream errors, want none: the origin answered", n)
	}
}

// TestUnstorableAnswerIsNeverStored: an answer whose Cache-Control
// carries no-store or private is served BYPASS and stored in neither
// tier — every request asks the origin — and a poll answer that newly
// carries one evicts the resident copy.
func TestUnstorableAnswerIsNeverStored(t *testing.T) {
	var flipped atomic.Bool
	h := newHarness(t, topology{
		cfg: Config{DiskDir: t.TempDir()},
		wrap: func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch {
				case r.URL.Path == "/nostore", r.URL.Path == "/flip" && flipped.Load():
					w.Header().Set("Cache-Control", "no-store")
				case r.URL.Path == "/private":
					w.Header().Set("Cache-Control", "private")
				case r.URL.Path == "/private-field":
					w.Header().Set("Cache-Control", `PRIVATE="Set-Cookie"`)
				}
				next.ServeHTTP(w, r) // the origin appends its own directives
			})
		},
	})
	px := h.leaf()
	for _, path := range []string{"/nostore", "/private", "/private-field"} {
		h.origin.Set(path, []byte("secret"), "")
		h.origin.SetTolerances(path, httpx.Tolerances{Delta: 2 * time.Second})
		for i := 0; i < 2; i++ {
			code, body, hdr := px.get(path)
			if code != http.StatusOK || body != "secret" || hdr.Get("X-Cache") != "BYPASS" {
				t.Errorf("GET %s #%d = %d %q X-Cache=%q, want 200 \"secret\" BYPASS", path, i+1, code, body, hdr.Get("X-Cache"))
			}
		}
		if n := px.up.requestsFor(path); n != 2 {
			t.Errorf("%s reached the origin %d times, want 2: nothing is stored", path, n)
		}
	}
	px.FlushDisk()
	if n := px.Len(); n != 0 {
		t.Errorf("%d objects resident, want none", n)
	}
	if n := px.DiskStats().Records; n != 0 {
		t.Errorf("%d disk records, want none", n)
	}

	h.origin.Set("/flip", []byte("v1"), "")
	if _, _, hdr := px.get("/flip"); hdr.Get("X-Cache") != "MISS" {
		t.Fatalf("a storable answer served %s", hdr.Get("X-Cache"))
	}
	flipped.Store(true)
	h.origin.Set("/flip", []byte("v2"), "")
	h.advance(2 * time.Second) // past the first TTR: the poll runs
	if n := px.Len(); n != 0 {
		t.Errorf("%d objects resident after a no-store poll answer, want none", n)
	}
	if _, body, hdr := px.get("/flip"); body != "v2" || hdr.Get("X-Cache") != "BYPASS" {
		t.Errorf("GET /flip after the answer turned no-store = %q %s, want \"v2\" BYPASS", body, hdr.Get("X-Cache"))
	}
}
