package webproxy

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"broadway/internal/core"
)

// TestConcurrentServeStress hammers ServeHTTP across many objects (and
// therefore shards) while background refreshes are active and the origin
// keeps updating. Run under -race this exercises every lock in the hit
// path, the admission path, and the refresh engine at once.
func TestConcurrentServeStress(t *testing.T) {
	const objects = 32
	h := newHarness(t, topology{cfg: Config{
		Shards:      8,
		PollWorkers: 4,
		Bounds:      core.TTRBounds{Min: 5 * time.Millisecond, Max: 50 * time.Millisecond},
	}})
	px := h.leaf()
	for i := 0; i < objects; i++ {
		h.origin.Set(fmt.Sprintf("/obj/%d", i), []byte(fmt.Sprintf("v1 of %d", i)), "text/plain")
	}

	// The updater moves the clock as it goes, so refreshes keep running
	// under the readers.
	stop := make(chan struct{})
	var updaterWG sync.WaitGroup
	updaterWG.Add(1)
	go func() {
		defer updaterWG.Done()
		for rev := 2; ; rev++ {
			select {
			case <-stop:
				return
			default:
			}
			h.origin.Set(fmt.Sprintf("/obj/%d", rev%objects), []byte(fmt.Sprintf("v%d", rev)), "text/plain")
			h.clk.AdvanceTo(h.clk.Now().Add(time.Millisecond))
			px.Kick()
			runtime.Gosched()
		}
	}()

	const goroutines = 16
	const requests = 150
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < requests; i++ {
				path := fmt.Sprintf("/obj/%d", rng.Intn(objects))
				code, body, _ := px.get(path)
				if code != http.StatusOK {
					errs <- fmt.Errorf("GET %s: status %d", path, code)
					return
				}
				if !strings.HasPrefix(body, "v") {
					errs <- fmt.Errorf("GET %s: body %q", path, body)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(stop)
	updaterWG.Wait()
	h.quiesce()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if got := px.Len(); got != objects {
		t.Errorf("cached objects = %d, want %d", got, objects)
	}
	if px.CacheStats().RegularPolls == 0 {
		t.Error("no refresh ran under the readers")
	}
}

// TestThunderingHerdSingleOriginFetch asserts that N concurrent first
// requests for one object produce exactly one origin fetch (singleflight
// admission): the first fetch's reply is held at the origin until every
// request has been made.
func TestThunderingHerdSingleOriginFetch(t *testing.T) {
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "herd body")
	})
	h := newHarness(t, topology{handler: handler})
	px := h.leaf()
	held := px.up.hold(t, "/herd")

	const n = 40
	var wg sync.WaitGroup
	codes := make([]int, n)
	bodies := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], bodies[i], _ = px.get("/herd")
		}(i)
	}
	held.wait(t)
	held.release()
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK || bodies[i] != "herd body" {
			t.Fatalf("request %d: status %d body %q", i, codes[i], bodies[i])
		}
	}
	if got := px.up.requestsFor("/herd"); got != 1 {
		t.Errorf("origin saw %d fetches for one object, want 1", got)
	}
}

// TestStalledOriginDoesNotDelayOthers verifies the worker pool isolates
// a hung upstream: while a refresh poll of /slow is held inside the
// origin, refreshes of an unrelated object keep running.
func TestStalledOriginDoesNotDelayOthers(t *testing.T) {
	var rev atomic.Int64
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/slow":
			io.WriteString(w, "slow body")
		case "/fast":
			fmt.Fprintf(w, "fast v%d", rev.Add(1))
		default:
			http.NotFound(w, r)
		}
	})
	const workers = 4
	h := newHarness(t, topology{handler: handler, cfg: Config{
		PollWorkers: workers,
		Bounds:      core.TTRBounds{Min: time.Second, Max: 5 * time.Second},
	}})
	px := h.leaf()

	// The two keys must land on different workers for this test to mean
	// anything; with the chosen names they do.
	if fnv32("/slow")%workers == fnv32("/fast")%workers {
		t.Fatal("test paths share an affinity worker; pick different names")
	}
	for _, k := range []string{"/slow", "/fast"} {
		if code, _, _ := px.get(k); code != http.StatusOK {
			t.Fatalf("admit %s: %d", k, code)
		}
	}

	// Both refresh together; /slow's poll is held in the origin.
	held := px.up.hold(t, "/slow")
	h.advance(time.Second)
	held.wait(t)

	// With /slow's worker wedged, /fast must still accumulate refresh
	// polls (its body changes every poll, so polls keep coming).
	before := px.ObjectStats("/fast").Polls
	h.advance(15 * time.Second)
	if got := px.ObjectStats("/fast").Polls; got < before+3 {
		t.Fatalf("/fast polls stuck at %d while /slow stalled (want ≥ %d)", got, before+3)
	}
	if got := px.ObjectStats("/slow").Polls; got != 1 {
		t.Errorf("/slow completed %d polls while held, want only its admission", got)
	}
}

// TestQueryStringsAreDistinctObjects covers the query-string bugfix:
// /stock?sym=A and /stock?sym=B must be distinct cached objects, the
// query must reach the origin, and parameter order must not fragment the
// cache (canonicalization).
func TestQueryStringsAreDistinctObjects(t *testing.T) {
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "path=%s query=%s", r.URL.Path, r.URL.Query().Encode())
	})
	px := newHarness(t, topology{handler: handler}).leaf()

	_, bodyA, hdrA := px.get("/stock?sym=A")
	if bodyA != "path=/stock query=sym=A" {
		t.Errorf("sym=A body = %q", bodyA)
	}
	if hdrA.Get("X-Cache") != "MISS" {
		t.Errorf("first sym=A X-Cache = %q", hdrA.Get("X-Cache"))
	}
	_, bodyB, _ := px.get("/stock?sym=B")
	if bodyB != "path=/stock query=sym=B" {
		t.Errorf("sym=B body = %q (collapsed into sym=A's object?)", bodyB)
	}
	_, bodyA2, hdrA2 := px.get("/stock?sym=A")
	if bodyA2 != "path=/stock query=sym=A" || hdrA2.Get("X-Cache") != "HIT" {
		t.Errorf("second sym=A: body=%q X-Cache=%q", bodyA2, hdrA2.Get("X-Cache"))
	}

	// Parameter permutations share one object.
	_, body1, hdr1 := px.get("/q?a=1&b=2")
	if hdr1.Get("X-Cache") != "MISS" {
		t.Errorf("first permutation X-Cache = %q", hdr1.Get("X-Cache"))
	}
	_, body2, hdr2 := px.get("/q?b=2&a=1")
	if hdr2.Get("X-Cache") != "HIT" {
		t.Errorf("permuted query X-Cache = %q, want HIT", hdr2.Get("X-Cache"))
	}
	if body1 != body2 {
		t.Errorf("permutations diverged: %q vs %q", body1, body2)
	}
	if st := px.ObjectStats("/stock?sym=A"); !st.Cached || st.Hits != 1 {
		t.Errorf("stats for /stock?sym=A = %+v", st)
	}
	// Accessors canonicalize their argument like ServeHTTP does.
	if st := px.ObjectStats("/q?b=2&a=1"); !st.Cached {
		t.Error("ObjectStats did not canonicalize a permuted query key")
	}
	if _, ok := px.CachedBody("/q?b=2&a=1"); !ok {
		t.Error("CachedBody did not canonicalize a permuted query key")
	}
	// A bare path and an empty query are the same key.
	px.get("/plain")
	if _, _, hdr := px.get("/plain?"); hdr.Get("X-Cache") != "HIT" {
		t.Errorf("/plain? X-Cache = %q, want HIT", hdr.Get("X-Cache"))
	}
}

// TestEncodedQuestionMarkInPathIsNotAQuery pins down that a %3F in the
// path stays path data end to end: the cache key must not alias it with
// the query form, and the origin must receive the escaped path.
func TestEncodedQuestionMarkInPathIsNotAQuery(t *testing.T) {
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "esc=%s query=%s", r.URL.EscapedPath(), r.URL.RawQuery)
	})
	px := newHarness(t, topology{handler: handler}).leaf()

	_, body, _ := px.get("/report%3Fdaily")
	if body != "esc=/report%3Fdaily query=" {
		t.Errorf("encoded-? path reached origin as %q", body)
	}
	_, body2, hdr2 := px.get("/report?daily")
	if hdr2.Get("X-Cache") != "MISS" {
		t.Errorf("/report?daily aliased the %%3F entry: X-Cache=%q", hdr2.Get("X-Cache"))
	}
	// Canonicalization re-encodes the bare "daily" flag as "daily=".
	if body2 != "esc=/report query=daily=" {
		t.Errorf("query form reached origin as %q", body2)
	}
}

// TestMalformedQueryKeptVerbatim pins down that a query failing the
// parse/encode round trip is neither collapsed with its well-formed
// cousin nor stripped from the upstream request.
func TestMalformedQueryKeptVerbatim(t *testing.T) {
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "query=%s", r.URL.RawQuery)
	})
	px := newHarness(t, topology{handler: handler}).leaf()

	_, bodyBad, _ := px.get("/x?a=%zz&b=1")
	if bodyBad != "query=a=%zz&b=1" {
		t.Errorf("malformed query reached origin as %q (parameters dropped?)", bodyBad)
	}
	_, bodyGood, hdrGood := px.get("/x?b=1")
	if hdrGood.Get("X-Cache") != "MISS" {
		t.Errorf("/x?b=1 aliased the malformed-query entry: X-Cache=%q", hdrGood.Get("X-Cache"))
	}
	if bodyGood != "query=b=1" {
		t.Errorf("well-formed query reached origin as %q", bodyGood)
	}
}

// TestUpstreamFailureBackoff covers the flapping-origin bugfix: repeated
// refresh failures must back off exponentially instead of hammering the
// origin at InitialTTR forever, and recovery must pick updates back up.
func TestUpstreamFailureBackoff(t *testing.T) {
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Last-Modified", time.Unix(1_700_000_000, 0).UTC().Format(http.TimeFormat))
		io.WriteString(w, "recovered body")
	})
	h := newHarness(t, topology{handler: handler, cfg: Config{
		Bounds: core.TTRBounds{Min: time.Second, Max: 50 * time.Second},
	}})
	px := h.leaf()
	if code, _, _ := px.get("/flappy"); code != http.StatusOK {
		t.Fatal("admission failed")
	}
	px.up.fail("/flappy", true)
	before := px.up.requestsFor("/flappy")
	h.advance(35 * time.Second)
	got := px.up.requestsFor("/flappy") - before
	// Without backoff the proxy retries every second: 35 attempts in the
	// window. With doubling (1, 2, 4, 8, 16 s) it fits 5.
	if got > 10 {
		t.Errorf("%d refresh attempts against a failing origin in 35s; backoff missing", got)
	}
	if got < 2 {
		t.Errorf("only %d refresh attempts; retries seem to have stopped entirely", got)
	}

	// Recovery: successful polls resume (only successful refreshes
	// increment the Polls counter beyond the admission fetch).
	px.up.fail("/flappy", false)
	h.advance(50 * time.Second)
	if px.ObjectStats("/flappy").Polls < 2 {
		t.Fatal("polls never resumed after the origin recovered")
	}
	if b, ok := px.CachedBody("/flappy"); !ok || string(b) != "recovered body" {
		t.Errorf("cached body after recovery = %q", b)
	}
}

// TestTriggeredFailurePullsRegularPollForward checks that when a
// triggered poll fails, the object's regular poll is pulled forward to
// the backoff retry instant instead of leaving the group's mutual
// guarantee unserved until the (possibly far-off) regular TTR — and
// that an already-sooner poll is never pushed later.
func TestTriggeredFailurePullsRegularPollForward(t *testing.T) {
	u, _ := url.Parse("http://127.0.0.1:0")
	px, err := New(Config{Origin: u, Bounds: core.TTRBounds{Min: 20 * time.Millisecond, Max: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	now := time.Now()
	e := &entry{key: "/member", policy: core.NewLIMD(core.LIMDConfig{
		Delta:  20 * time.Millisecond,
		Bounds: core.TTRBounds{Min: 20 * time.Millisecond, Max: time.Hour},
	})}

	// Regular poll an hour out; a failed triggered poll must pull it in.
	px.reschedule(e, now.Add(time.Hour))
	px.deferRetry(e, now, pollTriggered)
	if got := px.scheduledNextAt(e); got.After(now.Add(time.Minute)) {
		t.Errorf("failed triggered poll left retry at %v out", got.Sub(now))
	}

	// Regular poll imminent; a failed triggered poll must not delay it.
	px.reschedule(e, now.Add(time.Millisecond))
	px.deferRetry(e, now, pollTriggered)
	if got := px.scheduledNextAt(e); got.After(now.Add(2 * time.Millisecond)) {
		t.Errorf("failed triggered poll pushed an imminent poll out to %v", got.Sub(now))
	}
}

// TestShardConfigNormalization checks the shard count rounds up to a
// power of two and odd worker counts are accepted.
func TestShardConfigNormalization(t *testing.T) {
	u, _ := url.Parse("http://127.0.0.1:0")
	px, err := New(Config{Origin: u, Shards: 5, PollWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	if got := len(px.store.shards); got != 8 {
		t.Errorf("shards = %d, want 8", got)
	}
	if got := len(px.workers); got != 3 {
		t.Errorf("workers = %d, want 3", got)
	}

	// An absurd shard count must clamp, not hang New in nextPow2.
	px2, err := New(Config{Origin: u, Shards: (1 << 62) + 1})
	if err != nil {
		t.Fatal(err)
	}
	defer px2.Close()
	if got := len(px2.store.shards); got != maxShards {
		t.Errorf("clamped shards = %d, want %d", got, maxShards)
	}
}
