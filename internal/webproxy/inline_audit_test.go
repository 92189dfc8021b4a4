package webproxy

// Tests for inline audit answers (see installAnswered): a batch whose
// answer carries a changed key's 226 or 200 installs it with no GET of
// its own, under exactly the rules for that GET's answer — a delta lands
// only as the body verified against both digests and the body held at
// install time, and one that does not verify costs the key's own poll.
// A parent proxy lists plain.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"broadway/internal/httpx"
	"broadway/internal/push"
	"broadway/internal/webserver"
)

// originGets counts the GETs that reach the origin, by path.
type originGets struct {
	mu sync.Mutex
	n  map[string]int
}

func (g *originGets) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			g.mu.Lock()
			if g.n == nil {
				g.n = make(map[string]int)
			}
			g.n[r.URL.Path]++
			g.mu.Unlock()
		}
		next.ServeHTTP(w, r)
	})
}

func (g *originGets) of(path string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n[path]
}

var inlineKeys = []string{"/a", "/b"}

// observationsOf is every observation px reported for key.
func observationsOf(px *node, key string) []PollObservation {
	var out []PollObservation
	for _, o := range px.observations() {
		if o.Key == key {
			out = append(out, o)
		}
	}
	return out
}

// admitRevisions hosts inlineKeys at revision 0 with a Δ tolerance and
// admits them at px.
func admitRevisions(t *testing.T, h *harness, px *node) {
	t.Helper()
	for _, k := range inlineKeys {
		h.origin.Set(k, revision(0), "text/plain")
		h.origin.SetTolerances(k, httpx.Tolerances{Delta: 30 * time.Second})
		if code, _, _ := px.get(k); code != http.StatusOK {
			t.Fatalf("admit %s: status %d", k, code)
		}
	}
}

// pollTogether runs px's polls of inlineKeys in one pass: a batch, unless
// the upstream refuses batches.
func pollTogether(t *testing.T, h *harness, px *node) time.Time {
	t.Helper()
	at := h.clk.Now().Add(time.Millisecond)
	for _, k := range inlineKeys {
		placeAt(t, px, k, at)
	}
	h.stepTo(at)
	h.quiesce()
	return at
}

// TestInlineDeltaInstallsWhatTheGETWould: one update behind, a batch's
// inline 226 installs what the key's own 226 GET installs on a twin whose
// upstream refuses batches — body, Last-Modified, headers, observation,
// and the next poll the LIMD step (fed the history) places — with no GET,
// and each counts as the poll it stands for at both ends.
func TestInlineDeltaInstallsWhatTheGETWould(t *testing.T) {
	// run returns the GETs of each key the pass sent.
	run := func(refuse bool) (*harness, map[string]int, time.Time) {
		g := &originGets{}
		h := newHarness(t, topology{
			origin:       []webserver.Option{webserver.WithHistoryExtension(true)},
			wrap:         g.wrap,
			refuseAudits: refuse,
		})
		admitRevisions(t, h, h.leaf())
		h.advance(2 * time.Second)
		gets := make(map[string]int)
		for _, k := range inlineKeys {
			h.origin.Set(k, revision(1), "text/plain")
			gets[k] -= g.of(k)
		}
		at := pollTogether(t, h, h.leaf())
		for _, k := range inlineKeys {
			gets[k] += g.of(k)
		}
		return h, gets, at
	}
	twin, twinGets, _ := run(true)
	h, gets, at := run(false)
	px, tx := h.leaf(), twin.leaf()

	if n := px.up.auditBatches(); n == 0 {
		t.Fatal("test premise: no batch was sent")
	}
	for _, k := range inlineKeys {
		if got := gets[k]; got != 0 {
			t.Errorf("%s: the batch's pass sent %d GETs, want none", k, got)
		}
		if got := twinGets[k]; got != 1 {
			t.Errorf("twin %s: the pass sent %d GETs, want one", k, got)
		}
		if got, want := px.up.requestsFor(k), tx.up.requestsFor(k); got != want {
			t.Errorf("%s: harness counts %d requests, the twin %d", k, got, want)
		}
		body, _ := px.CachedBody(k)
		if !bytes.Equal(body, revision(1)) {
			t.Errorf("%s holds %q, want revision 1", k, body)
		}
		e, te := px.lookup(k), tx.lookup(k)
		e.mu.RLock()
		lm, _ := e.lastModified()
		ct, cc := e.contentType.String(), e.cacheControl.String()
		e.mu.RUnlock()
		te.mu.RLock()
		tlm, _ := te.lastModified()
		tct, tcc := te.contentType.String(), te.cacheControl.String()
		te.mu.RUnlock()
		if !lm.Equal(tlm) || ct != tct || cc != tcc {
			t.Errorf("%s: Last-Modified %v, %q, %q; the GET installed %v, %q, %q", k, lm, ct, cc, tlm, tct, tcc)
		}
		obs, tobs := observationsOf(px, k), observationsOf(tx, k)
		if len(obs) == 0 || !obs[len(obs)-1].Modified || !obs[len(obs)-1].At.Equal(at) {
			t.Errorf("%s: observations %+v, want a modified poll at %v last", k, obs, at)
		}
		if len(obs) != len(tobs) {
			t.Errorf("%s: %d observations, the twin %d", k, len(obs), len(tobs))
		}
		if got, want := scheduleOf(t, px, k, 2), scheduleOf(t, tx, k, 2); !got.next.Equal(want.next) {
			t.Errorf("%s: next poll %v after the batch, %v after the GET", k, got.next.Sub(at), want.next.Sub(at))
		}
	}
	for name, n := range map[string]*node{"batch": px, "twin": tx} {
		if cs := n.CacheStats(); cs.DeltaPolls != 2 || cs.DeltaFallbacks != 0 {
			t.Errorf("%s: delta polls %d, fallbacks %d; want 2 and 0", name, cs.DeltaPolls, cs.DeltaFallbacks)
		}
	}
	st, tst := h.origin.Stats(), twin.origin.Stats()
	if st.DeltaServes != 2 || tst.DeltaServes != 2 || st.Polls != tst.Polls {
		t.Errorf("origin delta serves %d (twin %d), polls %d (twin %d); want 2 and equal polls",
			st.DeltaServes, tst.DeltaServes, st.Polls, tst.Polls)
	}
}

// TestInlineDeltaIsTheGETsVersion: the version an inline 226 carries,
// once its delta is verified, is the one the 226 GET to the same request
// builds: modified, body, Last-Modified, history and headers.
func TestInlineDeltaIsTheGETsVersion(t *testing.T) {
	h := newHarness(t, deltaTopology(nil))
	px := h.leaf()
	admitRevisions(t, h, px)
	h.advance(2 * time.Second)
	h.origin.Set("/a", revision(1), "text/plain")

	e := px.lookup("/a")
	e.mu.RLock()
	since, base, cc := e.since(), e.body, e.cacheControl.String()
	e.mu.RUnlock()
	viaGET, err := px.fetch("/a", since, base)
	if err != nil {
		t.Fatal(err)
	}
	listed, ok := px.postAudits(httpx.AppendAuditLine(nil, httpx.AuditLine{Key: "/a", Since: since, Token: httpx.CacheControlToken(cc)}))
	if !ok || listed["/a"] == nil || listed["/a"].Status != http.StatusIMUsed {
		t.Fatalf("batch answered %v, %+v; want /a inline as a 226", ok, listed["/a"])
	}
	v := answerVersion(listed["/a"], viaGET.now, viaGET.epoch)
	if v.body, err = push.VerifyDelta(base, v.delta, v.deltaBase, v.digest); err != nil {
		t.Fatal(err)
	}
	if !v.modified || !bytes.Equal(v.body, viaGET.body) || !v.lastMod.Equal(viaGET.lastMod) || v.hasLastMod != viaGET.hasLastMod ||
		!slices.EqualFunc(v.history, viaGET.history, time.Time.Equal) || len(v.history) != 1 ||
		v.contentType != viaGET.contentType || v.cacheControl != viaGET.cacheControl {
		t.Fatalf("inline version %+v differs from the 226 GET's %+v", *v, *viaGET)
	}
}

// TestInlineWholeBodyTwoBehind: a copy two updates behind, which no delta
// the origin keeps starts from, gets the whole body inline, with no GET.
func TestInlineWholeBodyTwoBehind(t *testing.T) {
	g := &originGets{}
	h := newHarness(t, deltaTopology(g.wrap))
	px := h.leaf()
	admitRevisions(t, h, px)
	h.advance(2 * time.Second)
	for _, k := range inlineKeys {
		h.origin.Set(k, revision(1), "text/plain")
		h.origin.Set(k, revision(2), "text/plain")
	}
	before := h.origin.Stats()
	pollTogether(t, h, px)
	after := h.origin.Stats()
	for _, k := range inlineKeys {
		if body, _ := px.CachedBody(k); !bytes.Equal(body, revision(2)) {
			t.Errorf("%s holds %q, want revision 2", k, body)
		}
		if got := g.of(k); got != 1 {
			t.Errorf("%s: %d GETs, want the admission's alone", k, got)
		}
	}
	if polls, nm, ds := after.Polls-before.Polls, after.NotModified-before.NotModified, after.DeltaServes-before.DeltaServes; polls != 2 || nm != 0 || ds != 0 {
		t.Errorf("origin counted %d polls, %d 304s, %d deltas; want 2, 0, 0", polls, nm, ds)
	}
	if cs := px.CacheStats(); cs.DeltaPolls != 0 || cs.DeltaFallbacks != 0 {
		t.Errorf("delta polls %d, fallbacks %d; want none", cs.DeltaPolls, cs.DeltaFallbacks)
	}
}

// TestInlineAnswerRefusedWhenHeldCopyChanged: a key whose copy moved on
// between the batch's send and its answer — a poll of its own installed a
// newer version — refuses the inline answer and polls by itself. Applied
// to the newer body, a delta would rebuild the older version it was made
// for, which only the base digest tells apart; a whole body would step
// the copy back.
func TestInlineAnswerRefusedWhenHeldCopyChanged(t *testing.T) {
	for name, behind := range map[string]int{"delta": 1, "whole body": 2} {
		t.Run(name, func(t *testing.T) {
			g := &originGets{}
			h := newHarness(t, deltaTopology(g.wrap))
			px := h.leaf()
			admitRevisions(t, h, px)
			h.advance(2 * time.Second)
			for _, k := range inlineKeys {
				for rev := 1; rev <= behind; rev++ {
					h.origin.Set(k, revision(rev), "text/plain")
				}
			}
			// The answer is built; before it arrives, /a moves on a version
			// and a poll of its own installs that.
			newer := revision(behind + 1)
			px.up.beforeReply(httpx.AuditPath, func() {
				h.origin.Set("/a", newer, "text/plain")
				e := px.lookup("/a")
				px.pending.Add(1)
				px.workerFor(e).enqueue(job{e: e, kind: pollTriggered})
				h.quiesce()
				if body, _ := px.CachedBody("/a"); !bytes.Equal(body, newer) {
					t.Errorf("test premise: /a holds %q before the answer, want revision %d", body, behind+1)
				}
			})
			pollTogether(t, h, px)

			if body, _ := px.CachedBody("/a"); !bytes.Equal(body, newer) {
				t.Errorf("/a holds %q after the refused answer, want revision %d", body, behind+1)
			}
			if body, _ := px.CachedBody("/b"); !bytes.Equal(body, revision(behind)) {
				t.Errorf("/b holds %q, want its inline revision %d", body, behind)
			}
			if got := g.of("/a"); got != 3 {
				t.Errorf("/a: %d GETs, want the admission, the poll inside the batch, and the fallback", got)
			}
			if got := g.of("/b"); got != 1 {
				t.Errorf("/b: %d GETs, want the admission's alone", got)
			}
			if cs := px.CacheStats(); cs.DeltaPolls != uint64(2-behind) || cs.DeltaFallbacks != 1 {
				t.Errorf("delta polls %d, fallbacks %d; want %d and 1", cs.DeltaPolls, cs.DeltaFallbacks, 2-behind)
			}
		})
	}
}

// TestInlineDeltaWrongResultRefused: an inline 226 whose rebuilt body does
// not hash to its result digest is never installed; the key polls by
// itself, and the GET's answer stands.
func TestInlineDeltaWrongResultRefused(t *testing.T) {
	g := &originGets{}
	h := newHarness(t, deltaTopology(func(next http.Handler) http.Handler {
		return g.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !httpx.IsAuditBatch(r) {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			answers, err := httpx.ParseAuditAnswer(rec.Body.Bytes())
			if err != nil {
				t.Errorf("origin's answer: %v", err)
			}
			var out []byte
			for _, a := range answers {
				if a.Status == http.StatusIMUsed {
					a.Result = push.DigestOf([]byte("some other body"))
				}
				out = httpx.AppendAuditAnswer(out, a)
			}
			w.Header().Set("Content-Type", httpx.AuditContentType)
			w.Write(out)
		}))
	}))
	px := h.leaf()
	admitRevisions(t, h, px)
	h.advance(2 * time.Second)
	for _, k := range inlineKeys {
		h.origin.Set(k, revision(1), "text/plain")
	}
	pollTogether(t, h, px)
	for _, k := range inlineKeys {
		if body, _ := px.CachedBody(k); !bytes.Equal(body, revision(1)) {
			t.Errorf("%s holds %q, want revision 1 from its own poll", k, body)
		}
		if got := g.of(k); got != 2 {
			t.Errorf("%s: %d GETs, want the admission and the fallback", k, got)
		}
	}
	if cs := px.CacheStats(); cs.DeltaFallbacks != 2 {
		t.Errorf("delta fallbacks %d, want 2", cs.DeltaFallbacks)
	}
}

// TestParentAnswersChildPlain: in a two-hop pull chain the parent lists a
// changed key plain, whatever the batch's A-IM, and the child's own GET
// fetches it.
func TestParentAnswersChildPlain(t *testing.T) {
	h := newHarness(t, topology{hops: 2, origin: []webserver.Option{webserver.WithHistoryExtension(true)}})
	root, leaf := h.root(), h.leaf()
	admitRevisions(t, h, leaf)
	h.advance(2 * time.Second)
	since := modTime(h, "/a")
	for _, k := range inlineKeys {
		h.origin.Set(k, revision(1), "text/plain")
	}
	pollTogether(t, h, root) // the root's own batch: inline from the origin
	for _, k := range inlineKeys {
		if body, _ := root.CachedBody(k); !bytes.Equal(body, revision(1)) {
			t.Fatalf("test premise: the root holds %q at %s", body, k)
		}
	}

	var body []byte
	for _, k := range inlineKeys {
		cc := root.lookup(k).cacheControl.String()
		body = httpx.AppendAuditLine(body, httpx.AuditLine{Key: k, Since: since, Token: httpx.CacheControlToken(cc)})
	}
	req := httptest.NewRequest(http.MethodPost, httpx.AuditPath, bytes.NewReader(body))
	req.Header.Set("Content-Type", httpx.AuditContentType)
	req.Header.Set(push.HeaderAIM, push.DeltaIM)
	code, answer, _ := root.do(req)
	listed, err := httpx.ParseAuditAnswer([]byte(answer))
	if code != http.StatusOK || err != nil || len(listed) != len(inlineKeys) {
		t.Fatalf("root answered %d %q (%v), want both keys listed", code, answer, err)
	}
	for i, a := range listed {
		if a.Key != inlineKeys[i] || a.Status != 0 {
			t.Errorf("root answered %+v, want %s listed plain", a, inlineKeys[i])
		}
	}

	pollTogether(t, h, leaf)
	for _, k := range inlineKeys {
		if got, _ := leaf.CachedBody(k); !bytes.Equal(got, revision(1)) {
			t.Errorf("leaf holds %q at %s, want revision 1", got, k)
		}
	}
}
