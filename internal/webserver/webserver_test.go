package webserver

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"broadway/internal/httpx"
	"broadway/internal/push"
)

// fakeClock is a manually advanced time source.
type fakeClock struct{ now time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2001, 8, 7, 13, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

func get(t *testing.T, h http.Handler, path, ims string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if ims != "" {
		req.Header.Set("If-Modified-Since", ims)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestServeBasics(t *testing.T) {
	clock := newFakeClock()
	o := NewOrigin(WithClock(clock.Now))
	o.Set("/news", []byte("story v1"), "text/html")

	rec := get(t, o, "/news", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if body, _ := io.ReadAll(rec.Body); string(body) != "story v1" {
		t.Errorf("body = %q", body)
	}
	if rec.Header().Get("Last-Modified") == "" {
		t.Error("missing Last-Modified")
	}
	if rec.Header().Get("Content-Type") != "text/html" {
		t.Errorf("content type = %q", rec.Header().Get("Content-Type"))
	}
}

func TestNotFound(t *testing.T) {
	o := NewOrigin()
	if rec := get(t, o, "/missing", ""); rec.Code != http.StatusNotFound {
		t.Errorf("status = %d", rec.Code)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	o := NewOrigin()
	req := httptest.NewRequest(http.MethodPost, "/x", nil)
	rec := httptest.NewRecorder()
	o.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("status = %d", rec.Code)
	}
}

func TestIfModifiedSince(t *testing.T) {
	clock := newFakeClock()
	o := NewOrigin(WithClock(clock.Now))
	o.Set("/obj", []byte("v1"), "")

	rec := get(t, o, "/obj", "")
	lastMod := rec.Header().Get("Last-Modified")

	// Revalidation with the served Last-Modified: 304.
	rec = get(t, o, "/obj", lastMod)
	if rec.Code != http.StatusNotModified {
		t.Fatalf("status = %d, want 304", rec.Code)
	}
	if n := o.Stats().NotModified; n != 1 {
		t.Errorf("NotModified = %d", n)
	}

	// Update and revalidate: fresh body.
	clock.Advance(time.Minute)
	o.Set("/obj", []byte("v2"), "")
	rec = get(t, o, "/obj", lastMod)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 after update", rec.Code)
	}
	if body, _ := io.ReadAll(rec.Body); string(body) != "v2" {
		t.Errorf("body = %q", body)
	}
}

func TestSameSecondUpdatesRemainOrdered(t *testing.T) {
	clock := newFakeClock()
	o := NewOrigin(WithClock(clock.Now))
	o.Set("/obj", []byte("v1"), "")
	o.Set("/obj", []byte("v2"), "") // same clock second
	rec := get(t, o, "/obj", "")
	lm1, err := http.ParseTime(rec.Header().Get("Last-Modified"))
	if err != nil {
		t.Fatal(err)
	}
	o.Set("/obj", []byte("v3"), "")
	rec = get(t, o, "/obj", "")
	lm2, _ := http.ParseTime(rec.Header().Get("Last-Modified"))
	if !lm2.After(lm1) {
		t.Errorf("Last-Modified not strictly increasing: %v then %v", lm1, lm2)
	}
}

func TestHistoryExtension(t *testing.T) {
	clock := newFakeClock()
	o := NewOrigin(WithClock(clock.Now), WithHistoryExtension(true))
	o.Set("/obj", []byte("v1"), "")
	rec := get(t, o, "/obj", "")
	sinceHeader := rec.Header().Get("Last-Modified")

	clock.Advance(time.Minute)
	o.Set("/obj", []byte("v2"), "")
	clock.Advance(time.Minute)
	o.Set("/obj", []byte("v3"), "")

	rec = get(t, o, "/obj", sinceHeader)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	hist, err := httpx.HistoryFrom(rec.Header())
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 {
		t.Fatalf("history = %v, want the 2 updates after since", hist)
	}
	if !hist[0].Before(hist[1]) {
		t.Error("history must be oldest first")
	}
}

func TestHistoryDisabledByDefault(t *testing.T) {
	clock := newFakeClock()
	o := NewOrigin(WithClock(clock.Now))
	o.Set("/obj", []byte("v1"), "")
	rec := get(t, o, "/obj", "")
	if rec.Header().Get(httpx.HeaderModificationHistory) != "" {
		t.Error("history header set without the extension enabled")
	}
}

func TestTolerancesAdvertised(t *testing.T) {
	clock := newFakeClock()
	o := NewOrigin(WithClock(clock.Now))
	o.Set("/obj", []byte("v1"), "")
	o.SetTolerances("/obj", httpx.Tolerances{
		Delta: 30 * time.Second, Group: "news", GroupDelta: time.Minute,
	})
	rec := get(t, o, "/obj", "")
	tol, err := httpx.TolerancesFrom(rec.Header())
	if err != nil {
		t.Fatal(err)
	}
	if tol.Delta != 30*time.Second || tol.Group != "news" || tol.GroupDelta != time.Minute {
		t.Errorf("tolerances = %+v", tol)
	}
}

func TestPollCounter(t *testing.T) {
	clock := newFakeClock()
	o := NewOrigin(WithClock(clock.Now))
	o.Set("/obj", []byte("v1"), "")
	get(t, o, "/obj", "")
	get(t, o, "/obj", "")
	get(t, o, "/missing", "")
	if n := o.Stats().Polls; n != 2 {
		t.Errorf("Polls = %d, want 2 (404s don't count)", n)
	}
}

// TestHeadRequest: a HEAD, on a real socket, is answered with the GET's
// header fields, Content-Length included (RFC 9110 §9.3.2), and no body.
func TestHeadRequest(t *testing.T) {
	clock := newFakeClock()
	o := NewOrigin(WithClock(clock.Now))
	o.Set("/obj", []byte("payload"), "")
	srv := httptest.NewServer(o)
	defer srv.Close()
	resp, err := http.Head(srv.URL + "/obj")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if resp.ContentLength != 7 {
		t.Errorf("HEAD Content-Length = %d, want the GET's 7", resp.ContentLength)
	}
	if body, _ := io.ReadAll(resp.Body); len(body) != 0 {
		t.Errorf("HEAD returned a body: %q", body)
	}
}

// TestServeAuditsAnswersAsGETsWould: an audit batch on httpx.AuditPath,
// with push or without, answers each line as the conditional GET it
// stands for, sent with the line's since and the batch's A-IM, is
// answered, and counts it as that GET: a 304 carrying the Cache-Control
// the child holds is left out, and in a batch with A-IM a 226 or 200 is
// inlined with the GET's status, headers and body. Missing and
// re-tolerated keys, and changed ones in a batch without A-IM, are listed
// and not counted, since their own GET follows. A batch on the event path
// is no batch.
func TestServeAuditsAnswersAsGETsWould(t *testing.T) {
	v1 := bytes.Repeat([]byte("a body of some length, long enough to pay for a delta. "), 20)
	for name, opts := range map[string][]Option{"push": {WithPushEvents("")}, "pull": nil} {
		t.Run(name, func(t *testing.T) {
			clk := newFakeClock()
			o := NewOrigin(append([]Option{WithClock(clk.Now), WithHistoryExtension(true)}, opts...)...)
			for _, p := range []string{"/same", "/one", "/two", "/tol", "/a b"} {
				o.Set(p, v1, "text/x-test")
			}
			since := clk.Now()
			clk.Advance(time.Minute)
			o.Set("/one", append([]byte("one: "), v1...), "text/x-test")
			o.Set("/two", append([]byte("two: "), v1...), "text/x-test")
			o.Set("/two", append([]byte("two, again: "), v1...), "text/x-test")
			o.SetTolerances("/one", httpx.Tolerances{Delta: 9 * time.Second})
			o.SetTolerances("/tol", httpx.Tolerances{Delta: 9 * time.Second})
			getSince := func(key string, aim bool) *httptest.ResponseRecorder {
				r := httptest.NewRequest(http.MethodGet, key, nil)
				r.Header.Set("If-Modified-Since", since.UTC().Format(http.TimeFormat))
				if aim {
					r.Header.Set(push.HeaderAIM, push.DeltaIM)
				}
				rec := httptest.NewRecorder()
				o.ServeHTTP(rec, r)
				return rec
			}
			counts := func(st OriginStats) [3]uint64 { return [3]uint64{st.Polls, st.NotModified, st.DeltaServes} }
			diff := func(a, b [3]uint64) [3]uint64 { return [3]uint64{b[0] - a[0], b[1] - a[1], b[2] - a[2]} }
			// plain and aim are the batch's answer without and with A-IM:
			// 304 left out, 0 listed plain, otherwise inline with that status.
			for _, tc := range []struct {
				key        string
				plain, aim int
			}{
				{"/same", http.StatusNotModified, http.StatusNotModified},
				{"/a%20b", http.StatusNotModified, http.StatusNotModified},
				{"/one", 0, http.StatusIMUsed},
				{"/two", 0, http.StatusOK},
				{"/missing", 0, 0},
				{"/tol", 0, 0},
			} {
				for _, aim := range []bool{false, true} {
					want := tc.plain
					if aim {
						want = tc.aim
					}
					before := o.Stats()
					_, answers := postAudits(t, o, []string{tc.key}, since, aim)
					mid := o.Stats()
					rec := getSince(tc.key, aim)
					batch, get := diff(counts(before), counts(mid)), diff(counts(mid), counts(o.Stats()))
					if n := mid.AuditBatches - before.AuditBatches; n != 1 {
						t.Errorf("%s (A-IM %v): %d batches counted, want 1", tc.key, aim, n)
					}
					switch {
					case want == http.StatusNotModified:
						if len(answers) != 0 || rec.Code != want || batch != get {
							t.Errorf("%s (A-IM %v): answered %+v, counted %v; its GET answered %d, counted %v; want it left out as the 304",
								tc.key, aim, answers, batch, rec.Code, get)
						}
						continue
					case want == 0:
						if len(answers) != 1 || answers[0].Key != tc.key || answers[0].Status != 0 || batch != [3]uint64{} {
							t.Errorf("%s (A-IM %v): answered %+v, counted %v; want it listed plain, uncounted", tc.key, aim, answers, batch)
						}
						continue
					case len(answers) != 1 || answers[0].Status != want || rec.Code != want || batch != get:
						t.Errorf("%s (A-IM %v): answered %+v, counted %v; its GET answered %d, counted %v; want both %d",
							tc.key, aim, answers, batch, rec.Code, get, want)
						continue
					}
					a, h := answers[0], rec.Header()
					lm, _ := http.ParseTime(h.Get("Last-Modified"))
					hist, _ := httpx.HistoryFrom(h)
					if !a.LastModified.Equal(lm) || httpx.FormatHistory(a.History) != httpx.FormatHistory(hist) || len(hist) == 0 ||
						a.ContentType != h.Get("Content-Type") || a.CacheControl != h.Get("Cache-Control") || !bytes.Equal(a.Body, rec.Body.Bytes()) {
						t.Errorf("%s inline %+v differs from its GET's %d %v %q", a.Key, a, rec.Code, h, rec.Body.Bytes())
					}
					if base, result := push.DeltaAnswer(h); a.Base != base || a.Result != result {
						t.Errorf("%s inline digests %q, %q; the GET says %q, %q", a.Key, a.Base, a.Result, base, result)
					}
				}
			}

			req := httptest.NewRequest(http.MethodPost, "/events", bytes.NewReader(httpx.AppendAuditLine(nil, httpx.AuditLine{Key: "/same", Since: since})))
			req.Header.Set("Content-Type", httpx.AuditContentType)
			rec := httptest.NewRecorder()
			batches := o.Stats().AuditBatches
			if o.ServeHTTP(rec, req); rec.Code != http.StatusMethodNotAllowed || o.Stats().AuditBatches != batches {
				t.Errorf("a batch on the event path answered %d, want a 405 and no batch", rec.Code)
			}
		})
	}
}

// TestDeltaAnswer: a GET asking for a delta (A-IM) from the previous
// version is answered 226 with the change and every header its 200
// carries; the change applies to the previous body. A GET without A-IM,
// one asking for the retired codec, from an older version, a HEAD, and
// the first version are answered as plain GETs.
func TestDeltaAnswer(t *testing.T) {
	clock := newFakeClock()
	o := NewOrigin(WithClock(clock.Now), WithHistoryExtension(true))
	v1 := bytes.Repeat([]byte("a body of some length, long enough to pay for a delta. "), 20)
	v2 := append(append([]byte(nil), v1...), "and a new last line"...)
	v3 := append(append([]byte(nil), v2...), " and another"...)
	req := func(method, ims string, aim bool) *httptest.ResponseRecorder {
		r := httptest.NewRequest(method, "/obj", nil)
		r.Header.Set("If-Modified-Since", ims)
		if aim {
			r.Header.Set(push.HeaderAIM, "gzip, "+push.DeltaIM)
		}
		rec := httptest.NewRecorder()
		o.ServeHTTP(rec, r)
		return rec
	}
	o.Set("/obj", v1, "")
	lm1 := get(t, o, "/obj", "").Header().Get("Last-Modified")
	if rec := req(http.MethodGet, "Mon, 06 Aug 2001 13:00:00 GMT", true); rec.Code != http.StatusOK {
		t.Errorf("first version answered %d, want 200", rec.Code)
	}

	clock.Advance(time.Minute)
	o.Set("/obj", v2, "")
	rec := req(http.MethodGet, lm1, true)
	if rec.Code != http.StatusIMUsed {
		t.Fatalf("status = %d, want 226", rec.Code)
	}
	plain := req(http.MethodGet, lm1, false)
	if plain.Code != http.StatusOK || !bytes.Equal(plain.Body.Bytes(), v2) {
		t.Fatalf("GET without A-IM = %d, want 200 and the body", plain.Code)
	}
	// The retired codec's token, whose COPYs named absolute offsets, is
	// not ours: its client gets the body, never a delta it would misapply.
	retired := httptest.NewRequest(http.MethodGet, "/obj", nil)
	retired.Header.Set("If-Modified-Since", lm1)
	retired.Header.Set(push.HeaderAIM, "x-broadway-block")
	old := httptest.NewRecorder()
	o.ServeHTTP(old, retired)
	if old.Code != http.StatusOK || !bytes.Equal(old.Body.Bytes(), v2) {
		t.Errorf("GET asking for the retired codec = %d, want 200 and the body", old.Code)
	}
	for _, h := range []string{"Last-Modified", "Cache-Control", httpx.HeaderModificationHistory, "Content-Type"} {
		if got, want := rec.Header().Get(h), plain.Header().Get(h); got != want {
			t.Errorf("226 %s = %q, the 200 says %q", h, got, want)
		}
	}
	baseDigest, resultDigest := push.DeltaAnswer(rec.Header())
	body, err := push.VerifyDelta(v1, rec.Body.Bytes(), baseDigest, resultDigest)
	if err != nil || !bytes.Equal(body, v2) {
		t.Errorf("the 226 does not rebuild the body: %v", err)
	}
	if head := req(http.MethodHead, lm1, true); head.Code != http.StatusOK || head.Body.Len() != 0 {
		t.Errorf("HEAD answered %d with %d bytes, want a bare 200", head.Code, head.Body.Len())
	}

	clock.Advance(time.Minute)
	o.Set("/obj", v3, "")
	if rec := req(http.MethodGet, lm1, true); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), v3) {
		t.Errorf("two versions behind answered %d, want 200 and the body", rec.Code)
	}
	if st := o.Stats(); st.DeltaServes != 1 || st.Polls != 7 {
		t.Errorf("delta serves %d, polls %d; want 1 and 7", st.DeltaServes, st.Polls)
	}
}

// postAudits posts an audit batch of keys, all held since since with no
// Cache-Control, with or without A-IM, and parses the answer.
func postAudits(t *testing.T, o *Origin, keys []string, since time.Time, aim bool) (*httptest.ResponseRecorder, []httpx.AuditAnswer) {
	t.Helper()
	var body []byte
	for _, k := range keys {
		body = httpx.AppendAuditLine(body, httpx.AuditLine{Key: k, Since: since, Token: httpx.CacheControlToken("")})
	}
	req := httptest.NewRequest(http.MethodPost, httpx.AuditPath, bytes.NewReader(body))
	req.Header.Set("Content-Type", httpx.AuditContentType)
	if aim {
		req.Header.Set(push.HeaderAIM, push.DeltaIM)
	}
	rec := httptest.NewRecorder()
	o.ServeHTTP(rec, req)
	answers, err := httpx.ParseAuditAnswer(rec.Body.Bytes())
	if rec.Code != http.StatusOK || err != nil {
		t.Fatalf("batch answered %d (%v)", rec.Code, err)
	}
	return rec, answers
}

// TestServeAuditsInlinesChangedKeys: a batch carrying A-IM gets each
// changed key's answer inline, the fields the key's A-IM GET answers with
// — a 226 from the previous version, a 200 from an older one — counted as
// that GET; an unchanged key is left out, and a missing or re-tolerated
// one is listed plain. Without A-IM every listed key is plain.
func TestServeAuditsInlinesChangedKeys(t *testing.T) {
	clk := newFakeClock()
	o := NewOrigin(WithClock(clk.Now), WithHistoryExtension(true))
	v1 := bytes.Repeat([]byte("a body of some length, long enough to pay for a delta. "), 20)
	for _, p := range []string{"/same", "/one", "/two", "/tol"} {
		o.Set(p, v1, "text/x-test")
	}
	since := clk.Now()
	ims := since.UTC().Format(http.TimeFormat)
	clk.Advance(time.Minute)
	o.Set("/one", append([]byte("one: "), v1...), "text/x-test")
	o.Set("/two", append([]byte("two: "), v1...), "text/x-test")
	o.Set("/two", append([]byte("two, again: "), v1...), "text/x-test")
	o.SetTolerances("/one", httpx.Tolerances{Delta: 9 * time.Second})
	o.SetTolerances("/tol", httpx.Tolerances{Delta: 9 * time.Second})
	keys := []string{"/same", "/one", "/missing", "/two", "/tol"}

	// Without inline answers, the listing keeps the batch's order.
	_, plain := postAudits(t, o, keys, since, false)
	if len(plain) != 4 || plain[0].Key != "/one" || plain[1].Key != "/missing" || plain[2].Key != "/two" || plain[3].Key != "/tol" {
		t.Fatalf("without A-IM answered %+v, want /one, /missing, /two and /tol listed", plain)
	}
	for _, a := range plain {
		if a.Status != 0 {
			t.Errorf("without A-IM %s answered inline", a.Key)
		}
	}

	before := o.Stats()
	_, answers := postAudits(t, o, keys, since, true)
	after := o.Stats()
	byKey := make(map[string]httpx.AuditAnswer)
	for _, a := range answers {
		byKey[a.Key] = a
	}
	if len(answers) != 4 || len(byKey) != 4 || byKey["/missing"].Status != 0 || byKey["/tol"].Status != 0 {
		t.Fatalf("answered %+v, want /one, /missing, /two and /tol, the second two plain", answers)
	}
	if polls, nm, ds := after.Polls-before.Polls, after.NotModified-before.NotModified, after.DeltaServes-before.DeltaServes; polls != 3 || nm != 1 || ds != 1 {
		t.Errorf("counted %d polls, %d 304s and %d deltas; want 3, 1 and 1", polls, nm, ds)
	}
	for key, want := range map[string]int{"/one": http.StatusIMUsed, "/two": http.StatusOK} {
		a := byKey[key]
		r := httptest.NewRequest(http.MethodGet, key, nil)
		r.Header.Set("If-Modified-Since", ims)
		r.Header.Set(push.HeaderAIM, push.DeltaIM)
		rec := httptest.NewRecorder()
		o.ServeHTTP(rec, r)
		if a.Status != want || rec.Code != want {
			t.Fatalf("%s answered %d inline and %d to its GET, want %d", key, a.Status, rec.Code, want)
		}
		h := rec.Header()
		lm, _ := http.ParseTime(h.Get("Last-Modified"))
		hist, _ := httpx.HistoryFrom(h)
		if !a.LastModified.Equal(lm) || httpx.FormatHistory(a.History) != httpx.FormatHistory(hist) || len(hist) == 0 ||
			a.ContentType != h.Get("Content-Type") || a.CacheControl != h.Get("Cache-Control") || !bytes.Equal(a.Body, rec.Body.Bytes()) {
			t.Errorf("%s inline %+v differs from its GET's %d %v %q", a.Key, a, rec.Code, h, rec.Body.Bytes())
		}
		if want == http.StatusIMUsed && (`"`+a.Base+`"` != h.Get(push.HeaderDeltaBase) || `"`+a.Result+`"` != h.Get("ETag")) {
			t.Errorf("%s inline digests %s, %s; the 226 says %s, %s", a.Key, a.Base, a.Result, h.Get(push.HeaderDeltaBase), h.Get("ETag"))
		}
	}
}

// TestServeAuditsInlineBudget: inline answers stop where the next would
// take the answer past httpx.MaxAuditBody; every changed key past that is
// listed plain, in order, and counted only when its GET follows.
func TestServeAuditsInlineBudget(t *testing.T) {
	clk := newFakeClock()
	o := NewOrigin(WithClock(clk.Now))
	const n = 40
	big := bytes.Repeat([]byte("x"), 4<<10)
	var keys []string
	for i := 0; i < n; i++ {
		keys = append(keys, fmt.Sprintf("/big/%d", i))
		o.Set(keys[i], big, "")
	}
	since := clk.Now()
	clk.Advance(time.Minute)
	for _, k := range keys {
		// Two updates: no delta starts from the child's copy.
		o.Set(k, append([]byte("new "), big...), "")
		o.Set(k, append([]byte("newer "), big...), "")
	}
	before := o.Stats()
	rec, answers := postAudits(t, o, keys, since, true)
	if rec.Body.Len() > httpx.MaxAuditBody {
		t.Fatalf("answer of %d bytes, over the %d-byte budget", rec.Body.Len(), httpx.MaxAuditBody)
	}
	inline := 0
	for i, a := range answers {
		if a.Key != keys[i] {
			t.Fatalf("answer %d is %s, want %s", i, a.Key, keys[i])
		}
		if a.Status != 0 {
			if i != inline {
				t.Errorf("%s answered inline after a plain listing", a.Key)
			}
			inline++
		}
	}
	if len(answers) != n || inline == 0 || inline == n {
		t.Errorf("%d of %d keys answered, %d inline; want all, some inline and some plain", len(answers), n, inline)
	}
	if got := o.Stats().Polls - before.Polls; got != uint64(inline) {
		t.Errorf("counted %d polls, want one per inline answer (%d)", got, inline)
	}
}
