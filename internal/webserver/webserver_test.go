package webserver

import (
	"bytes"
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

func TestHeadRequest(t *testing.T) {
	clock := newFakeClock()
	o := NewOrigin(WithClock(clock.Now))
	o.Set("/obj", []byte("payload"), "")
	req := httptest.NewRequest(http.MethodHead, "/obj", nil)
	rec := httptest.NewRecorder()
	o.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if body, _ := io.ReadAll(rec.Body); len(body) != 0 {
		t.Errorf("HEAD returned a body: %q", body)
	}
}

// TestServeAuditsAnswersAsGETsWould: an audit batch on httpx.AuditPath,
// with push or without, vouches for exactly the keys whose conditional
// GET would be a 304 with the Cache-Control the child holds, counting
// each as that GET; changed, missing and re-tolerated keys are listed and
// not counted, since their own GET follows. A batch on the event path is
// no batch.
func TestServeAuditsAnswersAsGETsWould(t *testing.T) {
	for name, opts := range map[string][]Option{"push": {WithPushEvents("")}, "pull": nil} {
		t.Run(name, func(t *testing.T) {
			clk := newFakeClock()
			o := NewOrigin(append([]Option{WithClock(clk.Now)}, opts...)...)
			for _, p := range []string{"/same", "/changed", "/tol", "/a b"} {
				o.Set(p, []byte("v1"), "")
			}
			since := clk.Now()
			clk.Advance(time.Minute)
			o.Set("/changed", []byte("v2"), "")
			o.SetTolerances("/tol", httpx.Tolerances{Delta: 9 * time.Second})
			var body []byte
			for _, k := range []string{"/same", "/changed", "/missing", "/tol", "/a%20b"} {
				body = httpx.AppendAuditLine(body, httpx.AuditLine{Key: k, Since: since, Token: httpx.CacheControlToken("")})
			}
			post := func(path string) *httptest.ResponseRecorder {
				req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
				req.Header.Set("Content-Type", httpx.AuditContentType)
				rec := httptest.NewRecorder()
				o.ServeHTTP(rec, req)
				return rec
			}
			before := o.Stats()
			if rec := post(httpx.AuditPath); rec.Code != http.StatusOK || rec.Body.String() != "/changed\n/missing\n/tol\n" {
				t.Fatalf("answer %d %q, want /changed, /missing and /tol listed", rec.Code, rec.Body.String())
			}
			after := o.Stats()
			if after.Polls-before.Polls != 2 || after.NotModified-before.NotModified != 2 || after.AuditBatches-before.AuditBatches != 1 {
				t.Errorf("counted %d polls, %d 304s and %d batches, want 2, 2 and 1",
					after.Polls-before.Polls, after.NotModified-before.NotModified, after.AuditBatches-before.AuditBatches)
			}
			if rec := post("/events"); rec.Code != http.StatusMethodNotAllowed || o.Stats().AuditBatches != after.AuditBatches {
				t.Errorf("a batch on the event path answered %d, want a 405 and no batch", rec.Code)
			}
		})
	}
}

// TestDeltaAnswer: a GET asking for a delta (A-IM) from the previous
// version is answered 226 with the change and every header its 200
// carries; the change applies to the previous body. A GET without A-IM,
// from an older version, a HEAD, and the first version are answered as
// plain GETs.
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
	for _, h := range []string{"Last-Modified", "Cache-Control", httpx.HeaderModificationHistory, "Content-Type"} {
		if got, want := rec.Header().Get(h), plain.Header().Get(h); got != want {
			t.Errorf("226 %s = %q, the 200 says %q", h, got, want)
		}
	}
	body, err := push.ApplyDeltaAnswer(rec.Header(), v1, rec.Body.Bytes())
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
	if st := o.Stats(); st.DeltaServes != 1 || st.Polls != 6 {
		t.Errorf("delta serves %d, polls %d; want 1 and 6", st.DeltaServes, st.Polls)
	}
}
