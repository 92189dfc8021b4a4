package httpx

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func auditPost(body []byte, contentType string) *http.Request {
	req := httptest.NewRequest(http.MethodPost, AuditPath, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	return req
}

// TestAuditBatchRoundTrip: lines and answers parse back to what was
// encoded, and since travels at the second resolution of an HTTP date.
func TestAuditBatchRoundTrip(t *testing.T) {
	since := time.Date(2001, 8, 7, 13, 4, 0, 0, time.UTC)
	in := []AuditLine{
		{Key: "/s0/k1", Since: since.Add(700 * time.Millisecond), Token: CacheControlToken("")},
		{Key: "/a%20b?x=1&y=2", Since: since, Token: CacheControlToken("x-cc-delta=7")},
	}
	var body []byte
	for _, l := range in {
		body = AppendAuditLine(body, l)
	}
	out, err := ParseAuditBatch(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("parsed %d lines, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Key != in[i].Key || !out[i].Since.Equal(since) || out[i].Token != in[i].Token {
			t.Errorf("line %d parsed as %+v from %+v", i, out[i], in[i])
		}
	}
	if CacheControlToken("x-cc-delta=7") == CacheControlToken("x-cc-delta=8") {
		t.Error("distinct Cache-Control values share a token")
	}
	for _, bad := range []string{"/a 1 0123abcd", "a 1 0123abcd\n", "/a 01 0123abcd\n", "/a 1 0123ABCD\n", "/a\tb 1 0123abcd\n", "/a 1 0123abcd extra\n"} {
		if _, err := ParseAuditBatch([]byte(bad)); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestServeAuditBatch: the answer lists exactly the keys not vouched for;
// a batch over either cap is a 413 and a malformed one a 400; only a POST
// on AuditPath with the batch media type is a batch.
func TestServeAuditBatch(t *testing.T) {
	var body []byte
	for _, k := range []string{"/same", "/changed", "/same2"} {
		body = AppendAuditLine(body, AuditLine{Key: k, Since: time.Unix(1, 0), Token: CacheControlToken("")})
	}
	rec := httptest.NewRecorder()
	req := auditPost(body, AuditContentType)
	if !IsAuditBatch(req) {
		t.Fatal("batch not recognised")
	}
	ServeAuditBatch(rec, req, func(lines []AuditLine) (answer []byte) {
		for _, l := range lines {
			if l.Key == "/changed" {
				answer = AppendAuditAnswer(answer, AuditAnswer{Key: l.Key})
			}
		}
		return answer
	})
	if rec.Code != http.StatusOK || rec.Body.String() != "/changed\n" || rec.Header().Get("Content-Type") != AuditContentType {
		t.Errorf("answer %d %q (%s), want 200 listing /changed", rec.Code, rec.Body.String(), rec.Header().Get("Content-Type"))
	}

	var many []byte
	for i := 0; i <= MaxAuditLines; i++ {
		many = AppendAuditLine(many, AuditLine{Key: fmt.Sprintf("/k%d", i), Since: time.Unix(1, 0), Token: 0})
	}
	huge := AppendAuditLine(nil, AuditLine{Key: "/" + strings.Repeat("k", MaxAuditBody), Since: time.Unix(1, 0), Token: 0})
	for name, c := range map[string]struct {
		body []byte
		code int
	}{
		"over the line cap": {many, http.StatusRequestEntityTooLarge},
		"over the byte cap": {huge, http.StatusRequestEntityTooLarge},
		"malformed":         {[]byte("/k 1\n"), http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		ServeAuditBatch(rec, auditPost(c.body, AuditContentType), func([]AuditLine) []byte { return nil })
		if rec.Code != c.code {
			t.Errorf("%s: %d, want %d", name, rec.Code, c.code)
		}
	}
	if IsAuditBatch(auditPost(body, "text/plain")) || IsAuditBatch(httptest.NewRequest(http.MethodGet, AuditPath, nil)) {
		t.Error("a request without the batch media type taken for a batch")
	}
	elsewhere := auditPost(body, AuditContentType)
	elsewhere.URL.Path = "/events"
	if IsAuditBatch(elsewhere) {
		t.Error("a batch off AuditPath taken for a batch")
	}
}

// TestReadAuditBody: whatever length a body declares — its own, none, a
// short or a long one — the read returns the body, at most one byte past
// MaxAuditBody; a true length sizes the buffer once.
func TestReadAuditBody(t *testing.T) {
	body := bytes.Repeat([]byte("/k 1 00000000\n"), 300)
	over := bytes.Repeat([]byte("x"), MaxAuditBody+100)
	for _, c := range []struct {
		name string
		body []byte
		n    int64
		want int
	}{
		{"its own length", body, int64(len(body)), len(body)},
		{"no length", body, -1, len(body)},
		{"a short length", body, 10, len(body)},
		{"a long length", body, int64(len(body)) + 1000, len(body)},
		{"a length past the cap", body, MaxAuditBody + 2, len(body)},
		{"empty", nil, 0, 0},
		{"over the cap, its own length", over, int64(len(over)), MaxAuditBody + 1},
		{"over the cap, a short length", over, 100, MaxAuditBody + 1},
	} {
		got, err := ReadAuditBody(bytes.NewReader(c.body), c.n)
		if err != nil || len(got) != c.want || !bytes.Equal(got, c.body[:c.want]) {
			t.Errorf("%s: read %d bytes, %v; want %d", c.name, len(got), err, c.want)
		}
	}
	r := bytes.NewReader(body)
	if allocs := testing.AllocsPerRun(20, func() {
		r.Reset(body)
		ReadAuditBody(r, int64(len(body)))
	}); allocs != 1 {
		t.Errorf("a body of its declared length read in %.0f allocations, want 1", allocs)
	}
}

// TestWriteAnswer: every status carries Last-Modified, Cache-Control and
// history; only one with a body carries Content-Type, and a HEAD carries
// the body's length in its place.
func TestWriteAnswer(t *testing.T) {
	lm := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	for _, tc := range []struct {
		method, body, length string
		status               int
		contentType          string
	}{
		{http.MethodGet, "hello", "", http.StatusOK, "text/plain"},
		{http.MethodHead, "", "5", http.StatusOK, "text/plain"},
		{http.MethodGet, "", "", http.StatusNotModified, ""},
		{http.MethodHead, "", "", http.StatusNotModified, ""},
		{http.MethodHead, "", "5", http.StatusNotFound, "text/plain"},
	} {
		a := AuditAnswer{Status: tc.status, LastModified: lm, History: []time.Time{lm}, ContentType: "text/plain", CacheControl: "x-cc-delta=5", Body: []byte("hello")}
		rec := httptest.NewRecorder()
		rec.Header().Set("Cache-Control", "public")
		WriteAnswer(rec, httptest.NewRequest(tc.method, "/k", nil), &a)
		h := rec.Header()
		if rec.Code != tc.status || rec.Body.String() != tc.body || h.Get("Content-Length") != tc.length || h.Get("Content-Type") != tc.contentType {
			t.Errorf("%s %d: %d %q, length %q, type %q; want %q, length %q, type %q", tc.method, tc.status,
				rec.Code, rec.Body, h.Get("Content-Length"), h.Get("Content-Type"), tc.body, tc.length, tc.contentType)
		}
		if h.Get("Last-Modified") != lm.Format(http.TimeFormat) || h.Get("Cache-Control") != "public, x-cc-delta=5" || h.Get(HeaderModificationHistory) != FormatHistory(a.History) {
			t.Errorf("%s %d: headers %v", tc.method, tc.status, h)
		}
	}
	rec := httptest.NewRecorder()
	WriteAnswer(rec, httptest.NewRequest(http.MethodGet, "/k", nil), &AuditAnswer{Status: http.StatusOK})
	if h := rec.Header(); h.Get("Last-Modified") != "" || h.Get("Cache-Control") != "" || h.Get("Content-Type") != "" {
		t.Errorf("an answer with no Last-Modified, Cache-Control or Content-Type wrote %v", h)
	}
}
