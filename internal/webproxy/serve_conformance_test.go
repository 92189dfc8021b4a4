package webproxy

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// This file is the HTTP-conformance battery for the serve path (RFC
// 9110): HEAD support on cached objects, Allow headers on genuine 405s,
// and the generic 502 whose upstream detail lives on the operator
// surface instead of the client response.

// TestHEADServesCachedHeadersWithoutBody: a HEAD on a cached object must
// answer with the entry's headers — Content-Type, Content-Length,
// Last-Modified, X-Cache: HIT — and no body, instead of the 405 the
// proxy used to return.
func TestHEADServesCachedHeadersWithoutBody(t *testing.T) {
	h := newHarness(t, topology{})
	px := h.leaf()
	h.origin.Set("/page", []byte("hello head"), "text/plain")
	px.get("/page") // warm the cache

	code, body, hdr := px.do(httptest.NewRequest(http.MethodHead, "/page", nil))
	if code != http.StatusOK {
		t.Fatalf("HEAD on cached object = %d", code)
	}
	if len(body) != 0 {
		t.Errorf("HEAD carried %d body bytes: %q", len(body), body)
	}
	if got := hdr.Get("X-Cache"); got != "HIT" {
		t.Errorf("X-Cache = %q, want HIT", got)
	}
	if got := hdr.Get("Content-Type"); got != "text/plain" {
		t.Errorf("Content-Type = %q", got)
	}
	if got := hdr.Get("Content-Length"); got != strconv.Itoa(len("hello head")) {
		t.Errorf("Content-Length = %q, want the cached body's length", got)
	}
	if hdr.Get("Last-Modified") == "" {
		t.Error("HEAD response lost Last-Modified")
	}
}

// TestHEADOnColdObjectAdmits: a HEAD miss runs the normal admission path
// (the object becomes resident) but still returns no body.
func TestHEADOnColdObjectAdmits(t *testing.T) {
	h := newHarness(t, topology{})
	px := h.leaf()
	h.origin.Set("/cold", []byte("cold body"), "text/plain")

	code, body, hdr := px.do(httptest.NewRequest(http.MethodHead, "/cold", nil))
	if code != http.StatusOK || len(body) != 0 {
		t.Fatalf("HEAD miss = %d with %d body bytes", code, len(body))
	}
	if hdr.Get("X-Cache") != "MISS" {
		t.Errorf("X-Cache = %q, want MISS", hdr.Get("X-Cache"))
	}
	// The admission was real: a follow-up GET is a hit.
	if _, _, hdr := px.get("/cold"); hdr.Get("X-Cache") != "HIT" {
		t.Errorf("GET after HEAD admission X-Cache = %q, want HIT", hdr.Get("X-Cache"))
	}
}

// TestMethodNotAllowedSetsAllow: genuine 405s carry the Allow header, on
// the proxy and on the origin's serve path alike.
func TestMethodNotAllowedSetsAllow(t *testing.T) {
	h := newHarness(t, topology{})
	h.origin.Set("/page", []byte("x"), "text/plain")

	for name, target := range map[string]http.Handler{"proxy": h.leaf(), "origin": h.origin} {
		rec := httptest.NewRecorder()
		target.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/page", strings.NewReader("nope")))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s POST = %d, want 405", name, rec.Code)
		}
		if allow := rec.Header().Get("Allow"); allow != "GET, HEAD" {
			t.Errorf("%s 405 Allow = %q, want \"GET, HEAD\"", name, allow)
		}
	}
}

// TestBadGatewayBodyIsGeneric: a failed upstream fetch must not leak the
// raw error string to the client; the detail is recorded on
// UpstreamStatus (and counted on CacheStats) for the operator surface.
func TestBadGatewayBodyIsGeneric(t *testing.T) {
	h := newHarness(t, topology{})
	px := h.leaf()
	px.up.cut()

	code, body, _ := px.get("/unreachable")
	if code != http.StatusBadGateway {
		t.Fatalf("miss against dead origin = %d", code)
	}
	if strings.TrimSpace(body) != "upstream fetch failed" {
		t.Errorf("502 body = %q, want the generic message only", body)
	}

	us := px.UpstreamStatus()
	if us.Errors == 0 {
		t.Error("UpstreamStatus.Errors not incremented")
	}
	if us.LastError == "" {
		t.Error("UpstreamStatus.LastError empty; the detail must live on the operator surface")
	}
	if us.LastErrorAt.IsZero() || !us.LastErrorAt.After(us.LastOKAt) {
		t.Errorf("UpstreamStatus times: err at %v, ok at %v", us.LastErrorAt, us.LastOKAt)
	}
	if cs := px.CacheStats(); cs.UpstreamErrors != us.Errors {
		t.Errorf("CacheStats.UpstreamErrors = %d, UpstreamStatus.Errors = %d", cs.UpstreamErrors, us.Errors)
	}
}
