package webproxy

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"testing"
	"time"

	"broadway/internal/httpx"
	"broadway/internal/webserver"
)

// wireTransport answers every request from an in-process handler, the
// response serialized and parsed back as a client would read it off the
// wire, so each one carries header strings of its own.
type wireTransport struct{ h http.Handler }

func (t wireTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	var wire bytes.Buffer
	if err := rec.Result().Write(&wire); err != nil {
		return nil, err
	}
	return http.ReadResponse(bufio.NewReader(&wire), req)
}

// discardWriter is a ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header)
	}
	return w.h
}
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestEntryOverheadCoversFootprint holds the byte ledger to what a
// resident really costs: 20k small objects admitted through ServeHTTP may
// occupy no more heap per resident, beyond key and body, than the
// entryOverhead the ledger charges for each, so a MaxBytes-bounded cache
// stays within its budget. Every request is built inside the measured
// window and dropped there, as a served request is.
func TestEntryOverheadCoversFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("admits 20k objects")
	}
	const n = 20000
	origin := webserver.NewOrigin()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("/obj/%06d", i)
		origin.Set(keys[i], fmt.Appendf(nil, "body %010d", i), "text/plain")
		origin.SetTolerances(keys[i], httpx.Tolerances{Delta: time.Hour})
	}
	u, _ := url.Parse("http://origin.invalid")
	px, err := New(Config{
		Origin:       u,
		Client:       &http.Client{Transport: wireTransport{origin}},
		DefaultDelta: time.Hour,
		Bounds:       noRefreshBounds,
		MaxObjects:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	w := &discardWriter{}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	payload := 0
	for _, key := range keys {
		w.h = nil
		px.ServeHTTP(w, httptest.NewRequest(http.MethodGet, key, nil))
		payload += len(key) + len("body 0000000000")
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(px)

	if px.Len() != n {
		t.Fatalf("%d residents, want %d", px.Len(), n)
	}
	perResident := (float64(after.HeapAlloc) - float64(before.HeapAlloc) - float64(payload)) / n
	t.Logf("%.0f B per resident beyond key and body; the ledger charges %d", perResident, entryOverhead)
	if perResident > entryOverhead {
		t.Errorf("a resident occupies %.0f B beyond key and body, more than the %d B entryOverhead charges", perResident, entryOverhead)
	}
}
