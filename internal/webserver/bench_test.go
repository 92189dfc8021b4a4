package webserver

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// discardWriter is a ResponseWriter that keeps nothing but its header.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// BenchmarkOriginConditionalGet serves the conditional GET of a poll that
// finds its object unchanged, after 1000 updates to it (the origin keeps
// the last httpx.MaxHistoryEntries of them as its history), with the
// history extension on.
func BenchmarkOriginConditionalGet(b *testing.B) {
	clk := newFakeClock()
	o := NewOrigin(WithClock(clk.Now), WithHistoryExtension(true))
	for i := 0; i < 1000; i++ {
		o.Set("/obj", []byte("body"), "")
		clk.Advance(time.Second)
	}
	req := httptest.NewRequest(http.MethodGet, "/obj", nil)
	req.Header.Set("If-Modified-Since", clk.Now().UTC().Format(http.TimeFormat))
	w := &discardWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(w.h)
		o.ServeHTTP(w, req)
	}
}
