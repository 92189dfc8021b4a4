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

// BenchmarkOriginAuditBatch answers an audit batch of 128 keys with the
// history extension on, one key in four changed since the child's copy by
// one update (so a delta from the child's version exists), as a pull-mode
// pass finds them. "plain" posts without A-IM, so every changed key is
// listed; "inline" asks for delta-encoded answers.
func BenchmarkOriginAuditBatch(b *testing.B) {
	const keys = 128
	clk := newFakeClock()
	o := NewOrigin(WithClock(clk.Now), WithHistoryExtension(true))
	body := bytes.Repeat([]byte("a body of some length, long enough to pay for a delta. "), 20)
	for i := 0; i < keys; i++ {
		o.Set(fmt.Sprintf("/obj/%d", i), body, "")
	}
	since := clk.Now()
	clk.Advance(time.Minute)
	var batch []byte
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("/obj/%d", i)
		if i%4 == 0 {
			o.Set(key, append([]byte("changed: "), body...), "")
		}
		batch = httpx.AppendAuditLine(batch, httpx.AuditLine{Key: key, Since: since, Token: httpx.CacheControlToken("")})
	}
	for _, mode := range []string{"plain", "inline"} {
		b.Run(mode, func(b *testing.B) {
			req := httptest.NewRequest(http.MethodPost, httpx.AuditPath, nil)
			req.Header.Set("Content-Type", httpx.AuditContentType)
			if mode == "inline" {
				req.Header.Set(push.HeaderAIM, push.DeltaIM)
			}
			w := &discardWriter{h: make(http.Header)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req.Body, req.ContentLength = io.NopCloser(bytes.NewReader(batch)), int64(len(batch))
				clear(w.h)
				o.ServeHTTP(w, req)
			}
		})
	}
}
