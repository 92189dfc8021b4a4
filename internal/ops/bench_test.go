package ops

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"broadway/internal/webproxy"
	"broadway/internal/webserver"
)

// BenchmarkMetricsScrape renders one /metrics exposition for an edge node
// that relays events and hosts its origin in process: every family the
// stats structs declare, labelled series included.
func BenchmarkMetricsScrape(b *testing.B) {
	origin := webserver.NewOrigin(webserver.WithPushEvents(""))
	srv := httptest.NewServer(origin)
	defer srv.Close()
	up, _ := url.Parse(srv.URL)
	px, err := webproxy.New(webproxy.Config{Origin: up, RelayEvents: true})
	if err != nil {
		b.Fatal(err)
	}
	defer px.Close()
	for i := 0; i < 64; i++ {
		path := fmt.Sprintf("/obj/%d", i)
		origin.Set(path, []byte("body"), "")
		px.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil))
	}
	h, err := NewHandler(Config{Proxy: px, Origin: origin})
	if err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	b.ReportAllocs()
	for b.Loop() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}
