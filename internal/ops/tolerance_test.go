package ops

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"broadway/internal/webproxy"
)

// TestAdminToleranceEndpoint drives POST /admin/tolerance end to end:
// parameter validation, the non-resident 404 (JSON, so a typo is
// distinguishable from a landed override), the applied override's
// echo, and its visibility in both /metrics and /admin/stats.
func TestAdminToleranceEndpoint(t *testing.T) {
	s := newOpsSetup(t, webproxy.Config{}, false, "")
	s.origin.Set("/obj", []byte("object body v1"), "")
	s.get(t, "/obj")

	// Method and parameter validation.
	if rec := s.do(http.MethodGet, "/admin/tolerance?key=/obj&dt=30s", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /admin/tolerance = %d", rec.Code)
	}
	bad := []string{
		"/admin/tolerance",                 // missing key
		"/admin/tolerance?dt=30s",          // missing key, dt present
		"/admin/tolerance?key=/obj",        // neither dt nor dv
		"/admin/tolerance?key=/obj&dt=x",   // unparseable duration
		"/admin/tolerance?key=/obj&dt=-5s", // non-positive duration
		"/admin/tolerance?key=/obj&dv=0",   // non-positive value tolerance
		"/admin/tolerance?key=/obj&dv=NaN",
	}
	for _, target := range bad {
		if rec := s.do(http.MethodPost, target, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", target, rec.Code)
		}
	}
	if got := s.proxy.CacheStats().ToleranceOverrides; got != 0 {
		t.Fatalf("rejected requests applied overrides: %d", got)
	}

	// Non-resident key: 404, still JSON-shaped.
	rec := s.do(http.MethodPost, "/admin/tolerance?key=/nope&dt=30s", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("non-resident override = %d (%s)", rec.Code, rec.Body)
	}
	var missed webproxy.ToleranceOverride
	if err := json.Unmarshal(rec.Body.Bytes(), &missed); err != nil {
		t.Fatal(err)
	}
	if missed.Key != "/nope" || missed.Delta != 0 {
		t.Fatalf("non-resident result = %+v", missed)
	}

	// A resident key takes the override and echoes the landed bounds.
	rec = s.do(http.MethodPost, "/admin/tolerance?key=/obj&dt=45s", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("override = %d (%s)", rec.Code, rec.Body)
	}
	var res webproxy.ToleranceOverride
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Key != "/obj" || res.Delta != 45*time.Second {
		t.Fatalf("override result = %+v", res)
	}

	// The application is visible on every surface: the counter, the
	// flattened metric, and the verbatim stats dump.
	if got := s.proxy.CacheStats().ToleranceOverrides; got != 1 {
		t.Fatalf("ToleranceOverrides = %d", got)
	}
	if v, ok := s.scrape(t).Value("broadway_cache_tolerance_overrides_total"); !ok || v != 1 {
		t.Errorf("broadway_cache_tolerance_overrides_total = %v (ok=%v)", v, ok)
	}
	srec := s.do(http.MethodGet, "/admin/stats", nil)
	if srec.Code != http.StatusOK {
		t.Fatalf("/admin/stats = %d", srec.Code)
	}
	var dump StatsDump
	if err := json.Unmarshal(srec.Body.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Cache == nil || dump.Cache.ToleranceOverrides != 1 {
		t.Errorf("stats dump tolerance overrides: %+v", dump.Cache)
	}
}
