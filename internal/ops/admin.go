package ops

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"broadway/internal/webproxy"
	"broadway/internal/webserver"
)

// EvictResult is the /admin/evict response body.
type EvictResult struct {
	Key     string `json:"key"`
	Evicted bool   `json:"evicted"`
}

// KillStreamsResult is the /admin/kill-streams response body, reporting
// which stream sets the call could reach on this node.
type KillStreamsResult struct {
	RelayKilled  bool `json:"relay_killed"`
	OriginKilled bool `json:"origin_killed"`
}

// StatsDump is the /admin/stats response body: every stats struct the
// node exposes, verbatim JSON. Sections for absent components are
// omitted.
type StatsDump struct {
	Cache    *webproxy.CacheStats     `json:"cache,omitempty"`
	Upstream *webproxy.UpstreamStatus `json:"upstream,omitempty"`
	Push     *webproxy.PushStats      `json:"push,omitempty"`
	Relay    *webproxy.RelayStats     `json:"relay,omitempty"`
	Disk     *webproxy.DiskStats      `json:"disk,omitempty"`
	Origin   *webserver.OriginStats   `json:"origin,omitempty"`
}

// serveAdmin routes the (already authorized) admin API.
func (h *Handler) serveAdmin(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/admin/pprof" || strings.HasPrefix(r.URL.Path, "/admin/pprof/") {
		h.adminPprof(w, r)
		return
	}
	switch r.URL.Path {
	case "/admin/evict":
		if !requireMethod(w, r, http.MethodPost) {
			return
		}
		h.adminEvict(w, r)
	case "/admin/kill-streams":
		if !requireMethod(w, r, http.MethodPost) {
			return
		}
		h.adminKillStreams(w, r)
	case "/admin/tolerance":
		if !requireMethod(w, r, http.MethodPost) {
			return
		}
		h.adminTolerance(w, r)
	case "/admin/stats":
		if !allowReadMethods(w, r) {
			return
		}
		h.adminStats(w, r)
	default:
		http.NotFound(w, r)
	}
}

// requireMethod admits exactly one method, answering everything else
// with a conformant 405.
func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	return false
}

// adminPprof serves the runtime profiles under /admin/pprof/ — behind
// the same bearer token as the rest of the admin API and deliberately
// OFF the unauthenticated scrape paths (/metrics, /healthz), so the
// contention and allocation claims the hub benchmarks make are
// verifiable against a production process without exposing goroutine
// dumps to anything that can scrape it. The handlers come from
// net/http/pprof but are routed here explicitly; nothing in the process
// serves http.DefaultServeMux, so the import's side-effect
// registrations are inert.
func (h *Handler) adminPprof(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/admin/pprof")
	name = strings.TrimPrefix(name, "/")
	switch name {
	case "":
		// pprof.Index resolves profile names against the /debug/pprof/
		// prefix it was written for; hand it the path shape it expects.
		// Its index links are relative, so they resolve under this
		// prefix too.
		r2 := r.Clone(r.Context())
		r2.URL.Path = "/debug/pprof/"
		pprof.Index(w, r2)
	case "cmdline":
		pprof.Cmdline(w, r)
	case "profile":
		pprof.Profile(w, r)
	case "symbol":
		pprof.Symbol(w, r)
	case "trace":
		pprof.Trace(w, r)
	default:
		pprof.Handler(name).ServeHTTP(w, r)
	}
}

// adminEvict drops one cached object by key, mirroring Proxy.Evict: the
// next request re-fetches from upstream. A key resident in neither tier
// answers 404 (still JSON), so an operator can tell a typo from a real
// eviction.
func (h *Handler) adminEvict(w http.ResponseWriter, r *http.Request) {
	p := h.cfg.Proxy
	if p == nil {
		http.Error(w, "no proxy on this node", http.StatusUnprocessableEntity)
		return
	}
	key := r.URL.Query().Get("key")
	if key == "" {
		http.Error(w, "missing key parameter", http.StatusBadRequest)
		return
	}
	code := http.StatusOK
	evicted := p.Evict(key)
	if !evicted {
		code = http.StatusNotFound
	}
	writeJSON(w, code, EvictResult{Key: key, Evicted: evicted})
}

// adminTolerance applies a runtime Δ/Δv override to one resident
// object: POST /admin/tolerance?key=<key>&dt=<duration>&dv=<float>.
// dt is the time tolerance (Go duration syntax, e.g. 30s); dv the
// value tolerance; either may be omitted to leave that bound alone,
// but at least one must be supplied. The override is journaled through
// the disk tier (a restart rehydrates it) and the next origin response
// carrying tolerance directives supersedes it.
func (h *Handler) adminTolerance(w http.ResponseWriter, r *http.Request) {
	p := h.cfg.Proxy
	if p == nil {
		http.Error(w, "no proxy on this node", http.StatusUnprocessableEntity)
		return
	}
	q := r.URL.Query()
	key := q.Get("key")
	if key == "" {
		http.Error(w, "missing key parameter", http.StatusBadRequest)
		return
	}
	var dt time.Duration
	if s := q.Get("dt"); s != "" {
		v, err := time.ParseDuration(s)
		if err != nil || v <= 0 {
			http.Error(w, "dt must be a positive duration", http.StatusBadRequest)
			return
		}
		dt = v
	}
	var dv float64
	if s := q.Get("dv"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			http.Error(w, "dv must be a positive number", http.StatusBadRequest)
			return
		}
		dv = v
	}
	if dt == 0 && dv == 0 {
		http.Error(w, "supply dt and/or dv", http.StatusBadRequest)
		return
	}
	res, ok := p.OverrideTolerance(key, dt, dv)
	if !ok {
		writeJSON(w, http.StatusNotFound, webproxy.ToleranceOverride{Key: key})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// adminKillStreams severs every push stream this node owns — the relay
// hub's downstream subscribers and/or the origin hub's — without
// disabling the endpoints, so clients reconnect and resume. It is the
// operational form of the chaos tests' transient network cut.
func (h *Handler) adminKillStreams(w http.ResponseWriter, r *http.Request) {
	res := KillStreamsResult{}
	if p := h.cfg.Proxy; p != nil && p.RelayStats().Enabled {
		p.KillRelayStreams()
		res.RelayKilled = true
	}
	if o := h.cfg.Origin; o != nil && o.Stats().PushEnabled {
		o.KillPushStreams()
		res.OriginKilled = true
	}
	writeJSON(w, http.StatusOK, res)
}

// adminStats dumps every stats struct as JSON — the machine-readable
// sibling of /metrics, with nothing flattened away.
func (h *Handler) adminStats(w http.ResponseWriter, r *http.Request) {
	dump := StatsDump{}
	if p := h.cfg.Proxy; p != nil {
		cs, us, ps, rs, ds := p.CacheStats(), p.UpstreamStatus(), p.PushStats(), p.RelayStats(), p.DiskStats()
		dump.Cache = &cs
		dump.Upstream = &us
		dump.Push = &ps
		dump.Relay = &rs
		dump.Disk = &ds
	}
	if o := h.cfg.Origin; o != nil {
		os := o.Stats()
		dump.Origin = &os
	}
	if r.Method == http.MethodHead {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		return
	}
	writeJSON(w, http.StatusOK, dump)
}

// writeJSON renders v as indented JSON with the right headers.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
