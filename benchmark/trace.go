package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Headers the traced run adds: the client's request id, and the span that
// caused an upstream request.
const (
	benchIDHeader     = "X-Bench-Id"
	benchParentHeader = "X-Bench-Parent"
)

// Span names. A layer's metric is the median self time of its spans.
const (
	spanRead        = "loadgen.read"
	spanServeHit    = "webproxy.serve_hit"
	spanServe304    = "webproxy.serve_304"
	spanServeHead   = "webproxy.serve_head"
	spanServeMiss   = "webproxy.serve_miss"
	spanUpstream    = "webproxy.upstream_fetch"
	spanRefresh     = "webproxy.refresh_fetch"
	spanOriginServe = "webserver.serve"
	spanUpdate      = "update.propagation"
	spanSet         = "webserver.set"
	spanHopOrigRoot = "push.hop_origin_root"
	spanHopRootMid  = "push.hop_root_mid"
	spanHopMidLeaf  = "push.hop_mid_leaf"
	spanHopOrigLeaf = "push.hop_origin_leaf"
	updateTraceBase = uint64(1) << 40 // update traces sit above request ids
	tracerIDBase    = uint64(1) << 41 // span ids the tracer hands out sit above both
)

// span is one timed interval at a layer boundary. Spans of one request or
// one update share Trace; Parent is the ID of the span that caused this one,
// 0 for a root. Start and End are nanoseconds since the run began.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent uint64 `json:"parent"`
	ID     uint64 `json:"id"`
	Trace  uint64 `json:"trace"`

	start, end time.Time
}

// tracer buffers spans in memory while on is set. The wrappers it hands out
// are installed for the whole traced run and pass straight through while it
// is off.
type tracer struct {
	on     atomic.Bool
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span

	// inflight maps a key being served at the leaf to the serve span, so an
	// upstream fetch can tell a miss it serves from a background refresh.
	inflight sync.Map // path -> inflightRead
}

type inflightRead struct{ span, trace uint64 }

func newTracer() *tracer {
	t := &tracer{}
	t.nextID.Store(tracerIDBase)
	return t
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// statusWriter remembers the status a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// wrapLeaf times Proxy.ServeHTTP for requests that carry an id.
func (t *tracer) wrapLeaf(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		idStr := r.Header.Get(benchIDHeader)
		if idStr == "" || !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		trace, _ := strconv.ParseUint(idStr, 10, 64)
		id := t.nextID.Add(1)
		t.inflight.Store(r.URL.Path, inflightRead{span: id, trace: trace})
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		end := time.Now()
		t.inflight.Delete(r.URL.Path)
		name := spanServeHit
		switch xc := sw.Header().Get("X-Cache"); {
		case xc != "HIT" && xc != "GRACE":
			name = spanServeMiss
		case sw.status == http.StatusNotModified:
			name = spanServe304
		case r.Method == http.MethodHead:
			name = spanServeHead
		}
		t.add(span{Name: name, Trace: trace, ID: id, Parent: trace, start: start, end: end})
	})
}

// wrapOrigin times the origin's handler; the parent is the upstream fetch
// that carried its id, when one did.
func (t *tracer) wrapOrigin(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || r.URL.Path == "/events" {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(benchParentHeader), 10, 64)
		trace, _ := strconv.ParseUint(r.Header.Get(benchIDHeader), 10, 64)
		start := time.Now()
		next.ServeHTTP(w, r)
		t.add(span{Name: spanOriginServe, Trace: trace, ID: t.nextID.Add(1), Parent: parent, start: start, end: time.Now()})
	})
}

// wrapLeafClient times the leaf's upstream requests until their bodies are
// closed: a child of the serve span when a client read of that key is in
// flight (a miss), a root span otherwise (a refresh poll).
func (t *tracer) wrapLeafClient(next http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if !t.on.Load() {
			return next.RoundTrip(req)
		}
		s := span{Name: spanRefresh, ID: t.nextID.Add(1)}
		if v, ok := t.inflight.Load(req.URL.Path); ok {
			in := v.(inflightRead)
			s.Name, s.Parent, s.Trace = spanUpstream, in.span, in.trace
		}
		req = req.Clone(req.Context())
		req.Header.Set(benchParentHeader, strconv.FormatUint(s.ID, 10))
		req.Header.Set(benchIDHeader, strconv.FormatUint(s.Trace, 10))
		s.start = time.Now()
		resp, err := next.RoundTrip(req)
		if err != nil {
			s.end = time.Now()
			t.add(s)
			return nil, err
		}
		resp.Body = &spanBody{ReadCloser: resp.Body, t: t, s: s}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// spanBody ends its span when the response body is closed.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *spanBody) Close() error {
	b.once.Do(func() {
		b.s.end = time.Now()
		b.t.add(b.s)
	})
	return b.ReadCloser.Close()
}

// updateSpans turns the tracked updates of the traced phase into spans: a
// root from Set to leaf visibility, the Set call, and one span per hop
// between successive nodes' observations. With pass-through relays a child
// can install a pushed value before its parent reports its own install, so a
// hop may end before it starts; it is recorded as measured.
func updateSpans(tk *tracker, ups []*update, hops int, nextID func() uint64) []span {
	var out []span
	for _, u := range ups {
		leafAt, ok := tk.leafSeen(u)
		if !ok {
			continue
		}
		trace := updateTraceBase + u.id
		root := nextID()
		out = append(out,
			span{Name: spanUpdate, Trace: trace, ID: root, start: u.setAt, end: leafAt},
			span{Name: spanSet, Trace: trace, ID: nextID(), Parent: root, start: u.setAt, end: u.setDone})
		if hops == 1 {
			out = append(out, span{Name: spanHopOrigLeaf, Trace: trace, ID: nextID(), Parent: root, start: u.setAt, end: leafAt})
			continue
		}
		rootAt, ok1 := tk.seenAt(u, atRoot)
		midAt, ok2 := tk.seenAt(u, atMid)
		if !ok1 || !ok2 {
			continue
		}
		out = append(out,
			span{Name: spanHopOrigRoot, Trace: trace, ID: nextID(), Parent: root, start: u.setAt, end: rootAt},
			span{Name: spanHopRootMid, Trace: trace, ID: nextID(), Parent: root, start: rootAt, end: midAt},
			span{Name: spanHopMidLeaf, Trace: trace, ID: nextID(), Parent: root, start: midAt, end: leafAt})
	}
	return out
}

// stamp fills the exported offsets from the wall-clock fields.
func stamp(spans []span, epoch time.Time) {
	for i := range spans {
		spans[i].Start = int64(spans[i].start.Sub(epoch))
		spans[i].End = int64(spans[i].end.Sub(epoch))
	}
}

// selfTimes returns, per span name, each span's self time in µs: its
// duration minus the part of its interval that its child spans cover.
func selfTimes(spans []span) map[string][]float64 {
	type iv struct{ lo, hi int64 }
	children := make(map[uint64][]iv)
	for _, s := range spans {
		if s.Parent != 0 && s.End > s.Start {
			children[s.Parent] = append(children[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		self := s.End - s.Start
		if kids := children[s.ID]; len(kids) > 0 && self > 0 {
			sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
			covered, edge := int64(0), s.Start
			for _, k := range kids {
				lo, hi := max(k.lo, edge), min(k.hi, s.End)
				if hi > lo {
					covered += hi - lo
					edge = hi
				}
			}
			self -= covered
		}
		out[s.Name] = append(out[s.Name], float64(self)/1e3)
	}
	return out
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
