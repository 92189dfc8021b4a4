package webproxy

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"broadway/internal/core"
	"broadway/internal/httpx"
	"broadway/internal/push"
	"broadway/internal/webserver"
)

// This file is the one test harness for the live stack. Every test that
// builds a topology — an origin and one proxy, a relay chain, a fleet —
// builds it here and synchronises through quiesce, never by waiting on
// the wall clock: the live proxy is held to the discipline the paper's
// results come from (§6.1.1), trace-driven replay on a simulated clock.
// Four parts:
//
//   - simClock, a stepped virtual clock shared by the origin and every
//     proxy. Nothing polls unless a test moves it (stepTo, advance).
//   - link, an in-memory connection from one client to one upstream
//     handler: an http.RoundTripper that calls the handler directly.
//     Each proxy's Config.Client carries its own link, so its push
//     subscription streams through it too, through a pipe whose writer
//     implements Flush and SetWriteDeadline. A link counts requests and
//     bytes, and can fail a path with 503, hold a built reply, or cut
//     every connection.
//   - newHarness, the topology builder: an origin and a chain of proxies
//     below it, each inner one relaying events to the next. attach grows
//     the chain into a tree, watch adds raw subscribers.
//   - quiesce: every connected stream at its upstream's head with its
//     consumer idle, nothing in flight, nothing due — stable over two
//     passes.

// simClock is a virtual clock stepped by the test.
type simClock struct {
	base time.Time
	off  atomic.Int64 // nanoseconds since base
}

func newSimClock() *simClock {
	// A fixed, whole-second epoch: HTTP dates are second-granular and
	// determinism requires every run to see identical timestamps.
	return &simClock{base: time.Unix(1_700_000_000, 0)}
}

func (c *simClock) Now() time.Time { return c.base.Add(time.Duration(c.off.Load())) }

func (c *simClock) AdvanceTo(at time.Time) {
	d := at.Sub(c.base)
	for {
		cur := c.off.Load()
		if int64(d) <= cur || c.off.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// linkBase is the upstream URL every link answers. A loopback port that
// refuses connections: a request that bypassed its link fails at once,
// and never leaves the machine.
const linkBase = "http://127.0.0.1:1"

// errLinkCut is what a request on a cut link fails with, as a refused or
// reset connection would.
var errLinkCut = errors.New("link cut")

// link is an in-memory connection from one client to one upstream
// handler (see the file comment).
type link struct {
	h     http.Handler
	owner *node        // the proxy whose requests it carries; nil for a watcher
	bytes atomic.Int64 // request targets plus reply bodies, streams included

	mu       sync.Mutex
	requests map[string]int   // by path; a batched poll counts for its key's path too
	failing  map[string]bool  // paths answered 503
	hooks    map[string]*hook // each runs once, inside the next reply for its path
	down     bool             // cut: every request fails
	inflight int              // replies being built, hooks aside
	held     []heldReply      // the replies hooks are running in
	handlers int              // handler goroutines still running
	serving  map[*linkStream]bool
	attempts int // event-stream requests
	last     *linkStream
}

func newLink(h http.Handler, owner *node) *link {
	return &link{
		h: h, owner: owner,
		requests: make(map[string]int),
		failing:  make(map[string]bool),
		hooks:    make(map[string]*hook),
		serving:  make(map[*linkStream]bool),
	}
}

// heldReply is a reply a hook runs in: the cache keys it answers, one
// for a GET and every line's for an audit batch.
type heldReply struct {
	keys  []string
	batch bool
}

// RoundTrip hands req to the upstream handler. A reply is delivered once
// the handler returns, or, if it flushes first, as a stream.
func (l *link) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	l.bytes.Add(int64(len(req.URL.RequestURI())))
	batch := httpx.IsAuditBatch(req)
	var audits []httpx.AuditLine
	if batch && req.Body != nil {
		body, _ := io.ReadAll(req.Body)
		req.Body.Close()
		req.Body = io.NopCloser(bytes.NewReader(body))
		l.bytes.Add(int64(len(body)))
		audits, _ = httpx.ParseAuditBatch(body)
	}
	l.mu.Lock()
	l.requests[path]++
	if req.Header.Get("Accept") == "text/event-stream" {
		l.attempts++
	}
	attempt := l.attempts
	if l.down {
		l.mu.Unlock()
		return nil, errLinkCut
	}
	fail, hook := l.failing[path], l.hooks[path]
	delete(l.hooks, path)
	l.inflight++
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		l.inflight--
		l.mu.Unlock()
	}()
	if fail {
		return reply(req, http.StatusServiceUnavailable, http.Header{}, io.NopCloser(strings.NewReader("unavailable\n")), -1), nil
	}

	// The handler sees the request a server would: the target alone, and
	// a context that ends when the client goes away.
	ctx, cancel := context.WithCancel(req.Context())
	sreq := req.Clone(ctx)
	sreq.RequestURI = req.URL.RequestURI()
	sreq.URL, _ = url.ParseRequestURI(sreq.RequestURI)
	w := &linkWriter{l: l, attempt: attempt, ctx: ctx, cancel: cancel, header: make(http.Header), ready: make(chan struct{})}
	l.mu.Lock()
	l.handlers++
	l.mu.Unlock()
	go func() {
		l.h.ServeHTTP(w, sreq)
		w.finish()
	}()
	select {
	case <-w.ready:
	case <-req.Context().Done():
		cancel()
		return nil, req.Context().Err()
	}
	if s := w.s; s != nil {
		return reply(req, s.code, s.header, s, -1), nil
	}
	cancel()
	if hook != nil {
		held := heldReply{keys: []string{canonicalKey(req.URL)}}
		if batch {
			held = heldReply{batch: true}
			for _, a := range audits {
				held.keys = append(held.keys, a.Key)
			}
		}
		l.park(held, hook)
	}
	if batch && w.code == http.StatusOK && w.header.Get("Content-Type") == httpx.AuditContentType {
		l.countAudits(audits, w.body)
	}
	l.bytes.Add(int64(len(w.body)))
	return reply(req, w.code, w.header, io.NopCloser(bytes.NewReader(w.body)), int64(len(w.body))), nil
}

func reply(req *http.Request, code int, h http.Header, body io.ReadCloser, n int64) *http.Response {
	return &http.Response{
		Status: fmt.Sprintf("%d %s", code, http.StatusText(code)), StatusCode: code,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: h, Body: body, ContentLength: n, Request: req,
	}
}

// hook is a function a link runs inside a reply (see beforeReply).
type hook struct {
	fn   func()
	done chan struct{} // closed once fn has run and the reply moves on
}

// countAudits counts each key an audit batch's answer vouched for as one
// request for its path: the conditional GET the batch line stands for. A
// listed key is counted when its own GET follows.
func (l *link) countAudits(audits []httpx.AuditLine, answer []byte) {
	listed, _ := httpx.ParseAuditAnswer(answer)
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, a := range audits {
		if !slices.Contains(listed, a.Key) {
			path := originPath(a.Key)
			if p, err := url.PathUnescape(path); err == nil {
				path = p
			}
			l.requests[path]++
		}
	}
}

// park runs hk while the reply r is held: built, none of it yet written.
func (l *link) park(r heldReply, hk *hook) {
	l.mu.Lock()
	l.inflight--
	l.held = append(l.held, r)
	l.mu.Unlock()
	hk.fn()
	l.mu.Lock()
	l.inflight++
	for i := range l.held {
		if slices.Equal(l.held[i].keys, r.keys) {
			l.held = append(l.held[:i], l.held[i+1:]...)
			break
		}
	}
	l.mu.Unlock()
	close(hk.done)
}

// requestsFor counts the requests made for path so far.
func (l *link) requestsFor(path string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.requests[path]
}

// auditBatches counts the audit batches sent so far.
func (l *link) auditBatches() int { return l.requestsFor(httpx.AuditPath) }

// fail makes the link answer path with 503 (on) or pass it again.
func (l *link) fail(path string, on bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failing[path] = on
}

// beforeReply runs fn once, inside the next request for path: its reply
// built, none of it written. The returned channel closes once fn has
// run and the reply has moved on. quiesce still works inside fn: it
// counts the held reply, and the jobs it parks, as settled.
func (l *link) beforeReply(path string, fn func()) <-chan struct{} {
	hk := &hook{fn: fn, done: make(chan struct{})}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.hooks[path] = hk
	return hk.done
}

// hold is one reply a link holds, built, until it is released.
type hold struct {
	arrived, released chan struct{}
	done              <-chan struct{}
	once              sync.Once
}

// hold holds the next reply for path until release.
func (l *link) hold(t testing.TB, path string) *hold {
	hd := &hold{arrived: make(chan struct{}), released: make(chan struct{})}
	hd.done = l.beforeReply(path, func() {
		close(hd.arrived)
		<-hd.released
	})
	t.Cleanup(hd.release) // before the proxy's Close waits for its worker
	return hd
}

// wait blocks until the held request has arrived.
func (hd *hold) wait(t testing.TB) {
	t.Helper()
	select {
	case <-hd.arrived:
	case <-time.After(10 * time.Second):
		t.Fatal("the held reply was never requested")
	}
}

// release lets the held reply go on, and returns once it has: nothing
// quiesce sees afterwards still counts it held.
func (hd *hold) release() {
	hd.once.Do(func() { close(hd.released) })
	select {
	case <-hd.arrived:
		<-hd.done
	default: // never requested: nothing to wait for
	}
}

// cut ends every stream on the link and fails every request until
// restore: a dead network path.
func (l *link) cut() {
	l.mu.Lock()
	l.down = true
	var streams []*linkStream
	for s := range l.serving {
		streams = append(streams, s)
	}
	l.mu.Unlock()
	for _, s := range streams {
		s.kill()
	}
}

func (l *link) restore() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.down = false
}

// refusesStreams reports whether an event-stream request would fail on
// the link itself.
func (l *link) refusesStreams() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.down || l.failing["/events"]
}

// stream returns the newest stream and the event-stream requests made.
func (l *link) stream() (*linkStream, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last, l.attempts
}

// idle reports whether nothing is in flight on the link but held replies
// and live streams, and returns the held replies.
func (l *link) idle() ([]heldReply, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inflight != 0 || l.handlers != len(l.serving) {
		return nil, false
	}
	for s := range l.serving {
		if !s.live() {
			return nil, false // a handler still unwinding
		}
	}
	return append([]heldReply(nil), l.held...), true
}

// linkWriter is the handler's side of a link reply.
type linkWriter struct {
	l       *link
	attempt int
	ctx     context.Context
	cancel  context.CancelFunc
	header  http.Header
	code    int
	body    []byte
	ready   chan struct{} // closed once the reply is committed
	s       *linkStream   // set by the first Flush: the reply became a stream
}

func (w *linkWriter) Header() http.Header { return w.header }

func (w *linkWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *linkWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	if w.s != nil {
		return w.s.write(p)
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

// Flush commits the reply as a stream: the client reads the body as the
// handler writes it.
func (w *linkWriter) Flush() {
	w.WriteHeader(http.StatusOK)
	if w.s != nil {
		return
	}
	s := &linkStream{l: w.l, attempt: w.attempt, ctx: w.ctx, cancel: w.cancel,
		header: w.header.Clone(), code: w.code, pending: w.body}
	s.cond.L = &s.mu
	if len(s.pending) > 0 {
		s.gen = 1
	}
	w.l.mu.Lock()
	w.l.serving[s] = true
	w.l.last = s
	w.l.mu.Unlock()
	w.s, w.body = s, nil
	close(w.ready)
}

// SetWriteDeadline bounds how long a stream write may wait for the client
// to read; http.ResponseController finds it here.
func (w *linkWriter) SetWriteDeadline(t time.Time) error {
	if w.s != nil {
		w.s.setDeadline(t)
	}
	return nil
}

// finish runs when the handler returns.
func (w *linkWriter) finish() {
	w.WriteHeader(http.StatusOK)
	if w.s != nil {
		w.s.end(io.EOF)
	}
	w.l.mu.Lock()
	w.l.handlers--
	delete(w.l.serving, w.s)
	w.l.mu.Unlock()
	if w.s == nil {
		close(w.ready)
	}
}

// streamWindow is how much a stream buffers before its writer waits for
// the reader, as a socket's buffers would.
const streamWindow = 1 << 20

// barrierFrame is the frame a stream hands its reader when quiesce asks
// whether the consumer is idle: a heartbeat at position zero, which a
// subscriber takes as a no-op. The reader's next Read proves the consumer
// took it, and so is done with every frame before it.
var barrierFrame = []byte("data: " + push.Event{Kind: push.KindHeartbeat}.Encode() + "\n\n")

// gzipBarrier is barrierFrame as a gzip-coded stream carries it: a stored
// block, then the empty stored block that makes the reader deliver it.
// It is handed out only where nothing is pending, which on such a stream
// is a segment boundary (the hub writes each segment whole), so the
// deflate stream stays byte-aligned and valid. The frame is not in the
// hub's checksum, so a stream that carried one fails its trailer: the
// subscriber takes that as the end of the stream, which it is.
var gzipBarrier = func() []byte {
	n := len(barrierFrame)
	b := append([]byte{0, byte(n), byte(n >> 8), ^byte(n), ^byte(n >> 8)}, barrierFrame...)
	return append(b, 0, 0, 0, 0xff, 0xff)
}()

// linkStream is one streamed reply: the handler writes into pending, the
// client reads it out.
type linkStream struct {
	l       *link
	attempt int
	ctx     context.Context // the handler's
	cancel  context.CancelFunc
	header  http.Header
	code    int

	mu       sync.Mutex
	cond     sync.Cond
	pending  []byte
	gen      uint64 // handler writes so far
	read     bool   // the reader has had some of them
	want     bool   // quiesce asked for a barrier
	barrier  uint64 // the gen an outstanding barrier confirms; 0 when none is out
	idleAt   uint64 // the gen through which the consumer is known idle
	deadline time.Time
	timer    *time.Timer
	err      error // why the handler side ended
	closed   bool  // the client closed the body
}

func (s *linkStream) write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.pending) >= streamWindow && s.err == nil && !s.closed {
		if !s.deadline.IsZero() && !time.Now().Before(s.deadline) {
			return 0, os.ErrDeadlineExceeded
		}
		s.cond.Wait()
	}
	if s.err != nil || s.closed {
		return 0, io.ErrClosedPipe
	}
	s.pending = append(s.pending, p...)
	s.gen++
	s.cond.Broadcast()
	return len(p), nil
}

func (s *linkStream) setDeadline(t time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.deadline = t
	if s.timer == nil {
		s.timer = time.AfterFunc(time.Until(t), func() {
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		})
	} else {
		s.timer.Reset(time.Until(t))
	}
}

func (s *linkStream) Read(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.barrier != 0 {
		s.idleAt, s.barrier = s.barrier, 0
	}
	for {
		switch {
		case s.closed:
			return 0, io.ErrClosedPipe
		case len(s.pending) > 0:
			n := copy(p, s.pending)
			s.pending = s.pending[n:]
			s.read = true
			s.l.bytes.Add(int64(n))
			s.cond.Broadcast() // room for a writer waiting on the window
			return n, nil
		case s.err != nil:
			return 0, s.err
		case s.want && s.read && s.idleAt < s.gen && len(p) >= len(s.barrierBytes()):
			s.want, s.barrier = false, s.gen
			return copy(p, s.barrierBytes()), nil
		}
		s.cond.Wait()
	}
}

// barrierBytes is the barrier in the stream's content coding.
func (s *linkStream) barrierBytes() []byte {
	if s.header.Get("Content-Encoding") == "gzip" {
		return gzipBarrier
	}
	return barrierFrame
}

func (s *linkStream) Close() error {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.cancel()
	return nil
}

// end finishes the handler's side: the reader drains what is pending,
// then gets err.
func (s *linkStream) end(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = err
	}
	if s.timer != nil {
		s.timer.Stop()
	}
	s.cond.Broadcast()
}

// kill resets the stream: what is pending is lost, and the handler's
// context ends.
func (s *linkStream) kill() {
	s.mu.Lock()
	s.pending = nil
	s.mu.Unlock()
	s.end(errLinkCut)
	s.cancel()
}

// live reports whether both ends still hold the stream open.
func (s *linkStream) live() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err == nil && !s.closed && s.ctx.Err() == nil
}

// idle reports whether the reader's consumer is done with everything
// written so far; if not, it asks for a barrier to find out.
func (s *linkStream) idle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) == 0 && s.barrier == 0 && s.idleAt == s.gen {
		return true
	}
	if !s.want {
		s.want = true
		s.cond.Broadcast()
	}
	return false
}

// streamState is what quiesce reads of one event-stream consumer.
type streamState struct {
	connected                 bool
	lastSeq, resets, connects uint64
}

// streamer is one event-stream consumer quiesce waits for: a proxy's push
// subscription, or a watcher.
type streamer struct {
	link  *link
	up    *node // whose relay hub it subscribes to; nil for the origin's
	state func() streamState
	gone  func() bool // closed, or stopped
	// base and baseResets are its state and its hub's Resets at the last
	// quiescent point.
	base       streamState
	baseResets uint64
}

// settled reports whether the consumer is where its upstream leaves it:
// refused, it is disconnected and has tried again since; otherwise it
// holds a live stream at the hub's head, has taken every Reset the hub
// announced since the last quiescent point, and is idle.
func (s *streamer) settled(hs push.HubStats) bool {
	st := s.state()
	last, attempts := s.link.stream()
	if !hs.Available || s.link.refusesStreams() {
		return !st.connected && (last == nil || (!last.live() && attempts > last.attempt))
	}
	if last == nil || !last.live() || st.lastSeq < hs.Seq {
		return false
	}
	if hs.Resets > s.baseResets && st.connects == s.base.connects && st.resets == s.base.resets {
		return false // a mid-stream Reset is still on its way
	}
	return last.idle()
}

// node is one proxy in a harness topology.
type node struct {
	*Proxy
	h      *harness
	cfg    Config
	up     *link // to its upstream
	closed atomic.Bool

	mu  sync.Mutex
	obs []PollObservation
}

// Close closes the proxy; quiesce stops waiting for it.
func (n *node) Close() {
	n.closed.Store(true)
	n.Proxy.Close()
}

// reopen replaces n's proxy with a new one over the same configuration —
// a restart, rehydrating whatever the old one left in DiskDir — and
// leaves it unstarted.
func (n *node) reopen() {
	n.h.t.Helper()
	n.Close()
	p, err := New(n.cfg)
	if err != nil {
		n.h.t.Fatal(err)
	}
	n.Proxy = p
	n.closed.Store(false)
}

// get serves one GET through the proxy.
func (n *node) get(target string) (int, string, http.Header) {
	return n.do(httptest.NewRequest(http.MethodGet, target, nil))
}

// do serves r through the proxy.
func (n *node) do(r *http.Request) (int, string, http.Header) {
	rec := httptest.NewRecorder()
	n.ServeHTTP(rec, r)
	return rec.Code, rec.Body.String(), rec.Result().Header
}

// relayHub reads the proxy's relay hub (the zero value without one).
func (n *node) relayHub() push.HubStats { return n.RelayStats().Hub }

func (n *node) streamState() streamState {
	ps := n.PushStats()
	return streamState{connected: ps.Connected, lastSeq: ps.LastSeq, resets: ps.Resets, connects: ps.Connects}
}

func (n *node) record(o PollObservation) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.obs = append(n.obs, o)
}

// observations returns every observation the proxy has reported.
func (n *node) observations() []PollObservation {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]PollObservation(nil), n.obs...)
}

// observed returns key's observations since the last call, and forgets
// every other key's too.
func (n *node) observed(key string) []PollObservation {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []PollObservation
	for _, o := range n.obs {
		if o.Key == key {
			out = append(out, o)
		}
	}
	n.obs = nil
	return out
}

// parked counts the jobs the held replies keep n from finishing: each
// held poll, and every job queued behind one on its worker; each key of a
// held audit batch, whose worker it does not occupy.
func (n *node) parked(held []heldReply) int {
	parked := 0
	seen := make(map[*worker]bool)
	for _, r := range held {
		for _, k := range r.keys {
			e := n.store.get(k)
			if e == nil {
				continue // an admission: no job
			}
			parked++
			if w := n.workerFor(e); !r.batch && !seen[w] {
				seen[w] = true
				w.mu.Lock()
				parked += len(w.queue) - w.head
				w.mu.Unlock()
			}
		}
	}
	return parked
}

// watcher is a raw subscriber a harness runs.
type watcher struct {
	*push.Subscriber
	cancel  context.CancelFunc
	done    chan struct{}
	stopped atomic.Bool
}

// stop ends the subscription; quiesce stops waiting for it.
func (w *watcher) stop() {
	w.stopped.Store(true)
	w.cancel()
	<-w.done
}

func (w *watcher) streamState() streamState {
	st := w.Stats()
	return streamState{connected: st.Connects > st.Disconnects, lastSeq: w.LastSeq(), resets: st.Resets, connects: st.Connects}
}

// topology describes what newHarness builds: an origin and a chain of
// proxies below it, root first.
type topology struct {
	// hops is the number of proxies (default 1).
	hops int
	// origin adds options to the stock origin, which always runs on the
	// harness clock.
	origin []webserver.Option
	// handler, when set, replaces the stock origin.
	handler http.Handler
	// hub, when set, serves the origin's /events: the test announces
	// updates itself.
	hub *push.Hub
	// refuseAudits answers audit batches 404, as an upstream that
	// predates them does, until the test clears harness.refusing.
	refuseAudits bool
	// push subscribes every proxy to its upstream's events; the inner
	// ones relay them.
	push bool
	// cfg configures every proxy, tune proxy i after it. The harness sets
	// Origin, Client, Clock and (with push) PushURL and RelayEvents
	// before tune; after it, it defaults an unset Bounds to [1s, 1m],
	// DefaultDelta to Bounds.Min, PollWorkers to 1, and the push timings
	// to a 1–10 ms reconnect backoff with no heartbeat watchdog.
	cfg  Config
	tune func(i int, cfg *Config)
	// manual leaves the proxies unstarted (see start).
	manual bool
}

// harness is a running topology on one stepped clock.
type harness struct {
	t        testing.TB
	clk      *simClock
	tp       topology
	origin   *webserver.Origin // nil when topology.handler replaced it
	top      http.Handler      // what the root's link reaches
	nodes    []*node
	links    []*link
	streams  []*streamer
	watchers []*watcher
	refusing atomic.Bool // the top answers audit batches 404 (see refuseAudits)
}

// newHarness builds tp, starts it (unless manual) and quiesces.
func newHarness(t testing.TB, tp topology) *harness {
	t.Helper()
	h := &harness{t: t, clk: newSimClock(), tp: tp, top: tp.handler}
	if h.top == nil {
		opts := append([]webserver.Option{webserver.WithClock(h.clk.Now)}, tp.origin...)
		if tp.push && tp.hub == nil {
			opts = append(opts, webserver.WithPushEvents(""))
		}
		h.origin = webserver.NewOrigin(opts...)
		h.top = h.origin
	}
	h.refusing.Store(tp.refuseAudits)
	if tp.hub != nil || tp.refuseAudits {
		content := h.top
		h.top = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch {
			case r.URL.Path == httpx.AuditPath && h.refusing.Load():
				http.NotFound(w, r)
			case tp.hub != nil && r.URL.Path == "/events":
				tp.hub.ServeHTTP(w, r)
			default:
				content.ServeHTTP(w, r)
			}
		})
	}
	t.Cleanup(h.close)
	hops := max(tp.hops, 1)
	var parent *node
	for i := 0; i < hops; i++ {
		parent = h.attach(parent, func(cfg *Config) {
			cfg.RelayEvents = tp.push && i < hops-1
			if tp.tune != nil {
				tp.tune(i, cfg)
			}
		})
	}
	if !tp.manual {
		h.quiesce()
	}
	return h
}

// attach adds a proxy below parent (nil: below the origin), configured as
// the topology's proxies are with tune in place of topology.tune, and
// starts it unless the topology is manual.
func (h *harness) attach(parent *node, tune func(*Config)) *node {
	h.t.Helper()
	n := &node{h: h}
	var target http.Handler = h.top
	if parent != nil {
		target = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { parent.ServeHTTP(w, r) })
	}
	n.up = h.dial(target, n)
	cfg := h.tp.cfg
	cfg.Origin, _ = url.Parse(linkBase)
	if h.tp.push {
		cfg.PushURL, _ = url.Parse(linkBase + "/events")
	}
	if tune != nil {
		tune(&cfg)
	}
	cfg.Client = &http.Client{Transport: n.up}
	cfg.Clock = h.clk.Now
	if cfg.Bounds == (core.TTRBounds{}) {
		cfg.Bounds = core.TTRBounds{Min: time.Second, Max: time.Minute}
	}
	if cfg.DefaultDelta == 0 {
		cfg.DefaultDelta = cfg.Bounds.Min
	}
	if cfg.PollWorkers == 0 {
		cfg.PollWorkers = 1
	}
	if cfg.PushHeartbeatTimeout == 0 {
		cfg.PushHeartbeatTimeout = -1
	}
	if cfg.PushBackoffMin == 0 {
		cfg.PushBackoffMin = time.Millisecond
	}
	if cfg.PushBackoffMax == 0 {
		cfg.PushBackoffMax = 10 * time.Millisecond
	}
	obs := cfg.PollObserver
	cfg.PollObserver = func(o PollObservation) {
		n.record(o)
		if obs != nil {
			obs(o)
		}
	}
	n.cfg = cfg
	p, err := New(cfg)
	if err != nil {
		h.t.Fatal(err)
	}
	n.Proxy = p
	h.nodes = append(h.nodes, n)
	if cfg.PushURL != nil {
		h.streams = append(h.streams, &streamer{link: n.up, up: parent, state: n.streamState,
			gone: n.closed.Load, baseResets: h.hubs()[parent].Resets})
	}
	if !h.tp.manual {
		p.Start()
	}
	return n
}

// dial opens a link to target on behalf of owner.
func (h *harness) dial(target http.Handler, owner *node) *link {
	l := newLink(target, owner)
	h.links = append(h.links, l)
	return l
}

// watch runs a raw subscriber on n's relay hub (nil: the origin's hub)
// over a link of its own. Unset timings default as a proxy's do.
func (h *harness) watch(n *node, cfg push.SubscriberConfig) *watcher {
	h.t.Helper()
	var target http.Handler = h.top
	if n != nil {
		target = n
	}
	l := h.dial(target, nil)
	cfg.URL = linkBase + "/events"
	cfg.Client = &http.Client{Transport: l}
	if cfg.OnEvent == nil {
		cfg.OnEvent = func(push.Event) {}
	}
	if cfg.BackoffMin == 0 {
		cfg.BackoffMin = time.Millisecond
	}
	if cfg.BackoffMax == 0 {
		cfg.BackoffMax = 10 * time.Millisecond
	}
	if cfg.HeartbeatTimeout == 0 {
		cfg.HeartbeatTimeout = -1
	}
	sub, err := push.NewSubscriber(cfg)
	if err != nil {
		h.t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &watcher{Subscriber: sub, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(w.done)
		sub.Run(ctx)
	}()
	h.watchers = append(h.watchers, w)
	h.streams = append(h.streams, &streamer{link: l, up: n, state: w.streamState,
		gone: w.stopped.Load, baseResets: h.hubs()[n].Resets})
	return w
}

// start starts a manual topology's proxies and quiesces.
func (h *harness) start() {
	h.t.Helper()
	for _, n := range h.nodes {
		n.Start()
	}
	h.quiesce()
}

func (h *harness) close() {
	for _, w := range h.watchers {
		if !w.stopped.Load() {
			w.stop()
		}
	}
	for i := len(h.nodes) - 1; i >= 0; i-- {
		h.nodes[i].Close()
	}
}

func (h *harness) root() *node { return h.nodes[0] }
func (h *harness) leaf() *node { return h.nodes[len(h.nodes)-1] }

// hubs reads every hub in the topology, keyed by the node whose relay
// hub it is; nil keys the one serving the origin's /events (the zero
// value without one).
func (h *harness) hubs() map[*node]push.HubStats {
	hubs := make(map[*node]push.HubStats, len(h.nodes)+1)
	switch {
	case h.tp.hub != nil:
		hubs[nil] = h.tp.hub.Stats()
	case h.origin != nil:
		hubs[nil] = h.origin.PushHubStats()
	}
	for _, n := range h.nodes {
		hubs[n] = n.relayHub()
	}
	return hubs
}

// quiesce waits until the topology is quiescent: every link idle but for
// held replies and live streams; every open proxy with nothing due, and
// nothing in flight but what held replies park; every hub's streams
// registered exactly while their handlers run; and every consumer
// settled (see streamer.settled) — stable over two passes.
func (h *harness) quiesce() {
	h.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for stable, spins := 0, 0; stable < 2; spins++ {
		for _, n := range h.nodes {
			n.Kick()
		}
		if h.quiet() {
			stable++
		} else {
			stable = 0
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("the topology never quiesced:\n%s", h.describe())
		}
		// Yielding is cheap; a timer sleep costs about a millisecond, so
		// it is kept for waits the yields have not ended.
		if spins < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
	hubs := h.hubs()
	for _, s := range h.streams {
		s.base, s.baseResets = s.state(), hubs[s.up].Resets
	}
}

func (h *harness) quiet() bool {
	held := make(map[*node][]heldReply)
	for _, l := range h.links {
		replies, ok := l.idle()
		if !ok {
			return false
		}
		if l.owner != nil {
			held[l.owner] = append(held[l.owner], replies...)
		}
	}
	now := h.clk.Now()
	for _, n := range h.nodes {
		if n.closed.Load() {
			continue
		}
		if n.InFlightPolls() != n.parked(held[n]) {
			return false
		}
		if next, ok := n.NextRefreshAt(); ok && !next.After(now) {
			return false
		}
	}
	hubs := h.hubs()
	for _, hs := range hubs {
		if hs.Subscribers != hs.ActiveStreams {
			return false
		}
	}
	// Every stream is asked, not just the first unsettled one: each asks
	// its own consumer for a barrier, and those round trips overlap.
	quiet := true
	for _, s := range h.streams {
		if !s.gone() && !s.settled(hubs[s.up]) {
			quiet = false
		}
	}
	return quiet
}

// describe reports what quiesce is waiting on.
func (h *harness) describe() string {
	var b strings.Builder
	now := h.clk.Now()
	hubs := h.hubs()
	hs := hubs[nil]
	fmt.Fprintf(&b, "clock +%v; origin hub seq %d subs %d/%d resets %d available %v\n",
		now.Sub(h.clk.base), hs.Seq, hs.Subscribers, hs.ActiveStreams, hs.Resets, hs.Available)
	for i, n := range h.nodes {
		next, ok := n.NextRefreshAt()
		ps, rs := n.PushStats(), n.relayHub()
		fmt.Fprintf(&b, "node %d: closed %v, in flight %d, next refresh +%v (scheduled %v), push %v seq %d resets %d connects %d, relay seq %d subs %d/%d resets %d\n",
			i, n.closed.Load(), n.InFlightPolls(), next.Sub(now), ok, ps.Connected, ps.LastSeq, ps.Resets, ps.Connects,
			rs.Seq, rs.Subscribers, rs.ActiveStreams, rs.Resets)
	}
	for i, l := range h.links {
		l.mu.Lock()
		if l.inflight != 0 || len(l.held) != 0 || l.handlers != len(l.serving) || l.down {
			fmt.Fprintf(&b, "link %d: in flight %d, held %+v, handlers %d, streams %d, cut %v\n",
				i, l.inflight, l.held, l.handlers, len(l.serving), l.down)
		}
		l.mu.Unlock()
	}
	for i, s := range h.streams {
		if hub := hubs[s.up]; !s.gone() && !s.settled(hub) {
			st := s.state()
			last, attempts := s.link.stream()
			fmt.Fprintf(&b, "stream %d unsettled: %+v, hub seq %d resets %d (base %d) available %v, live %v, attempts %d\n",
				i, st, hub.Seq, hub.Resets, s.baseResets, hub.Available, last != nil && last.live(), attempts)
		}
	}
	return b.String()
}

// nextRefresh is the earliest refresh scheduled on any open proxy.
func (h *harness) nextRefresh() (time.Time, bool) {
	var at time.Time
	found := false
	for _, n := range h.nodes {
		if n.closed.Load() {
			continue
		}
		if next, ok := n.NextRefreshAt(); ok && (!found || next.Before(at)) {
			at, found = next, true
		}
	}
	return at, found
}

// stepTo runs every refresh falling due before at — stepping the clock to
// each instant in turn and quiescing there — and leaves the clock at at,
// unquiesced: the caller applies what happens at at, then quiesces.
func (h *harness) stepTo(at time.Time) {
	h.t.Helper()
	for {
		h.quiesce()
		next, ok := h.nextRefresh()
		if !ok || !next.Before(at) {
			break
		}
		h.clk.AdvanceTo(next)
	}
	h.clk.AdvanceTo(at)
}

// advance moves the clock d ahead through every refresh falling due, and
// quiesces.
func (h *harness) advance(d time.Duration) {
	h.t.Helper()
	h.stepTo(h.clk.Now().Add(d))
	h.quiesce()
}

// step is one scheduled instant of a replay.
type step struct {
	at time.Duration // since the clock's base
	do func()
}

// play runs steps in time order — those of one instant together, after
// every refresh falling due before it, quiesced after — and then the
// clock on to horizon.
func (h *harness) play(horizon time.Duration, steps []step) {
	h.t.Helper()
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].at < steps[j].at })
	for i, s := range steps {
		if s.at > horizon {
			break
		}
		if i == 0 || s.at != steps[i-1].at {
			h.stepTo(h.clk.base.Add(s.at))
		}
		s.do()
	}
	h.stepTo(h.clk.base.Add(horizon))
	h.quiesce()
}
