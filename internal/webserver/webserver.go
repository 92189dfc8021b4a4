// Package webserver implements a real HTTP origin server for live (non-
// simulated) operation of the consistency algorithms. It serves objects
// with standard Last-Modified / If-Modified-Since validation and
// implements the paper's proposed protocol extensions (§5.1): the
// X-Modification-History header and the cache-control tolerance
// directives, so a downstream proxy can learn Δ, the group name, and δ
// directly from responses.
//
// A validation has one answer, decided once (see Origin.answer) whichever
// way it travels: a 304; a 226 IM Used carrying the delta from the
// previous version, when the request carries "A-IM: x-broadway-block2"
// (push.DeltaIM), its If-Modified-Since names that version, and the update
// left a delta that pays; otherwise a 200. A GET or HEAD gets the answer
// rendered by httpx.WriteAnswer. An audit batch (see ServeAudits) leaves a
// key out by httpx.Vouches, and with the same A-IM carries a changed key's
// 226 or 200 inline. A parent proxy answers with the same two.
package webserver

import (
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"broadway/internal/httpx"
	"broadway/internal/push"
)

// object is one hosted resource and its modification history.
type object struct {
	body        []byte
	contentType string
	modTimes    []time.Time // ascending; last entry is Last-Modified
	tolerances  httpx.Tolerances
	// change is body's delta from the body it replaced; nil for the
	// first version and for an update no delta pays for.
	change *change
}

// change is what one Set computes once for a 226 answer and its push
// event alike: the new body's delta against the previous body, and both
// bodies' digests.
type change struct {
	delta        []byte
	base, result string
}

// diff returns next's change from prev, or nil when no delta pays.
func diff(prev, next []byte) *change {
	delta, ok := push.MakeDelta(prev, next)
	if !ok {
		return nil
	}
	return &change{delta: delta, base: push.DigestOf(prev), result: push.DigestOf(next)}
}

// Origin is an in-memory HTTP origin. It is safe for concurrent use.
type Origin struct {
	mu      sync.RWMutex
	objects map[string]*object
	clock   func() time.Time

	historyEnabled bool
	polls          atomic.Uint64
	notModified    atomic.Uint64
	auditBatches   atomic.Uint64
	deltaServes    atomic.Uint64

	// Push-event channel (see events.go); nil unless WithPushEvents.
	hub           *push.Hub
	eventsPath    string
	pushHeartbeat time.Duration
}

var _ http.Handler = (*Origin)(nil)

// Option customizes an Origin.
type Option func(*Origin)

// WithClock substitutes the time source (tests use a fake clock).
func WithClock(clock func() time.Time) Option {
	return func(o *Origin) { o.clock = clock }
}

// WithHistoryExtension enables the X-Modification-History response
// header.
func WithHistoryExtension(enabled bool) Option {
	return func(o *Origin) { o.historyEnabled = enabled }
}

// WithPushEvents enables the origin-driven update channel: an SSE-style
// endpoint at path (default "/events") streaming a push.Event per object
// update, with heartbeats and a bounded replay buffer for reconnect
// catch-up. Every event carries the object's new body, its digest and
// its Cache-Control (value push), so a subscriber installs the update
// with no confirmation poll; a body over push.DefaultPayloadCap travels
// as a chunk set. The path shadows any hosted object of the same name.
func WithPushEvents(path string) Option {
	if path == "" {
		path = "/events"
	}
	return func(o *Origin) { o.eventsPath = path }
}

// WithPushHeartbeat sets the keepalive interval of the push-event stream
// (default 15s). It implies WithPushEvents with the default path unless
// one was already configured.
func WithPushHeartbeat(interval time.Duration) Option {
	return func(o *Origin) {
		if o.eventsPath == "" {
			o.eventsPath = "/events"
		}
		o.pushHeartbeat = interval
	}
}

// WithPushValues enables the push-event channel at the default path
// unless one was already configured.
//
// Deprecated: events always carry values (see WithPushEvents); cap is
// ignored.
func WithPushValues(cap int) Option {
	return func(o *Origin) {
		if o.eventsPath == "" {
			o.eventsPath = "/events"
		}
	}
}

// NewOrigin returns an empty origin server.
func NewOrigin(opts ...Option) *Origin {
	o := &Origin{
		objects: make(map[string]*object),
		clock:   time.Now,
	}
	for _, opt := range opts {
		opt(o)
	}
	if o.eventsPath != "" {
		o.hub = newEventHub(o.pushHeartbeat)
	}
	return o
}

// Set creates or updates the object at path. Every call beyond the first
// records a new modification instant. The content type defaults to
// text/html for .html paths and text/plain otherwise.
func (o *Origin) Set(path string, body []byte, contentType string) {
	if contentType == "" {
		contentType = "text/plain; charset=utf-8"
	}
	now := o.clock().Truncate(time.Second) // HTTP dates have second resolution
	o.mu.Lock()
	obj, exists := o.objects[path]
	if !exists {
		obj = &object{}
		o.objects[path] = obj
	}
	prev := obj.body
	obj.body = append([]byte(nil), body...)
	obj.contentType = contentType
	obj.change = nil
	// Guarantee strictly increasing modification times even when two
	// updates land within the same second.
	if n := len(obj.modTimes); n > 0 && !now.After(obj.modTimes[n-1]) {
		now = obj.modTimes[n-1].Add(time.Second)
	}
	obj.modTimes = append(obj.modTimes, now)
	if len(obj.modTimes) > httpx.MaxHistoryEntries {
		obj.modTimes = obj.modTimes[len(obj.modTimes)-httpx.MaxHistoryEntries:]
	}
	published := obj.body
	tol := obj.tolerances
	o.mu.Unlock()

	// The delta is computed off the lock and kept only while this version
	// is still the current one; until then the object answers plain GETs.
	var ch *change
	if exists {
		if ch = diff(prev, published); ch != nil {
			o.mu.Lock()
			if n := len(obj.modTimes); obj.modTimes[n-1].Equal(now) {
				obj.change = ch
			}
			o.mu.Unlock()
		}
	}

	if o.hub != nil {
		// The event carries the new body so subscribers install it without
		// a confirmation poll. The slice is the stored copy, replaced
		// wholesale on the next Set and never mutated, so sharing it with
		// the hub's replay ring is safe.
		ev := push.Event{
			Kind:         push.KindUpdate,
			Key:          path,
			ModTime:      now,
			Body:         published,
			HasBody:      true,
			ContentType:  contentType,
			CacheControl: tol.FormatCacheControl(),
		}
		// Offer the update as a delta against the previous body too:
		// subscribers that advertised holding it get the cheapest rung of
		// the delivery ladder, everyone else still sees the full payload
		// (the hub renders both forms once at Publish).
		if ch != nil {
			ev.Digest = ch.result
			ev.DeltaBody = ch.delta
			ev.BaseDigest = ch.base
			ev.DeltaCodec = push.DeltaCodecBlock
		} else {
			ev.Digest = push.DigestOf(published)
		}
		o.hub.Publish(ev)
	}
}

// InjectPushEvent publishes an arbitrary event into the origin's push
// hub, bypassing Set. It is a chaos/test hook: conformance batteries use
// it to inject corrupted payloads (digest mismatches, bodies that
// disagree with the served object) and prove subscribers degrade to a
// confirmation poll instead of installing garbage. A no-op when push is
// disabled.
func (o *Origin) InjectPushEvent(ev push.Event) {
	if o.hub != nil {
		o.hub.Publish(ev)
	}
}

// SetTolerances attaches consistency tolerances advertised with the
// object (rendered as cache-control extension directives).
func (o *Origin) SetTolerances(path string, t httpx.Tolerances) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if obj, ok := o.objects[path]; ok {
		obj.tolerances = t
	}
}

// PushHubStats snapshots the event hub's backpressure state: replay
// ring occupancy and per-subscriber lag, so an operator can see a proxy
// falling behind before it hits a Reset. The zero value is returned
// when push is disabled.
func (o *Origin) PushHubStats() push.HubStats {
	if o.hub == nil {
		return push.HubStats{}
	}
	return o.hub.Stats()
}

// OriginStats aggregates the origin's serving and push-channel state
// for the operational surface (/metrics, /admin/stats).
type OriginStats struct {
	// Objects is the number of hosted resources.
	Objects int `metric:"gauge broadway_origin_objects" help:"Hosted resources."`
	// Polls counts conditional or plain GETs served for hosted objects;
	// NotModified counts the 304 responses among them.
	// An audit batch counts each key it vouches for unchanged as one poll
	// answered 304, and each key it answers inline as the poll answered
	// 200 or 226 that the answer stands for (see ServeAudits);
	// AuditBatches counts the batches.
	Polls        uint64 `metric:"counter broadway_origin_polls_total" help:"Conditional or plain GETs served for hosted objects."`
	NotModified  uint64 `metric:"counter broadway_origin_not_modified_total" help:"304 responses served."`
	AuditBatches uint64 `metric:"counter broadway_origin_audit_batches_total" help:"Audit batches answered; each key vouched for counts as a poll answered 304, each key answered inline as the poll it stands for."`
	// DeltaServes counts the polls among Polls answered 226 with a delta.
	DeltaServes uint64 `metric:"counter broadway_origin_delta_serves_total" help:"Polls answered 226 IM Used with a delta from the version the client holds."`
	// PushEnabled reports whether the invalidation channel is
	// configured; Hub is its backpressure snapshot (zero when not).
	PushEnabled bool          `metric:"gauge broadway_origin_push_enabled" help:"1 when the origin streams invalidation events."`
	Hub         push.HubStats `metric:"nested hub=origin"`
}

// Stats returns the origin-wide counters.
func (o *Origin) Stats() OriginStats {
	o.mu.RLock()
	st := OriginStats{Objects: len(o.objects)}
	o.mu.RUnlock()
	st.Polls, st.NotModified = o.polls.Load(), o.notModified.Load()
	st.AuditBatches, st.DeltaServes = o.auditBatches.Load(), o.deltaServes.Load()
	if o.hub != nil {
		st.PushEnabled = true
		st.Hub = o.hub.Stats()
	}
	return st
}

// SetPushAvailable toggles the event endpoint. Disabling terminates all
// connected streams and 503s new connections — the failure-injection
// hook for chaos tests; events published while down still enter the
// replay buffer. Re-enabling lets subscribers reconnect and catch up.
func (o *Origin) SetPushAvailable(up bool) {
	if o.hub != nil {
		o.hub.SetAvailable(up)
	}
}

// KillPushStreams terminates every connected event stream without
// disabling the endpoint: subscribers can reconnect immediately. It
// models a transient network cut.
func (o *Origin) KillPushStreams() {
	if o.hub != nil {
		o.hub.KillAll()
	}
}

// ServeHTTP implements http.Handler with If-Modified-Since validation.
// It answers audit batches on httpx.AuditPath, with or without push, and
// renders every other GET or HEAD of a hosted object as the answer the
// origin decides for it (see answer).
func (o *Origin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if httpx.IsAuditBatch(r) {
		o.ServeAudits(w, r)
		return
	}
	if o.hub != nil && r.URL.Path == o.eventsPath {
		// Streams are GET-only (the hub 405s anything else); a HEAD must
		// not hold a hub subscription it will never read.
		o.hub.ServeHTTP(w, r)
		return
	}
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	// An unconditional GET's since is zero, and the history all of it.
	since := httpx.IfModifiedSince(r)
	o.mu.RLock()
	obj, ok := o.objects[r.URL.Path]
	var a httpx.AuditAnswer
	if ok {
		a = o.answer(obj, since, r.Method == http.MethodGet && push.AcceptsDeltaIM(r.Header))
	}
	o.mu.RUnlock()
	if !ok {
		http.NotFound(w, r)
		return
	}
	o.count(a.Status)
	if a.Status == http.StatusIMUsed {
		push.SetDeltaHeaders(w.Header(), a.Base, a.Result)
	}
	httpx.WriteAnswer(w, r, &a)
}

// answer decides what a request for obj conditional on since (zero for
// none) answers, for a GET and a batch line alike: a 304 when obj has not
// changed since then; the 226 carrying obj's stored change when delta —
// the request's A-IM — asks for it and since names the change's base;
// otherwise the 200. It carries every header the GET's answer would, its
// History the modification times after since when the history extension
// is on. The caller holds o.mu.
func (o *Origin) answer(obj *object, since time.Time, delta bool) httpx.AuditAnswer {
	n := len(obj.modTimes)
	a := httpx.AuditAnswer{
		Status: http.StatusOK, LastModified: obj.modTimes[n-1], Body: obj.body,
		ContentType: obj.contentType, CacheControl: obj.tolerances.FormatCacheControl(),
	}
	if o.historyEnabled {
		a.History = modTimesAfter(obj.modTimes, since)
	}
	switch ch := obj.change; {
	case !since.IsZero() && !a.LastModified.After(since):
		a.Status, a.Body = http.StatusNotModified, nil
	case delta && ch != nil && n > 1 && obj.modTimes[n-2].Equal(since):
		// since names the version the change starts from, and no other
		// version shares its instant: the client holds that body.
		a.Status, a.Base, a.Result, a.Body = http.StatusIMUsed, ch.base, ch.result, ch.delta
	}
	return a
}

// count adds one answer served, or one a batch stands for, to the
// origin's counters: a poll, and a 304 or a 226 when it is one.
func (o *Origin) count(status int) {
	o.polls.Add(1)
	switch status {
	case http.StatusNotModified:
		o.notModified.Add(1)
	case http.StatusIMUsed:
		o.deltaServes.Add(1)
	}
}

// ServeAudits answers an audit batch (see httpx.ServeAuditBatch):
// ServeHTTP routes one here from httpx.AuditPath, with or without push.
// Each key's answer is the one its conditional GET would get (see
// answer), and the batch does one of three things with it. A 304 carrying
// the Cache-Control the child holds is vouched for: left out, and counted
// as that GET. A 200 or 226, when the batch carries "A-IM:
// x-broadway-block2", is inlined and counted as that GET, while the whole
// answer stays within httpx.MaxAuditBody. Every other key — missing,
// re-tolerated, changed in a batch without A-IM or past that budget — is
// listed plain, and its GET, which follows, is counted then. The objects
// are read under one hold of o.mu per batch.
func (o *Origin) ServeAudits(w http.ResponseWriter, r *http.Request) {
	o.auditBatches.Add(1)
	inline := push.AcceptsDeltaIM(r.Header)
	httpx.ServeAuditBatch(w, r, func(lines []httpx.AuditLine) []byte {
		return o.answerAudits(lines, inline)
	})
}

// answerAudits builds the answer to a batch's lines (see ServeAudits):
// the plain listings first, then each changed key of an inline batch,
// inline while the budget lasts.
func (o *Origin) answerAudits(lines []httpx.AuditLine, inline bool) []byte {
	var out []byte
	var changed []httpx.AuditAnswer
	o.mu.RLock()
	for _, l := range lines {
		// The object a GET for the key reaches: its decoded path.
		path, _, _ := strings.Cut(l.Key, "?")
		if p, err := url.PathUnescape(path); err == nil {
			path = p
		}
		var a httpx.AuditAnswer
		if obj, ok := o.objects[path]; ok {
			a = o.answer(obj, l.Since, inline)
		}
		a.Key = l.Key
		switch {
		case a.Status == 0: // missing: listed plain, its GET hears the 404
		case a.Status != http.StatusNotModified:
			if inline {
				changed = append(changed, a)
				continue
			}
		case httpx.Vouches(&a, l):
			o.count(a.Status)
			continue
		}
		out = httpx.AppendAuditAnswer(out, httpx.AuditAnswer{Key: l.Key})
	}
	o.mu.RUnlock()

	// reserve is the room the plain listings still to come need: an inline
	// answer never crowds one out of the budget.
	reserve := 0
	for _, a := range changed {
		reserve += len(a.Key) + 1
	}
	for _, a := range changed {
		reserve -= len(a.Key) + 1
		if httpx.AuditValueOK(a.ContentType) && httpx.AuditValueOK(a.CacheControl) {
			mark := len(out)
			if out = httpx.AppendAuditAnswer(out, a); len(out)+reserve <= httpx.MaxAuditBody {
				o.count(a.Status)
				continue
			}
			out = out[:mark]
		}
		out = httpx.AppendAuditAnswer(out, httpx.AuditAnswer{Key: a.Key})
	}
	return out
}

// modTimesAfter returns a copy of the modification times strictly after
// since; times ascend.
func modTimesAfter(times []time.Time, since time.Time) []time.Time {
	i := sort.Search(len(times), func(i int) bool { return times[i].After(since) })
	if i == len(times) {
		return nil
	}
	return append([]time.Time(nil), times[i:]...)
}
