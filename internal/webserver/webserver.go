// Package webserver implements a real HTTP origin server for live (non-
// simulated) operation of the consistency algorithms. It serves objects
// with standard Last-Modified / If-Modified-Since validation and
// implements the paper's proposed protocol extensions (§5.1): the
// X-Modification-History header and the cache-control tolerance
// directives, so a downstream proxy can learn Δ, the group name, and δ
// directly from responses.
package webserver

import (
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
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
}

// Origin is an in-memory HTTP origin. It is safe for concurrent use.
type Origin struct {
	mu      sync.RWMutex
	objects map[string]*object
	clock   func() time.Time

	historyEnabled bool
	polls          uint64
	notModified    uint64
	auditBatches   uint64

	// Push-event channel (see events.go); nil unless WithPushEvents.
	hub           *push.Hub
	eventsPath    string
	pushHeartbeat time.Duration
	// payloadCap, when positive, makes Set attach the object's new body
	// (digest-verified, base64-framed on the wire) to the events it
	// publishes, so subscribers that negotiated payload delivery can
	// install the update without a confirmation poll.
	payloadCap int
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

// WithPushEvents enables the origin-driven invalidation channel: an
// SSE-style endpoint at path (default "/events") streaming a push.Event
// per object update, with heartbeats and a bounded replay buffer for
// reconnect catch-up. The path shadows any hosted object of the same
// name.
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

// WithPushValues makes every published update event carry the object's
// new body (value-carrying push): subscribers that
// negotiated payload delivery install the update directly — one
// message, zero confirmation polls — while plain subscribers keep
// receiving invalidation-only frames. cap bounds the body size the hub
// will carry (bytes; <= 0 selects push.DefaultPayloadCap); larger
// bodies degrade to invalidation-only events at publish time. It
// implies WithPushEvents at the default path unless one was already
// configured.
func WithPushValues(cap int) Option {
	if cap <= 0 {
		cap = push.DefaultPayloadCap
	}
	return func(o *Origin) {
		if o.eventsPath == "" {
			o.eventsPath = "/events"
		}
		o.payloadCap = cap
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
		o.hub = newEventHub(o.pushHeartbeat, o.payloadCap)
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
	o.mu.Unlock()

	if o.hub != nil {
		ev := push.Event{
			Kind:    push.KindUpdate,
			Key:     path,
			ModTime: now,
		}
		if o.payloadCap > 0 {
			// Attach the new body so payload-negotiated subscribers can
			// install it without a confirmation poll. The slice is the
			// stored copy, replaced wholesale on the next Set and never
			// mutated, so sharing it with the hub's replay ring is safe.
			ev.Body = published
			ev.HasBody = true
			ev.ContentType = contentType
			ev.Digest = push.DigestOf(published)
			// Offer the update as a delta against the previous body too:
			// subscribers that advertised holding it get the cheapest rung
			// of the delivery ladder, everyone else still sees the full
			// payload (the hub renders both forms once at Publish).
			if delta, ok := push.MakeDelta(prev, published); ok {
				ev.DeltaBody = delta
				ev.BaseDigest = push.DigestOf(prev)
				ev.DeltaCodec = push.DeltaCodecBlock
			}
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
	// answered 304 (see ServeAudits); AuditBatches counts the batches.
	Polls        uint64 `metric:"counter broadway_origin_polls_total" help:"Conditional or plain GETs served for hosted objects."`
	NotModified  uint64 `metric:"counter broadway_origin_not_modified_total" help:"304 responses served."`
	AuditBatches uint64 `metric:"counter broadway_origin_audit_batches_total" help:"Audit batches answered; each key vouched for counts as a poll answered 304."`
	// PushEnabled reports whether the invalidation channel is
	// configured; Hub is its backpressure snapshot (zero when not).
	PushEnabled bool          `metric:"gauge broadway_origin_push_enabled" help:"1 when the origin streams invalidation events."`
	Hub         push.HubStats `metric:"nested hub=origin"`
}

// Stats returns the origin-wide counters.
func (o *Origin) Stats() OriginStats {
	o.mu.RLock()
	st := OriginStats{
		Objects:      len(o.objects),
		Polls:        o.polls,
		NotModified:  o.notModified,
		AuditBatches: o.auditBatches,
	}
	o.mu.RUnlock()
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
// It answers audit batches on httpx.AuditPath, with or without push.
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
	// A missing or unparseable If-Modified-Since leaves since zero: the
	// GET is unconditional, and the history all of it.
	var since time.Time
	if t, err := http.ParseTime(r.Header.Get("If-Modified-Since")); err == nil {
		since = t
	}
	o.mu.Lock()
	obj, ok := o.objects[r.URL.Path]
	if !ok {
		o.mu.Unlock()
		http.NotFound(w, r)
		return
	}
	o.polls++
	lastMod := obj.modTimes[len(obj.modTimes)-1]
	notModified := !since.IsZero() && !lastMod.After(since)
	if notModified {
		o.notModified++
	}
	var history []time.Time
	if o.historyEnabled {
		history = modTimesAfter(obj.modTimes, since)
	}
	body, contentType, tol := obj.body, obj.contentType, obj.tolerances
	o.mu.Unlock()

	w.Header().Set("Last-Modified", lastMod.UTC().Format(http.TimeFormat))
	httpx.SetCacheControl(w.Header(), tol)
	if o.historyEnabled {
		httpx.SetHistory(w.Header(), history)
	}
	if notModified {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(http.StatusOK)
	if r.Method == http.MethodGet {
		w.Write(body)
	}
}

// ServeAudits answers an audit batch (see httpx.ServeAuditBatch):
// ServeHTTP routes one here from httpx.AuditPath, with or without push. A key is vouched for
// when the conditional GET it stands for would be a 304 carrying the
// Cache-Control the child holds, and is counted as that GET would be;
// a changed, missing or re-tolerated key is listed, and its GET, which
// follows, is counted then.
func (o *Origin) ServeAudits(w http.ResponseWriter, r *http.Request) {
	o.mu.Lock()
	o.auditBatches++
	o.mu.Unlock()
	httpx.ServeAuditBatch(w, r, func(l httpx.AuditLine) bool {
		// The object a GET for the key reaches: its decoded path.
		path, _, _ := strings.Cut(l.Key, "?")
		if p, err := url.PathUnescape(path); err == nil {
			path = p
		}
		o.mu.Lock()
		defer o.mu.Unlock()
		obj, ok := o.objects[path]
		if !ok || obj.modTimes[len(obj.modTimes)-1].After(l.Since) {
			return false
		}
		if cc := obj.tolerances.FormatCacheControl(); cc != "" && httpx.CacheControlToken(cc) != l.Token {
			return false
		}
		o.polls++
		o.notModified++
		return true
	})
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
