package webproxy

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"broadway/internal/httpx"
)

// This file batches lease audits. A leased key's regular poll is an audit
// of the channel (see lease.go), and every audit instant lies on a grid
// of L/auditBuckets (see auditAt), so the keys due in one bucket pop off
// the schedule together. The dispatcher hands them to
// sendAudits instead of to their workers one by one, and each batch of
// them crosses the link as one request: a POST on the upstream's event
// path (the origin's /events, a parent proxy's RelayPath) in the httpx
// audit grammar. Whatever the upstream vouches for unchanged is
// installed on the key's affinity worker as the 304 its conditional GET
// would have returned — validated at the answer's arrival, evidence of
// the lease epoch in force when the batch was sent — and every key it
// lists polls by itself, exactly as without batches. Nothing else
// changes: each key is still one validation, one observation, one LIMD
// step, so every bound in lease.go's table holds as it did.
//
// A batch that fails in transport, or is refused, sends its keys down
// the per-key path. An upstream that does not speak the grammar (404 or
// 405) is asked no more until the next connect of the push stream, and
// a PushURL on another host than Origin is never asked: the event path
// is only the right upstream when it serves the same objects.

// auditAnswer is the upstream's 304 for a key a batch vouched for.
type auditAnswer struct {
	now   time.Time  // when the answer arrived
	epoch *time.Time // the lease epoch the batch was sent in
}

// auditEndpoint returns the URL batches go to: the push URL, when it is
// on Origin's host. Nil without leases.
func (p *Proxy) auditEndpoint() *url.URL {
	u, o := p.cfg.PushURL, p.cfg.Origin
	if p.lease.term <= 0 || u == nil || u.Scheme != o.Scheme || u.Host != o.Host {
		return nil
	}
	return u
}

// sendAudits sends the leased audits one dispatcher pass popped, as
// batches within the grammar's caps, one after another on a goroutine of
// their own so the dispatcher never waits on the link. At most one pass
// per poll worker is in flight; a pass beyond that, and a key no batch
// can carry, polls key by key on the workers, as every key did before
// batches. Every key is already counted in pending.
func (p *Proxy) sendAudits(due []*entry) {
	if len(due) == 0 {
		return
	}
	select {
	case p.auditSlots <- struct{}{}:
	default:
		for _, e := range due {
			p.workerFor(e).enqueue(job{e: e, kind: pollRegular})
		}
		return
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer func() { <-p.auditSlots }()
		var batch []*entry
		var body []byte
		for _, e := range due {
			line := auditLine(e)
			if line == nil {
				p.workerFor(e).enqueue(job{e: e, kind: pollRegular})
				continue
			}
			if len(batch) == httpx.MaxAuditLines || len(body)+len(line) > httpx.MaxAuditBody {
				p.auditBatch(batch, body)
				batch, body = nil, nil
			}
			batch, body = append(batch, e), append(body, line...)
		}
		if len(batch) > 0 {
			p.auditBatch(batch, body)
		}
	}()
}

// auditLine is e's line in a batch, carrying the validator and the
// Cache-Control its conditional GET would; nil for a key no batch can
// carry, and for one evicted since it was popped, whose job then drops
// it without a request.
func auditLine(e *entry) []byte {
	if e.evicted.Load() {
		return nil
	}
	e.mu.RLock()
	since := e.lastMod
	if !e.hasLastMod {
		since = e.validatedAt
	}
	cc := e.cacheControl
	e.mu.RUnlock()
	if since.Unix() <= 0 || !httpx.AuditKeyOK(e.key) {
		return nil
	}
	line := httpx.AppendAuditLine(nil, httpx.AuditLine{Key: e.key, Since: since, Token: httpx.CacheControlToken(cc)})
	if len(line) > httpx.MaxAuditBody {
		return nil
	}
	return line
}

// auditBatch sends one batch and routes each key to its worker: a
// pre-answered 304 for a key the upstream vouched for, a poll of its own
// for every key it listed — and for every key, when the batch failed.
func (p *Proxy) auditBatch(batch []*entry, body []byte) {
	p.auditBatches.Add(1)
	epoch := p.lease.epoch.Load()
	listed, ok := p.postAudits(body)
	answer := &auditAnswer{now: p.cfg.Clock(), epoch: epoch}
	for _, e := range batch {
		j := job{e: e, kind: pollRegular}
		if ok && !listed[e.key] {
			j.answered = answer
		}
		p.workerFor(e).enqueue(j)
	}
}

// postAudits posts a batch body upstream and returns the keys the answer
// lists; ok is false when there is no usable answer.
func (p *Proxy) postAudits(body []byte) (listed map[string]bool, ok bool) {
	req, err := http.NewRequest(http.MethodPost, p.auditURL.String(), bytes.NewReader(body))
	if err != nil {
		return nil, false
	}
	req.Header.Set("Content-Type", httpx.AuditContentType)
	resp, err := p.cfg.Client.Do(req)
	if err != nil {
		p.noteUpstream(err)
		return nil, false
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		p.noteUpstream(nil)
	case http.StatusNotFound, http.StatusMethodNotAllowed:
		p.noteUpstream(nil)        // reachable, but not speaking the grammar
		p.auditRefused.Store(true) // until the next connect
		return nil, false
	default:
		p.noteUpstream(fmt.Errorf("webproxy: audit batch answered %s", resp.Status))
		return nil, false
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, httpx.MaxAuditBody+1))
	if err != nil {
		return nil, false
	}
	keys, err := httpx.ParseAuditAnswer(raw)
	if err != nil {
		return nil, false
	}
	listed = make(map[string]bool, len(keys))
	for _, k := range keys {
		listed[k] = true
	}
	return listed, true
}

// installAnswered installs the 304 a batch answered for e, as pollEntry
// would install the same reply to e's own conditional GET.
func (p *Proxy) installAnswered(e *entry, a *auditAnswer) {
	if e.evicted.Load() {
		return
	}
	e.mu.RLock()
	lastMod, hasLastMod := e.lastMod, e.hasLastMod
	e.mu.RUnlock()
	p.install(e, pollRegular, version{now: a.now, lastMod: lastMod, hasLastMod: hasLastMod, epoch: a.epoch})
}

// serveAudits answers a child's audit batch from the cache, as
// serveEntry would answer each key's conditional GET: a resident,
// validated copy no newer than the child's, with the Cache-Control the
// child holds, is vouched for and counted as a hit. A key that is not
// resident, is still suspect, or changed is listed, and the child's own
// GET for it then admits, labels or serves it as usual.
func (p *Proxy) serveAudits(w http.ResponseWriter, r *http.Request) {
	httpx.ServeAuditBatch(w, r, func(l httpx.AuditLine) bool {
		e := p.lookup(l.Key)
		if e == nil || e.evicted.Load() || e.suspect.Load() {
			return false
		}
		e.mu.RLock()
		lastMod, hasLastMod, cc := e.lastMod, e.hasLastMod, e.cacheControl
		e.mu.RUnlock()
		if !hasLastMod || lastMod.After(l.Since) || (cc != "" && httpx.CacheControlToken(cc) != l.Token) {
			return false
		}
		e.hits.Add(1)
		e.markAccessed()
		return true
	})
}
