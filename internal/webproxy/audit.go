package webproxy

import (
	"bytes"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"broadway/internal/httpx"
	"broadway/internal/push"
)

// This file batches validations: a key's regular poll, whether a lease
// audit (see lease.go) or a pull-mode poll of an unleased key, crosses the
// link as one line of a batch — a POST on httpx.AuditPath, which every
// upstream serves, push or no push — instead of as a conditional GET of
// its own. The dispatcher hands the polls one pass popped to sendAudits.
// Leased audit instants lie on a grid of L/auditBuckets (see auditAt), so
// a bucket's audits pop together. Pull-mode instants have no grid: a
// pass that pops an unleased poll also pops every unleased poll due
// within piggybackWindow of now (see popLocked), early only, so no poll
// runs later than its instant or more than the window before it.
//
// Whatever the upstream vouches for unchanged is installed on the key's
// affinity worker as the 304 its conditional GET would have returned —
// validated at the answer's arrival, evidence of the lease epoch in force
// when the batch was sent. A batch asks for inline answers (A-IM, as the
// delta-encoded GET does): a changed key the upstream answers inline is
// installed the same way from the 226 or 200 its GET would have returned,
// a delta only once it verifies against the body held then (see
// installAnswered). Every key listed plain polls by itself, exactly as
// without batches. Nothing else changes: each key is still one
// validation, one observation, one LIMD step, so every bound in lease.go's
// table holds as it did. A pass with a single key to validate sends its
// GET: a one-line batch costs more on the wire than the GET and 304 it
// replaces.
//
// A batch that fails in transport, or is refused, sends its keys down
// the per-key path. An upstream that does not speak the grammar (404 or
// 405, or a 200 that is not an answer) is asked no more until the next
// connect of the push stream, or, for a proxy without one, until
// auditRetryTerms × Bounds.Max have passed; meanwhile every poll runs at
// its own instant, as a GET.

// auditRetryTerms × Bounds.Max is how long a proxy with no push stream
// to reconnect waits before it offers a refusing upstream a batch again.
const auditRetryTerms = 8

// piggybackShare is the early window for pull-mode polls as a share of
// Bounds.Min: a pass that pops an unleased poll also pops those due within
// Bounds.Min/piggybackShare of now (see popLocked).
const piggybackShare = 32

// auditEndpoint returns the URL batches go to: httpx.AuditPath on Origin's
// scheme and host.
func (p *Proxy) auditEndpoint() *url.URL {
	return &url.URL{Scheme: p.cfg.Origin.Scheme, Host: p.cfg.Origin.Host, Path: httpx.AuditPath}
}

// batching reports whether the upstream is offered batches at now: it has
// refused none since the push stream last connected, or — with no push
// stream to reconnect — none in the last auditRetryTerms × Bounds.Max.
func (p *Proxy) batching(now time.Time) bool {
	at := p.auditRefused.Load()
	return at == nil || p.sub == nil && !now.Before(at.Add(auditRetryTerms*p.maxBackoff()))
}

// piggybackWindow is how far ahead of its instant a pull-mode poll may be
// popped into a pass's batches (see popLocked).
func (p *Proxy) piggybackWindow() time.Duration {
	return p.cfg.Bounds.Min / piggybackShare
}

// sendAudits sends the regular polls one dispatcher pass popped, as
// batches within the grammar's caps and of even size, one after another
// on a goroutine of their own so the dispatcher never waits on the link.
// At most one pass per poll worker is in flight; a pass beyond that, a
// key no batch can carry, and a batch that would hold a single key poll
// key by key on the workers, as every key did before batches. Every key
// is already counted in pending.
func (p *Proxy) sendAudits(due []*entry) {
	if len(due) == 0 {
		return
	}
	select {
	case p.auditSlots <- struct{}{}:
	default:
		p.pollEach(due)
		return
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer func() { <-p.auditSlots }()
		var keys []*entry
		var lines [][]byte
		for _, e := range due {
			if line := auditLine(e); line != nil {
				keys, lines = append(keys, e), append(lines, line)
			} else {
				p.pollEach([]*entry{e})
			}
		}
		// As many batches as the line cap needs, of even size: 257 keys
		// go as 129 and 128, never as 256 and a lone GET.
		batches := (len(keys) + httpx.MaxAuditLines - 1) / httpx.MaxAuditLines
		per := len(keys)
		if batches > 1 {
			per = (len(keys) + batches - 1) / batches
		}
		var body []byte
		from := 0
		for i, line := range lines {
			if i-from == per || len(body)+len(line) > httpx.MaxAuditBody {
				p.auditBatch(keys[from:i], body)
				from, body = i, nil
			}
			body = append(body, line...)
		}
		p.auditBatch(keys[from:], body)
	}()
}

// pollEach hands each of keys its own regular poll on its worker.
func (p *Proxy) pollEach(keys []*entry) {
	for _, e := range keys {
		p.workerFor(e).enqueue(job{e: e, kind: pollRegular})
	}
}

// auditLine is e's line in a batch, carrying the validator and the
// Cache-Control its conditional GET would; nil for a key no batch can
// carry, and for one evicted since it was popped, whose job then drops
// it without a request.
func auditLine(e *entry) []byte {
	if e.evicted() {
		return nil
	}
	e.mu.RLock()
	since := e.since()
	cc := e.cacheControl.String()
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
// pre-answered 304 for a key the upstream vouched for, the inline answer
// for a key it answered inline (see answerVersion), a poll of its own for
// every key it listed plain — and for every key, when the batch failed. A
// batch of one key is its GET.
func (p *Proxy) auditBatch(batch []*entry, body []byte) {
	if len(batch) < 2 {
		p.pollEach(batch)
		return
	}
	p.auditBatches.Add(1)
	epoch := p.lease.epoch.Load()
	listed, ok := p.postAudits(body)
	now := p.cfg.Clock()
	vouched := answerVersion(&httpx.AuditAnswer{Status: http.StatusNotModified}, now, epoch)
	for _, e := range batch {
		j := job{e: e, kind: pollRegular}
		if ok {
			switch a := listed[e.key]; {
			case a == nil:
				j.answered = vouched
			case a.Status != 0:
				j.answered = answerVersion(a, now, epoch)
			}
		}
		p.workerFor(e).enqueue(j)
	}
}

// postAudits posts a batch body upstream, asking for inline answers, and
// returns what the answer lists by key; ok is false when there is no
// usable answer.
func (p *Proxy) postAudits(body []byte) (listed map[string]*httpx.AuditAnswer, ok bool) {
	req, err := http.NewRequest(http.MethodPost, p.auditEndpoint().String(), bytes.NewReader(body))
	if err != nil {
		return nil, false
	}
	req.Header.Set("Content-Type", httpx.AuditContentType)
	req.Header.Set(push.HeaderAIM, push.DeltaIM)
	resp, err := p.cfg.Client.Do(req)
	if err != nil {
		p.noteUpstream(err)
		return nil, false
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusNotFound, http.StatusMethodNotAllowed:
		p.noteUpstream(nil)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != httpx.AuditContentType {
			// Reachable, but not speaking the grammar: until the next
			// connect, or the back-off (see batching).
			now := p.cfg.Clock()
			p.auditRefused.Store(&now)
			return nil, false
		}
	default:
		p.noteUpstream(fmt.Errorf("webproxy: audit batch answered %s", resp.Status))
		return nil, false
	}
	raw, err := httpx.ReadAuditBody(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, false
	}
	answers, err := httpx.ParseAuditAnswer(raw)
	if err != nil {
		return nil, false
	}
	listed = make(map[string]*httpx.AuditAnswer, len(answers))
	for i := range answers {
		listed[answers[i].Key] = &answers[i]
	}
	return listed, true
}

// installAnswered installs the answer a batch gave for e under the rules
// pollEntry applies to the same reply to e's own conditional GET: a 304
// keeps the held Last-Modified, an unstorable answer evicts, and an
// inline 226 lands only as the body rebuild verifies against the body
// held now. Unlike a GET's answer, an inline one can arrive after a poll
// of e's own that ran since the batch was sent: an inline 200 no newer
// than the copy held now would step it back. A refused inline answer — a
// 226 that does not verify, or such a 200 — is counted in DeltaFallbacks
// and followed by the key's own poll, whose answer stands.
func (p *Proxy) installAnswered(e *entry, answer *version) {
	if e.evicted() {
		return
	}
	v := *answer
	e.mu.RLock()
	held, hasHeld := e.lastModified()
	base := e.body
	e.mu.RUnlock()
	refused := false
	switch {
	case !v.modified:
		v.lastMod, v.hasLastMod = held, hasHeld
	case unstorable(v.cacheControl):
		p.Evict(e.key)
		return
	case v.delta != nil:
		refused = !p.rebuild(&v, base)
	default:
		refused = hasHeld && !v.lastMod.After(held)
	}
	if refused {
		p.deltaFallbacks.Add(1)
		p.pollEntry(e, pollRegular)
		return
	}
	p.install(e, pollRegular, v)
}

// serveAudits answers a child's audit batch from the cache, with or
// without RelayEvents, as serveEntry would answer each key's conditional
// GET: a resident, validated copy no newer than the child's, with the
// Cache-Control the child holds, is vouched for and counted as a hit. A
// key that is not resident, is still suspect, or changed is listed plain,
// whatever the batch's A-IM, and the child's own GET for it then admits,
// labels or serves it as usual.
func (p *Proxy) serveAudits(w http.ResponseWriter, r *http.Request) {
	httpx.ServeAuditBatch(w, r, func(lines []httpx.AuditLine) (answer []byte) {
		for _, l := range lines {
			if !p.vouches(l) {
				answer = httpx.AppendAuditAnswer(answer, httpx.AuditAnswer{Key: l.Key})
			}
		}
		return answer
	})
}

// vouches reports whether the cache answers l's conditional GET with a
// 304 carrying the Cache-Control the child holds, and counts the hit.
func (p *Proxy) vouches(l httpx.AuditLine) bool {
	e := p.lookup(l.Key)
	if e == nil || e.evicted() || e.suspect() {
		return false
	}
	e.mu.RLock()
	lastMod, hasLastMod := e.lastModified()
	cc := e.cacheControl.String()
	e.mu.RUnlock()
	// An empty Cache-Control vouches whatever token the child holds: the
	// conditional GET this line stands for would be a 304 with no
	// Cache-Control, which leaves the child's stored one as it is (see
	// headersOver), so listing the key would buy a GET on every audit that
	// changes nothing.
	if !hasLastMod || lastMod.After(l.Since) || (cc != "" && httpx.CacheControlToken(cc) != l.Token) {
		return false
	}
	e.hits.Add(1)
	e.markAccessed()
	return true
}
