package httpx

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Audit batches extend HTTP once more for consistency: a child that
// would validate many keys against one upstream with one conditional GET
// each — its lease audits and its regular pull-mode polls alike — sends
// them as one POST on AuditPath instead, and the upstream answers every
// key at once. Every upstream serves that path, push or no push; only a
// POST carrying AuditContentType there is a batch.
//
// The request body is one line per key:
//
//	<key> <since> <cc-token>\n
//
// where key is the canonical (URL-escaped) cache key, since the
// If-Modified-Since the single GET would have sent, in Unix seconds, and
// cc-token CacheControlToken of the Cache-Control value the child holds,
// as 8 lowercase hex digits.
//
// The response lists, in any order, every key that is not a plain 304
// whose Cache-Control the child already holds (see Vouches): changed,
// missing, or otherwise not vouched for. A key left out is answered
// exactly as its conditional GET would have been, with a 304. A key
// listed plain,
//
//	<key>\n
//
// is one the child polls itself. A request that carries
// "A-IM: x-broadway-block2" (the delta-encoded GET's opt-in) may instead
// find a changed key answered inline, with what its conditional GET would
// have returned:
//
//	<key> <status> <last-modified> <history> <base> <result> <ct-len> <cc-len> <body-len>\n<content-type><cache-control><body>\n
//
// status is 226, body the delta from the body digested base to the one
// digested result (see push.VerifyDelta), or 200, body the whole body and
// both digests "-". last-modified is in Unix seconds; history is the
// X-Modification-History after since as comma-separated, ascending Unix
// seconds, at most MaxHistoryEntries of them, or "-" for none. The
// lengths count the raw bytes that follow the line, which carry no
// encoding; Content-Type and Cache-Control hold no control byte (see
// AuditValueOK). Both bodies carry AuditContentType and are bounded by
// MaxAuditBody; a request is also bounded by MaxAuditLines (over either
// is a 413).

// AuditPath is the one path every upstream answers audit batches on.
const AuditPath = "/.well-known/broadway-audit"

// AuditContentType marks an audit batch, request and response. A POST on
// AuditPath without it is not a batch.
const AuditContentType = "text/x-audit-batch"

// MaxAuditLines and MaxAuditBody bound one batch request.
const (
	MaxAuditLines = 256
	MaxAuditBody  = 64 << 10
)

// errAuditTooLarge reports a batch over MaxAuditLines or MaxAuditBody.
var errAuditTooLarge = errors.New("httpx: audit batch over its cap")

// AuditLine is one key of an audit batch.
type AuditLine struct {
	// Key is the canonical, URL-escaped cache key (see AuditKeyOK).
	Key string
	// Since is the validator the single conditional GET would send; it
	// travels at the second resolution of an HTTP date.
	Since time.Time
	// Token is CacheControlToken of the Cache-Control the child holds.
	Token uint32
}

// CacheControlToken is the short token a batch line carries for a
// Cache-Control value: its FNV-1a hash, on the wire as 8 lowercase hex
// digits.
func CacheControlToken(cc string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(cc); i++ {
		h ^= uint32(cc[i])
		h *= 16777619
	}
	return h
}

// AuditKeyOK reports whether key can travel on a batch line: it starts
// with '/' and holds no space, control byte or DEL — as every escaped
// cache key does.
func AuditKeyOK(key string) bool {
	if key == "" || key[0] != '/' {
		return false
	}
	for i := 0; i < len(key); i++ {
		if key[i] <= ' ' || key[i] == 0x7f {
			return false
		}
	}
	return true
}

// AppendAuditLine appends l's request line to dst. l.Key must satisfy
// AuditKeyOK and l.Since must not precede the Unix epoch.
func AppendAuditLine(dst []byte, l AuditLine) []byte {
	dst = append(dst, l.Key...)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, l.Since.Unix(), 10)
	dst = append(dst, ' ')
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, hexDigits[l.Token>>shift&0xf])
	}
	return append(dst, '\n')
}

// ParseAuditBatch parses a request body. It is strict, so every accepted
// line re-encodes (AppendAuditLine) to exactly its bytes.
func ParseAuditBatch(body []byte) ([]AuditLine, error) {
	if len(body) > MaxAuditBody {
		return nil, errAuditTooLarge
	}
	out := make([]AuditLine, 0, min(bytes.Count(body, []byte{'\n'}), MaxAuditLines))
	err := eachLine(body, func(line []byte) error {
		if len(out) == MaxAuditLines {
			return errAuditTooLarge
		}
		key, rest, ok := bytes.Cut(line, []byte{' '})
		if !ok {
			return fmt.Errorf("httpx: audit line %q has no since", line)
		}
		since, token, ok := bytes.Cut(rest, []byte{' '})
		tok, tokOK := parseToken(token)
		if !ok || !AuditKeyOK(string(key)) || !tokOK {
			return fmt.Errorf("httpx: malformed audit line %q", line)
		}
		secs, ok := parseUint(since)
		if !ok {
			return fmt.Errorf("httpx: bad audit since %q", since)
		}
		out = append(out, AuditLine{Key: string(key), Since: time.Unix(secs, 0), Token: tok})
		return nil
	})
	return out, err
}

// AuditAnswer is one key a batch's answer lists, and the form an answer
// to a validation takes whichever way it travels: a GET's too, which
// WriteAnswer renders.
type AuditAnswer struct {
	Key string
	// Status is 0 for a plain listing, whose key the child polls itself,
	// and http.StatusOK or http.StatusIMUsed for an inline answer; the
	// fields below are an inline answer's. A GET's http.StatusNotModified
	// never travels in a batch: the batch leaves the key out (see Vouches)
	// or lists it plain.
	Status int
	// LastModified and History are the answer's Last-Modified and
	// X-Modification-History; History is nil when the upstream sends none.
	LastModified time.Time
	History      []time.Time
	// Base and Result are a 226's Delta-Base and ETag digests; empty for
	// a 200.
	Base, Result string
	ContentType  string
	CacheControl string
	// Body is a 200's body, or a 226's delta.
	Body []byte
}

// Vouches reports whether a batch leaves l's key out: a, the answer l's
// conditional GET gets, is a 304 carrying the Cache-Control the child
// holds, or none — a 304 without one leaves the child's as it is, so
// listing the key would buy a GET on every audit that changes nothing.
func Vouches(a *AuditAnswer, l AuditLine) bool {
	return a.Status == http.StatusNotModified && (a.CacheControl == "" || CacheControlToken(a.CacheControl) == l.Token)
}

// WriteAnswer renders a, the answer to the GET or HEAD r, on w: its
// Last-Modified when set, Cache-Control (see AddCacheControl) and history,
// and, but on a 304, its Content-Type when set and its body — for a HEAD,
// the body's length (RFC 9110 §9.3.2), which no body states for it.
func WriteAnswer(w http.ResponseWriter, r *http.Request, a *AuditAnswer) {
	h := w.Header()
	if !a.LastModified.IsZero() {
		h.Set("Last-Modified", a.LastModified.UTC().Format(http.TimeFormat))
	}
	AddCacheControl(h, a.CacheControl)
	SetHistory(h, a.History)
	body := a.Status != http.StatusNotModified
	if body {
		if a.ContentType != "" {
			h.Set("Content-Type", a.ContentType)
		}
		if r.Method == http.MethodHead {
			h.Set("Content-Length", strconv.Itoa(len(a.Body)))
			body = false
		}
	}
	w.WriteHeader(a.Status)
	if body {
		w.Write(a.Body)
	}
}

// AuditValueOK reports whether s can travel as an inline answer's
// Content-Type or Cache-Control: it holds no control byte or DEL.
func AuditValueOK(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < ' ' || s[i] == 0x7f {
			return false
		}
	}
	return true
}

// AppendAuditAnswer appends a's line (and, inline, its bytes) to dst.
// a.Key must satisfy AuditKeyOK; an inline answer's headers must satisfy
// AuditValueOK, its times must not precede the Unix epoch, its History
// must ascend and hold at most MaxHistoryEntries times, and a 226 must
// name both digests, as lowercase hex.
func AppendAuditAnswer(dst []byte, a AuditAnswer) []byte {
	dst = append(dst, a.Key...)
	if a.Status == 0 {
		return append(dst, '\n')
	}
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(a.Status), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, a.LastModified.Unix(), 10)
	dst = append(dst, ' ')
	if len(a.History) == 0 {
		dst = append(dst, '-')
	}
	for i, t := range a.History {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, t.Unix(), 10)
	}
	for _, d := range []string{a.Base, a.Result} {
		dst = append(dst, ' ')
		if d == "" {
			d = "-"
		}
		dst = append(dst, d...)
	}
	for _, n := range []int{len(a.ContentType), len(a.CacheControl), len(a.Body)} {
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(n), 10)
	}
	dst = append(dst, '\n')
	dst = append(dst, a.ContentType...)
	dst = append(dst, a.CacheControl...)
	dst = append(dst, a.Body...)
	return append(dst, '\n')
}

// ParseAuditAnswer parses a response body. It is strict, so every
// accepted answer re-encodes (AppendAuditAnswer) to exactly its bytes.
// An inline answer's Body aliases body.
func ParseAuditAnswer(body []byte) ([]AuditAnswer, error) {
	if len(body) > MaxAuditBody {
		return nil, errAuditTooLarge
	}
	var out []AuditAnswer
	for len(body) > 0 {
		line, rest, ok := bytes.Cut(body, []byte{'\n'})
		if !ok {
			return nil, errors.New("httpx: audit body does not end in a newline")
		}
		f := bytes.Split(line, []byte{' '})
		a := AuditAnswer{Key: string(f[0])}
		if !AuditKeyOK(a.Key) {
			return nil, fmt.Errorf("httpx: malformed audit answer %q", line)
		}
		if len(f) == 1 {
			out, body = append(out, a), rest
			continue
		}
		lens, err := parseInline(&a, f)
		if err != nil {
			return nil, err
		}
		// Each length is at most MaxAuditBody: their sum cannot overflow.
		ct, cc, n := lens[0], lens[0]+lens[1], lens[0]+lens[1]+lens[2]
		if n >= len(rest) || rest[n] != '\n' {
			return nil, fmt.Errorf("httpx: audit answer for %s is not %d bytes and a newline", a.Key, n)
		}
		a.ContentType, a.CacheControl = string(rest[:ct]), string(rest[ct:cc])
		a.Body = rest[cc:n:n]
		if !AuditValueOK(a.ContentType) || !AuditValueOK(a.CacheControl) {
			return nil, fmt.Errorf("httpx: audit answer for %s carries a control byte", a.Key)
		}
		out, body = append(out, a), rest[n+1:]
	}
	return out, nil
}

// parseInline reads an inline answer's line, split at its spaces, into a,
// and returns the lengths of the Content-Type, Cache-Control and body
// that follow it.
func parseInline(a *AuditAnswer, f [][]byte) (lens [3]int, err error) {
	bad := func(what string, b []byte) error {
		return fmt.Errorf("httpx: audit answer for %s: bad %s %q", a.Key, what, b)
	}
	if len(f) != 9 {
		return lens, fmt.Errorf("httpx: audit answer for %s has %d fields", a.Key, len(f))
	}
	switch string(f[1]) {
	case "200":
		a.Status = http.StatusOK
	case "226":
		a.Status = http.StatusIMUsed
	default:
		return lens, bad("status", f[1])
	}
	lm, ok := parseUint(f[2])
	if !ok {
		return lens, bad("last-modified", f[2])
	}
	a.LastModified = time.Unix(lm, 0)
	if string(f[3]) != "-" {
		for _, t := range bytes.Split(f[3], []byte{','}) {
			secs, ok := parseUint(t)
			if !ok || len(a.History) == MaxHistoryEntries || len(a.History) > 0 && secs <= a.History[len(a.History)-1].Unix() {
				return lens, bad("history", f[3])
			}
			a.History = append(a.History, time.Unix(secs, 0))
		}
	}
	for i, d := range []*string{&a.Base, &a.Result} {
		b := f[4+i]
		switch {
		case a.Status == http.StatusOK && string(b) == "-":
		case a.Status == http.StatusIMUsed && len(b) <= 64 && hexOK(b):
			*d = string(b)
		default:
			return lens, bad("digest", b)
		}
	}
	for i := range lens {
		n, ok := parseUint(f[6+i])
		if !ok || n > MaxAuditBody {
			return lens, bad("length", f[6+i])
		}
		lens[i] = int(n)
	}
	return lens, nil
}

// parseUint parses a canonical non-negative decimal: no sign, no leading
// zero.
func parseUint(b []byte) (int64, bool) {
	if len(b) == 0 || len(b) > 1 && b[0] == '0' {
		return 0, false
	}
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
	}
	n, err := strconv.ParseInt(string(b), 10, 64)
	return n, err == nil
}

const hexDigits = "0123456789abcdef"

// hexOK reports whether b is non-empty lowercase hex.
func hexOK(b []byte) bool {
	for _, c := range b {
		if strings.IndexByte(hexDigits, c) < 0 {
			return false
		}
	}
	return len(b) > 0
}

// parseToken parses a line's 8-hex-digit cc-token.
func parseToken(b []byte) (uint32, bool) {
	if len(b) != 8 || !hexOK(b) {
		return 0, false
	}
	n, err := strconv.ParseUint(string(b), 16, 32)
	return uint32(n), err == nil
}

// eachLine calls fn with every line of body; each must end in '\n'.
func eachLine(body []byte, fn func([]byte) error) error {
	for len(body) > 0 {
		line, rest, ok := bytes.Cut(body, []byte{'\n'})
		if !ok {
			return errors.New("httpx: audit body does not end in a newline")
		}
		if err := fn(line); err != nil {
			return err
		}
		body = rest
	}
	return nil
}

// IsAuditBatch reports whether r is an audit batch request: a POST on
// AuditPath carrying AuditContentType.
func IsAuditBatch(r *http.Request) bool {
	return r.Method == http.MethodPost && r.URL.Path == AuditPath && r.Header.Get("Content-Type") == AuditContentType
}

// ReadAuditBody reads an audit batch or answer body, at most
// MaxAuditBody+1 bytes of it: one past the cap, so the parser can refuse
// an over-long one. A declared length n (an http ContentLength, -1 when
// unknown) within that bound sizes the buffer once; an absent or wrong
// one costs only the growth a read of unknown length pays.
func ReadAuditBody(r io.Reader, n int64) ([]byte, error) {
	if n < 0 || n > MaxAuditBody+1 {
		return io.ReadAll(io.LimitReader(r, MaxAuditBody+1))
	}
	lr := io.LimitedReader{R: r, N: MaxAuditBody + 1}
	b := make([]byte, 0, n+1) // +1: the read that finds the end needs room
	for {
		m, err := lr.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// ServeAuditBatch answers the audit batch r with the body answer builds
// from its lines (see AppendAuditAnswer), which must stay within
// MaxAuditBody, and declares its length. A body over the caps is a 413,
// a malformed one a 400.
func ServeAuditBatch(w http.ResponseWriter, r *http.Request, answer func([]AuditLine) []byte) {
	body, err := ReadAuditBody(r.Body, r.ContentLength)
	if err != nil {
		http.Error(w, "unreadable audit batch", http.StatusBadRequest)
		return
	}
	lines, err := ParseAuditBatch(body)
	switch {
	case errors.Is(err, errAuditTooLarge):
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	out := answer(lines)
	w.Header().Set("Content-Type", AuditContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	w.WriteHeader(http.StatusOK)
	w.Write(out)
}
