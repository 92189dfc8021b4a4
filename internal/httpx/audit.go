package httpx

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
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
// cc-token CacheControlToken of the Cache-Control value the child holds.
// The response lists, one key per line (<key>\n), every key that is not
// a plain 304 whose Cache-Control the child already holds: changed,
// missing, or otherwise not vouched for. A key left out is answered
// exactly as its conditional GET would have been, with a 304. Both
// bodies carry AuditContentType, and a request is bounded by
// MaxAuditLines and MaxAuditBody (over either is a 413).

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
	Token string
}

// CacheControlToken is the short token a batch line carries for a
// Cache-Control value: 8 lowercase hex digits of its FNV-1a hash.
func CacheControlToken(cc string) string {
	h := fnv.New32a()
	io.WriteString(h, cc)
	return fmt.Sprintf("%08x", h.Sum32())
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
	dst = append(dst, l.Token...)
	return append(dst, '\n')
}

// ParseAuditBatch parses a request body. It is strict, so every accepted
// line re-encodes (AppendAuditLine) to exactly its bytes.
func ParseAuditBatch(body []byte) ([]AuditLine, error) {
	if len(body) > MaxAuditBody {
		return nil, errAuditTooLarge
	}
	var out []AuditLine
	err := eachLine(body, func(line []byte) error {
		if len(out) == MaxAuditLines {
			return errAuditTooLarge
		}
		key, rest, ok := bytes.Cut(line, []byte{' '})
		if !ok {
			return fmt.Errorf("httpx: audit line %q has no since", line)
		}
		since, token, ok := bytes.Cut(rest, []byte{' '})
		if !ok || !AuditKeyOK(string(key)) || !tokenOK(token) {
			return fmt.Errorf("httpx: malformed audit line %q", line)
		}
		secs, err := strconv.ParseInt(string(since), 10, 64)
		if err != nil || secs < 0 || strconv.FormatInt(secs, 10) != string(since) {
			return fmt.Errorf("httpx: bad audit since %q", since)
		}
		out = append(out, AuditLine{Key: string(key), Since: time.Unix(secs, 0), Token: string(token)})
		return nil
	})
	return out, err
}

// appendAuditAnswer appends one listed key of a response to dst.
func appendAuditAnswer(dst []byte, key string) []byte {
	return append(append(dst, key...), '\n')
}

// ParseAuditAnswer parses a response body into the keys it lists.
func ParseAuditAnswer(body []byte) ([]string, error) {
	if len(body) > MaxAuditBody {
		return nil, errAuditTooLarge
	}
	var keys []string
	err := eachLine(body, func(line []byte) error {
		if !AuditKeyOK(string(line)) {
			return fmt.Errorf("httpx: malformed audit answer %q", line)
		}
		keys = append(keys, string(line))
		return nil
	})
	return keys, err
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

func tokenOK(t []byte) bool {
	if len(t) != 8 {
		return false
	}
	for _, c := range t {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// IsAuditBatch reports whether r is an audit batch request: a POST on
// AuditPath carrying AuditContentType.
func IsAuditBatch(r *http.Request) bool {
	return r.Method == http.MethodPost && r.URL.Path == AuditPath && r.Header.Get("Content-Type") == AuditContentType
}

// ServeAuditBatch answers the audit batch r. unchanged reports whether a
// line's key is a plain 304 with the Cache-Control the child holds, and
// performs whatever side effects that conditional GET would have had;
// every other key is listed. A body over the caps is a 413, a malformed
// one a 400.
func ServeAuditBatch(w http.ResponseWriter, r *http.Request, unchanged func(AuditLine) bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxAuditBody+1))
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
	var answer []byte
	for _, l := range lines {
		if !unchanged(l) {
			answer = appendAuditAnswer(answer, l.Key)
		}
	}
	w.Header().Set("Content-Type", AuditContentType)
	w.WriteHeader(http.StatusOK)
	w.Write(answer)
}
