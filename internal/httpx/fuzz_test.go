package httpx

import (
	"bytes"
	"testing"
)

// Fuzz targets: the parsers face attacker-controlled header bytes in the
// live proxy, so they must never panic, whatever the input.

func FuzzParseHistory(f *testing.F) {
	f.Add("")
	f.Add("Tue, 07 Aug 2001 13:04:00 GMT")
	f.Add("Tue, 07 Aug 2001 13:04:00 GMT, Wed, 08 Aug 2001 09:00:00 GMT")
	f.Add("GMT,GMT,GMT")
	f.Add("garbage GMT trailing")
	f.Fuzz(func(t *testing.T, value string) {
		times, err := ParseHistory(value)
		if err == nil {
			// Whatever parses must re-serialize and re-parse cleanly.
			back, err2 := ParseHistory(FormatHistory(times))
			if err2 != nil {
				t.Fatalf("round trip failed: %v", err2)
			}
			if len(back) != len(times) {
				t.Fatalf("round trip length %d != %d", len(back), len(times))
			}
		}
	})
}

func FuzzParseCacheControl(f *testing.F) {
	f.Add("")
	f.Add("max-age=300, x-cc-delta=15")
	f.Add(`x-mc-group="a,b", x-mc-delta=9`)
	f.Add("x-cc-vdelta=250,,,=,x=,=y")
	f.Fuzz(func(t *testing.T, value string) {
		tol, err := ParseCacheControl(value)
		if err == nil && !tol.IsZero() {
			if _, err2 := ParseCacheControl(tol.FormatCacheControl()); err2 != nil {
				t.Fatalf("round trip failed: %v", err2)
			}
		}
	})
}

// FuzzAuditBatch: an audit batch body is attacker-controlled bytes at
// every upstream that answers one. The parser must never panic, must
// refuse anything over the line and byte caps, and must accept only the
// canonical spelling: every accepted line re-encodes to exactly its
// bytes. The answer parser is held to the same.
func FuzzAuditBatch(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("/a 1700000000 0123abcd\n"))
	f.Add([]byte("/s1/k1 1700000000 811c9dc5\n/s2/k2?x=1 0 00000000\n"))
	f.Add([]byte("/a 01 0123abcd\n"))
	f.Add([]byte("/a -1 0123abcd\n/b 1 ABCDEF01\n"))
	f.Add([]byte("/a 1 0123abcd"))
	f.Add([]byte("/a\n/b\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		lines, err := ParseAuditBatch(body)
		if len(body) > MaxAuditBody && err != errAuditTooLarge {
			t.Fatalf("%d-byte body over the cap parsed with error %v", len(body), err)
		}
		if err == nil {
			if len(lines) > MaxAuditLines {
				t.Fatalf("%d lines accepted, cap %d", len(lines), MaxAuditLines)
			}
			var back []byte
			for _, l := range lines {
				back = AppendAuditLine(back, l)
			}
			if !bytes.Equal(back, body) {
				t.Fatalf("re-encoded %q, parsed from %q", back, body)
			}
		}
	})
}

// FuzzAuditAnswer: an audit batch's answer is the upstream's bytes at the
// child that posted it, and an inline answer carries raw bodies by
// declared length. The parser must never panic, must refuse anything over
// MaxAuditBody, must accept only the canonical spelling — every accepted
// answer re-encodes to exactly its bytes — and must hold an inline
// answer to its declared length: one byte short of it, or one over, is
// refused.
func FuzzAuditAnswer(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("/a\n/b?x=1\n"))
	f.Add([]byte("/a 200 997189440 - - - 10 13 2\ntext/plainx-cc-delta=30v2\n/b\n"))
	f.Add([]byte("/a 226 997189440 997189380,997189440 0123456789abcdef fedcba9876543210 0 0 3\n\x01\x01x\n"))
	f.Add([]byte("/a 226 997189440 - - - 0 0 0\n\n"))
	f.Add([]byte("/a 200 01 - - - 0 0 1\nxx\n"))
	f.Add([]byte("/a 200 1 2,1 - - 0 0 0\n\n"))
	f.Add([]byte("/a 200 1 - - - 0 0 5\nab\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		answers, err := ParseAuditAnswer(body)
		if len(body) > MaxAuditBody && err != errAuditTooLarge {
			t.Fatalf("%d-byte answer over the cap parsed with error %v", len(body), err)
		}
		if err != nil {
			return
		}
		var back []byte
		for _, a := range answers {
			back = AppendAuditAnswer(back, a)
		}
		if !bytes.Equal(back, body) {
			t.Fatalf("answer re-encoded %q, parsed from %q", back, body)
		}
		for _, a := range answers {
			one := AppendAuditAnswer(nil, a)
			if a.Status == 0 || len(one) > MaxAuditBody-1 {
				continue
			}
			over := append(one[:len(one)-1:len(one)-1], 'x', '\n')
			if _, err := ParseAuditAnswer(over); err == nil {
				t.Fatalf("%q accepted, one byte over its declared length", over)
			}
			if n := len(a.ContentType) + len(a.CacheControl) + len(a.Body); n > 0 {
				short := append(one[:len(one)-2:len(one)-2], '\n')
				if _, err := ParseAuditAnswer(short); err == nil {
					t.Fatalf("%q accepted, one byte short of its declared length", short)
				}
			}
		}
	})
}
