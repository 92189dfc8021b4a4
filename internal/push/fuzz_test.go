package push

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"
)

// FuzzInvalidationEvent hammers the wire decoder with arbitrary bytes.
// The invariants are the ones the proxy's scheduler depends on:
//
//   - Decode never panics, whatever the input.
//   - An accepted frame re-encodes to a frame that decodes to the same
//     event (the decoder cannot invent state the encoder cannot
//     represent, so a hostile frame cannot smuggle impossible values
//     into the subscription manager) — payload, digest and content type
//     included.
//   - An accepted update frame always carries a non-empty key and a
//     known kind — the two fields the proxy dispatches on.
//   - An accepted payload never exceeds MaxPayloadCap, and a frame with
//     a payload always has HasBody set (the apply path branches on it).
//   - An accepted event is never Oversized: Decode and Oversized measure
//     the envelope the same way.
func FuzzInvalidationEvent(f *testing.F) {
	f.Add(Event{Kind: KindHello, Seq: 1, Reset: true}.Encode())
	f.Add(Event{Kind: KindUpdate, Seq: 2, Key: "/news/story.html", ModTime: time.Unix(1700000000, 123)}.Encode())
	f.Add(Event{Kind: KindUpdate, Seq: 3, Key: "/stock?sym=A&x=%20"}.Encode())
	f.Add(Event{Kind: KindHeartbeat, Seq: 4}.Encode())
	// Payload seeds: a body with digest, empty-body payload, payload-free
	// digest (a stripped frame).
	f.Add(Event{Kind: KindUpdate, Seq: 5, Key: "/quote/acme", Body: []byte("165.38\n"),
		HasBody: true, ContentType: "text/plain", Digest: DigestOf([]byte("165.38\n")),
		ModTime: time.Unix(1700000000, 0)}.Encode())
	f.Add(Event{Kind: KindUpdate, Seq: 7, Key: "/e", Body: []byte{}, HasBody: true}.Encode())
	f.Add(Event{Kind: KindUpdate, Seq: 8, Key: "/s", Digest: "deadbeef00112233"}.Encode())
	// Ladder seeds: a pure delta frame, first/last chunks of a set, and a
	// cap-boundary chunk set (index MaxChunkTotal-1 of MaxChunkTotal).
	f.Add(Event{Kind: KindUpdate, Seq: 9, Key: "/doc", Body: []byte{0x01, 0x02, 'h', 'i'},
		HasBody: true, Digest: DigestOf([]byte("target")),
		BaseDigest: DigestOf([]byte("base")), DeltaCodec: DeltaCodecBlock,
		ModTime: time.Unix(1700000001, 0)}.Encode())
	f.Add(Event{Kind: KindUpdate, Seq: 10, Key: "/doc", Body: []byte("chunk zero"),
		HasBody: true, Digest: DigestOf([]byte("whole")), ChunkIndex: 0, ChunkTotal: 3}.Encode())
	f.Add(Event{Kind: KindUpdate, Seq: 11, Key: "/doc", Body: []byte("last"),
		HasBody: true, Digest: DigestOf([]byte("whole")), ChunkIndex: 2, ChunkTotal: 3}.Encode())
	f.Add(Event{Kind: KindUpdate, Seq: 12, Key: "/doc", Body: []byte("edge"),
		HasBody: true, Digest: DigestOf([]byte("whole")),
		ChunkIndex: MaxChunkTotal - 1, ChunkTotal: MaxChunkTotal}.Encode())
	// A value frame carrying the object's Cache-Control.
	f.Add(Event{Kind: KindUpdate, Seq: 13, Key: "/quote/acme", Body: []byte("165.38\n"),
		HasBody: true, Digest: DigestOf([]byte("165.38\n")),
		CacheControl: "x-cc-delta=30, x-mc-group=news, x-mc-delta=60"}.Encode())
	// Payloads of the bytes the line reserves, each escaped: alone, as
	// the whole payload, mid-frame and as the frame's last field; the
	// one-byte '-' payload; and escapes the decoder must refuse.
	for _, p := range []string{" ", "\n", "\r", "%", " \r\n%", "-", "a-b", "\x00\x85\xa0 \t"} {
		f.Add(Event{Kind: KindUpdate, Seq: 14, Key: "/r", Body: []byte(p), HasBody: true}.Encode())
		f.Add(Event{Kind: KindUpdate, Seq: 15, Key: "/r", Body: []byte(p), HasBody: true,
			Digest: DigestOf([]byte(p)), CacheControl: "max-age=1"}.Encode())
	}
	f.Add("2 1 0 p /k ab%")
	f.Add("2 1 0 p /k a%Ab deadbeef")
	f.Add("2 1 0 p /k %m%m")
	f.Add("2 1 0 p /k a\rb deadbeef")
	// Hostile lines the decoder must refuse: a non-hex base digest, a
	// base without its codec (and vice versa), chunk index beyond the
	// total, a total beyond MaxChunkTotal, a delta on a payload-less
	// frame, delta and chunk state on one frame, ladder state on a hello,
	// a frame ending in an empty field, the retired six-core-field
	// spelling with and without a group token, and the retired hello
	// echoing a payload cap.
	f.Add("2 12 0 p /k aGk= deadbeef - ZZZZ 1")
	f.Add("2 13 0 p /k aGk= deadbeef - deadbeef 0")
	f.Add("2 14 0 p /k aGk= deadbeef - - 1")
	f.Add("2 15 0 p /k aGk= deadbeef - - 0 5 3")
	f.Add("2 16 0 p /k aGk= deadbeef - - 0 0 1025")
	f.Add("2 17 0 - /k - - - deadbeef 1")
	f.Add("2 18 0 p /k aGk= deadbeef - deadbeef 1 0 3")
	f.Add("1 19 0 r - - - - deadbeef 1")
	f.Add("2 1 0 - /k - -")
	f.Add("2 1 0 - /k -")
	f.Add("2 1 0 - /k grp")
	f.Add("1 7 0 - - -")
	f.Add("1 7 0 - - - - - - 65536")
	f.Add("1 7 0 - - - - - 65536")
	f.Add("2 1 0 - %2D")
	f.Add("2 1 0 r %2Fa%20b")
	f.Add("2 1 0 p /k aGVsbG8= deadbeef text%2Fplain")
	f.Add("2 1 0 p /k -")
	f.Add("2 1 0 p /k")
	f.Add("2 1 0 - /k - !!!hostile!!!")
	f.Add("1 9 0 r - - - - 65536")
	f.Add("")
	f.Add("data: 2 1 0 - /k")
	f.Add(strings.Repeat(" ", 64))

	f.Fuzz(func(t *testing.T, wire string) {
		ev, err := Decode(wire)
		if err != nil {
			return
		}
		switch ev.Kind {
		case KindHello, KindUpdate, KindHeartbeat:
		default:
			t.Fatalf("Decode(%q) accepted unknown kind %d", wire, ev.Kind)
		}
		if ev.Kind == KindUpdate && ev.Key == "" {
			t.Fatalf("Decode(%q) accepted an update without a key", wire)
		}
		if len(ev.Body) > 0 && !ev.HasBody {
			t.Fatalf("Decode(%q) produced a body without HasBody", wire)
		}
		if len(ev.Body) > MaxPayloadCap {
			t.Fatalf("Decode(%q) accepted a payload of %d bytes", wire, len(ev.Body))
		}
		// Decode and Oversized share one envelope measure.
		if ev.Oversized() {
			t.Fatalf("Decode(%q) accepted an oversized event", truncateForLog(wire))
		}
		// Ladder-state invariants the hub and subscriber dispatch on: a
		// base digest and its codec travel together, a delta is always a
		// payload-carrying update with no chunk state, and chunk
		// positions are always in range of a bounded total.
		if (ev.BaseDigest != "") != (ev.DeltaCodec != 0) {
			t.Fatalf("Decode(%q) split base %q from codec %d", wire, ev.BaseDigest, ev.DeltaCodec)
		}
		if ev.BaseDigest != "" && (!ev.HasBody || ev.Kind != KindUpdate || ev.ChunkTotal != 0) {
			t.Fatalf("Decode(%q) accepted an impossible delta frame: %+v", wire, ev)
		}
		if ev.ChunkTotal > 0 && (!ev.HasBody || ev.Kind != KindUpdate ||
			ev.ChunkIndex >= ev.ChunkTotal || ev.ChunkTotal > MaxChunkTotal) {
			t.Fatalf("Decode(%q) accepted an impossible chunk frame: %+v", wire, ev)
		}
		if ev.ChunkTotal == 0 && ev.ChunkIndex != 0 {
			t.Fatalf("Decode(%q) accepted a chunk index without a total: %+v", wire, ev)
		}
		re := ev.Encode()
		ev2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded frame (from %q) failed to decode: %v", wire, err)
		}
		if !sameOnWire(ev, ev2) {
			t.Fatalf("round trip diverged: %+v vs %+v (wire %q)", ev, ev2, wire)
		}
		// Stripping is idempotent and always yields an encodable,
		// envelope-bounded-or-oversized frame — the exact degradation the
		// hub performs, so it must hold for every decodable event.
		st := ev.StripPayload()
		if st.HasBody || st.Body != nil || st.Digest != "" || st.ContentType != "" ||
			st.BaseDigest != "" || st.DeltaCodec != 0 || st.ChunkIndex != 0 || st.ChunkTotal != 0 {
			t.Fatalf("StripPayload left payload state: %+v", st)
		}
		// The publish-time render must be byte-identical to the
		// per-subscriber Encode it replaced, for every decodable event.
		// A decoded delta frame is a PURE delta (its body IS the delta),
		// so its ladder has no full form at all — WireFor degrades to the
		// stripped form, and the delta form re-encodes the frame
		// byte-identically for the hub's delta rung.
		pureDelta := ev.HasBody && ev.BaseDigest != "" && ev.DeltaCodec != 0
		rend := RenderLadder(ev, 0)
		if pureDelta {
			if rend.Full() != "" {
				t.Fatalf("pure delta rendered a full form %q (wire %q)", rend.Full(), wire)
			}
			if frame, base := rend.Delta(); frame != re || base != ev.BaseDigest {
				t.Fatalf("pure delta form %q (base %q) != Encode %q (base %q)",
					frame, base, re, ev.BaseDigest)
			}
		} else if rend.Full() != re {
			t.Fatalf("Render full form %q != Encode %q", rend.Full(), re)
		}
		if want := st.Encode(); rend.Stripped() != want {
			t.Fatalf("Render stripped form %q != StripPayload().Encode() %q", rend.Stripped(), want)
		}
		want := re
		if pureDelta {
			want = st.Encode()
		}
		if got := rend.WireFor(); got != want {
			t.Fatalf("WireFor() = %q, want %q (wire %q)", got, want, wire)
		}
	})
}

// FuzzDeltaApply hammers the delta decoder with arbitrary base and op
// streams. The invariants are the ones install safety rides on:
// ApplyDelta never panics, never returns a body over the size bound,
// and is deterministic; and every delta MakeDelta emits from the fuzzed
// inputs applies back to the exact target (the encoder and decoder
// cannot drift apart, whatever bytes the objects hold).
func FuzzDeltaApply(f *testing.F) {
	f.Add([]byte("base body"), []byte{0x01, 0x02, 'h', 'i'}, 0)
	f.Add([]byte(""), []byte{0x02, 0x00, 0x05}, 64)
	f.Add(bytes.Repeat([]byte("block content "), 64), []byte{0x02, 0x00, 0xff, 0x07}, 1<<20)
	f.Add([]byte("b"), []byte{0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, 0)
	// COPYs whose relative offset resolves before the base's start, past
	// its end, or overflows an int64 added to the output position.
	f.Add([]byte("base body"), copyAt([]byte{0x01, 0x02, 'h', 'i'}, -3, 1), 0)
	f.Add([]byte("base body"), copyAt(nil, 10, 0), 0)
	f.Add([]byte("base body"), copyAt([]byte{0x01, 0x01, 'h'}, math.MaxInt64, 1), 0)
	f.Add([]byte("base body"), copyAt([]byte{0x01, 0x01, 'h'}, math.MinInt64, 1), 0)
	f.Fuzz(func(t *testing.T, base, delta []byte, maxSize int) {
		out, err := ApplyDelta(DeltaCodecBlock, base, delta, maxSize)
		if err == nil {
			bound := maxSize
			if bound <= 0 {
				bound = MaxAssembledBody
			}
			if len(out) > bound {
				t.Fatalf("ApplyDelta produced %d bytes over the %d bound", len(out), bound)
			}
			out2, err2 := ApplyDelta(DeltaCodecBlock, base, delta, maxSize)
			if err2 != nil || !bytes.Equal(out, out2) {
				t.Fatal("ApplyDelta is not deterministic")
			}
		}
		if _, err := ApplyDelta(0, base, delta, maxSize); err == nil {
			t.Fatal("unknown codec accepted")
		}
		// Round trip: whatever MakeDelta emits for these inputs (base →
		// delta-as-target, and delta-as-target → base) must apply back
		// exactly.
		for _, pair := range [][2][]byte{{base, delta}, {delta, base}} {
			if enc, ok := MakeDelta(pair[0], pair[1]); ok {
				got, err := ApplyDelta(DeltaCodecBlock, pair[0], enc, 0)
				if err != nil || !bytes.Equal(got, pair[1]) {
					t.Fatalf("MakeDelta round trip broke: err=%v got %d bytes want %d",
						err, len(got), len(pair[1]))
				}
			}
		}
	})
}

// FuzzDeltaResponse hammers the 226 answer a delta-encoded GET gets:
// arbitrary IM, Delta-Base and ETag headers and delta bytes against one
// fixed base. DeltaAnswer and VerifyDelta must never panic, and a body
// they return must hash to the ETag and come from a Delta-Base naming the
// base: a proxy installs nothing the upstream did not hash.
func FuzzDeltaResponse(f *testing.F) {
	base := bytes.Repeat([]byte("the held body, one version behind. "), 32)
	target := append(append([]byte(nil), base[:300]...), "an edit"...)
	target = append(target, base[300:]...)
	delta, ok := MakeDelta(base, target)
	if !ok {
		f.Fatal("seed delta does not pay")
	}
	q := func(s string) string { return `"` + s + `"` }
	f.Add(DeltaIM, q(DigestOf(base)), q(DigestOf(target)), delta)
	f.Add(DeltaIM, q(DigestOf(base)), q(DigestOf(target)), delta[:len(delta)-1])
	f.Add("X-Broadway-Block ", q(DigestOf(base)), q(DigestOf(base)), []byte{0x02, 0x00, 0x10})
	f.Add(DeltaIM, DigestOf(base), q(DigestOf(target)), delta)
	f.Add("gzip", `""`, `"`, []byte{0x01, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, im, deltaBase, etag string, delta []byte) {
		h := http.Header{}
		h.Set(HeaderIM, im)
		h.Set(HeaderDeltaBase, deltaBase)
		h.Set("ETag", etag)
		baseDigest, resultDigest := DeltaAnswer(h)
		body, err := VerifyDelta(base, delta, baseDigest, resultDigest)
		if err != nil {
			return
		}
		if got := q(DigestOf(body)); got != h.Get("ETag") {
			t.Fatalf("returned a body hashing to %s under ETag %q", got, h.Get("ETag"))
		}
		if h.Get(HeaderDeltaBase) != q(DigestOf(base)) {
			t.Fatalf("applied against Delta-Base %q, not the held body", h.Get(HeaderDeltaBase))
		}
	})
}

// FuzzInterestFilter hammers interest-set construction and matching
// with hostile terms, keys and queries (escaped '?', literal '-',
// over-length prefixes, group terms, empty terms). The invariants are
// the ones delivery correctness rides on:
//
//   - Construction, matching, union, coverage, parsing and query
//     encoding never panic, whatever the terms.
//   - EncodeQuery always re-parses, and the re-parsed set never matches
//     LESS than the original (fail open: a round trip may widen — the
//     empty set encodes as match-all — but must never narrow, because a
//     narrowed declaration filters away updates the subscriber needs).
//   - Covers is sound: when s covers o, everything o matches, s matches.
//   - Union is complete: the union matches whatever either input does.
//   - Match-all matches everything; prefix matching is literal string
//     prefixing on the DECODED key, exactly strings.HasPrefix.
//   - A declaration the grammar cannot honour fails open: any group
//     parameter, or only empty terms, parses to match-all, and no
//     parsed declaration ever matches nothing or drops a declared term.
func FuzzInterestFilter(f *testing.F) {
	f.Add("/news/", "/news/a.html", "frontpage", "prefix=/news/&group=g")
	f.Add("/stock%3Fsym=A", "/stock?sym=A", "", "prefix=%2Fstock%3Fsym%3DA")
	f.Add("-", "-key", "-", "prefix=-")
	f.Add(strings.Repeat("p", maxInterestTermLen+1), "/k", "g", "prefix=&prefix=")
	f.Add("", "/anything", "grp", "")
	f.Add("/a\x00b", "/a\x00bc", "g h", "group=")
	f.Fuzz(func(t *testing.T, prefix, key, group, raw string) {
		s := NewInterest([]string{prefix, "/fixed/"})
		matched := s.Matches(key)
		// Literal prefix semantics on the decoded key.
		if prefix != "" && len(prefix) <= maxInterestTermLen &&
			strings.HasPrefix(key, prefix) && !matched {
			t.Fatalf("declared prefix %q did not match key %q", prefix, key)
		}
		if !InterestAll().Covers(s) || !InterestAll().Matches(key) {
			t.Fatal("match-all must cover and match everything")
		}
		// Query round trip never narrows.
		q, err := url.ParseQuery(s.EncodeQuery())
		if err != nil {
			t.Fatalf("EncodeQuery(%v) unparsable: %v", s.Prefixes(), err)
		}
		if matched && !ParseInterest(q).Matches(key) {
			t.Fatalf("query round trip narrowed the set: %q lost %q", s.EncodeQuery(), key)
		}
		// Covers soundness and Union completeness against a second set.
		o := NewInterest([]string{key})
		if s.Covers(o) && !o.IsEmpty() && o.Matches(key) && !matched {
			t.Fatalf("Covers unsound: s covers o but o matches %q and s does not", key)
		}
		u := s.Union(o)
		if (matched || o.Matches(key)) && !u.Matches(key) {
			t.Fatalf("Union incomplete: inputs match %q, union does not", key)
		}
		if !u.Covers(o) && !o.IsAll() {
			// Union must cover its inputs (a union containing o's exact
			// terms always covers them).
			t.Fatalf("Union does not cover its input: %v ∪ %v", s.Prefixes(), o.Prefixes())
		}
		// Fail open on what the grammar cannot honour.
		if !ParseInterest(url.Values{"prefix": {prefix}, "group": {group}}).IsAll() {
			t.Fatalf("a group term (prefix=%q, group=%q) did not parse to match-all", prefix, group)
		}
		if !ParseInterest(url.Values{"prefix": {"", ""}}).IsAll() {
			t.Fatal("a declaration of only empty terms did not parse to match-all")
		}
		rq, _ := url.ParseQuery(raw) // a partial parse is still a declaration
		ps := ParseInterest(rq)
		if ps.IsEmpty() {
			t.Fatalf("ParseInterest(%q) matches nothing", raw)
		}
		for _, p := range rq["prefix"] {
			if p != "" && !ps.Matches(p) {
				t.Fatalf("ParseInterest(%q) filters its own declared prefix %q", raw, p)
			}
		}
	})
}

// FuzzParseHeld hammers the ?held=<key>:<digest> connect parameter
// parser with hostile terms (no colon, colons inside keys, empty
// halves, non-hex or overlong digests). copies appends that many
// re-keyed duplicates of every term, to push a well-formed declaration
// past the term bound. Whatever the input, parseHeld never panics,
// keeps at most maxHeldTerms entries, and keeps only well-formed
// digests, each from a term actually declared.
func FuzzParseHeld(f *testing.F) {
	f.Add("/a:0123abcd", uint8(0))
	f.Add("/k:with:colons:deadBEEF\n/b:", uint8(1))
	f.Add(":abc\n/x:zz\nnocolon\n/y:"+strings.Repeat("f", 65), uint8(2))
	f.Add("/p:811c9dc5", uint8(200))
	f.Fuzz(func(t *testing.T, input string, copies uint8) {
		terms := strings.Split(input, "\n")
		base := len(terms)
		for i := 0; i < int(copies); i++ {
			for _, term := range terms[:base] {
				terms = append(terms, fmt.Sprintf("/%d%s", i, term))
			}
		}
		declared := make(map[string]bool, len(terms))
		for _, term := range terms {
			declared[term] = true
		}
		held := parseHeld(terms)
		if len(held) > maxHeldTerms {
			t.Fatalf("parseHeld kept %d entries, bound is %d", len(held), maxHeldTerms)
		}
		for key, v := range held {
			if !isHexDigest(v.digest) {
				t.Fatalf("kept %q with malformed digest %q", key, v.digest)
			}
			if !declared[key+":"+v.digest] {
				t.Fatalf("kept %q:%q, which no term declared", key, v.digest)
			}
		}
	})
}

// FuzzReadFrameLine hammers the subscriber's line reader with arbitrary
// streams and limits, read through the smallest bufio.Reader so lines
// straddle its buffer. Whatever the bytes, readFrameLine never panics,
// never returns a line longer than limit, and returns no content for a
// skipped line; line by line it returns exactly the input's
// newline-terminated lines of at most limit bytes, CR/LF trimmed off the
// end, reports every longer one skipped, and ends the stream with an
// error at a final line that has no newline.
func FuzzReadFrameLine(f *testing.F) {
	f.Add([]byte("id: 0\ndata: 1 0 0 - -\n\n"), uint16(16))
	f.Add([]byte(strings.Repeat("x", 40)+"\nshort\n"), uint16(8))
	f.Add([]byte("exact\nexact\r\n\r\r\n"), uint16(5))
	f.Add([]byte("a tail without a newline"), uint16(64))
	f.Fuzz(func(t *testing.T, stream []byte, limit uint16) {
		br := bufio.NewReaderSize(bytes.NewReader(stream), 16)
		for _, raw := range bytes.SplitAfter(stream, []byte("\n")) {
			line, skipped, err := readFrameLine(br, int(limit))
			if len(line) > int(limit) {
				t.Fatalf("returned %d bytes over the limit %d", len(line), limit)
			}
			if skipped && line != "" {
				t.Fatalf("a skipped line came back with content %q", line)
			}
			if !bytes.HasSuffix(raw, []byte("\n")) {
				if err == nil || line != "" {
					t.Fatalf("final line %q without a newline returned %q, %v", raw, line, err)
				}
				return
			}
			switch {
			case err != nil:
				t.Fatalf("line %q: %v", raw, err)
			case len(raw) > int(limit)+1:
				if !skipped {
					t.Fatalf("line %q over the limit %d was not skipped", raw, limit)
				}
			case skipped || line != strings.TrimRight(string(raw), "\r\n"):
				t.Fatalf("line %q came back as %q (skipped %v)", raw, line, skipped)
			}
		}
	})
}
