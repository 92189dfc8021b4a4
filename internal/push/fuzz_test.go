package push

import (
	"bytes"
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
//     into the subscription manager) — payload, digest, content type,
//     and negotiated cap included.
//   - An accepted update frame always carries a non-empty key and a
//     known kind — the two fields the proxy dispatches on.
//   - An accepted payload never exceeds MaxPayloadCap, and a frame with
//     a payload always has HasBody set (the apply path branches on it).
func FuzzInvalidationEvent(f *testing.F) {
	f.Add(Event{Kind: KindHello, Seq: 1, Reset: true}.Encode())
	f.Add(Event{Kind: KindUpdate, Seq: 2, Key: "/news/story.html", Group: "frontpage",
		ModTime: time.Unix(1700000000, 123)}.Encode())
	f.Add(Event{Kind: KindUpdate, Seq: 3, Key: "/stock?sym=A&x=%20"}.Encode())
	f.Add(Event{Kind: KindHeartbeat, Seq: 4}.Encode())
	// v2 seeds: payload round trip with digest, hello with a negotiated
	// cap, empty-body payload, payload-free digest (a stripped frame).
	f.Add(Event{Kind: KindUpdate, Seq: 5, Key: "/quote/acme", Body: []byte("165.38\n"),
		HasBody: true, ContentType: "text/plain", Digest: DigestOf([]byte("165.38\n")),
		ModTime: time.Unix(1700000000, 0)}.Encode())
	f.Add(Event{Kind: KindHello, Seq: 6, PayloadCap: DefaultPayloadCap}.Encode())
	f.Add(Event{Kind: KindUpdate, Seq: 7, Key: "/e", Body: []byte{}, HasBody: true}.Encode())
	f.Add(Event{Kind: KindUpdate, Seq: 8, Key: "/s", Digest: "deadbeef00112233"}.Encode())
	// v3 seeds: a pure delta frame, first/last chunks of a set, and a
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
	// Hostile v3 lines the decoder must refuse: a non-hex base digest, a
	// base without its codec (and vice versa), chunk index beyond the
	// total, a total beyond MaxChunkTotal, a delta on a payload-less
	// frame, delta and chunk state on one frame, and ladder state on a
	// hello.
	f.Add("v3 2 12 0 p /k - - deadbeef 0 ZZZZ 1 0 0 aGk=")
	f.Add("v3 2 13 0 p /k - - deadbeef 0 deadbeef 0 0 0 aGk=")
	f.Add("v3 2 14 0 p /k - - deadbeef 0 - 1 0 0 aGk=")
	f.Add("v3 2 15 0 p /k - - deadbeef 0 - 0 5 3 aGk=")
	f.Add("v3 2 16 0 p /k - - deadbeef 0 - 0 0 1025 aGk=")
	f.Add("v3 2 17 0 - /k - - - 0 deadbeef 1 0 0 -")
	f.Add("v3 2 18 0 p /k - - deadbeef 0 deadbeef 1 0 3 aGk=")
	f.Add("v3 1 19 0 r - - - - 65536 deadbeef 1 0 0 -")
	f.Add("v1 2 1 0 - /k -")
	f.Add("v1 2 1 0 - %2D %2D")
	f.Add("v1 2 1 0 r %2Fa%20b grp")
	f.Add("v2 2 1 0 p /k - text%2Fplain deadbeef 0 aGVsbG8=")
	f.Add("v2 2 1 0 p /k - - - 0 -")
	f.Add("v2 2 1 0 - /k - - - 0 !!!hostile!!!")
	f.Add("v2 1 9 0 r - - - - 65536 -")
	f.Add("")
	f.Add("data: v1 2 1 0 - /k -")
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
		if ev2.Kind != ev.Kind || ev2.Seq != ev.Seq || ev2.Key != ev.Key ||
			ev2.Group != ev.Group || ev2.Reset != ev.Reset || !ev2.ModTime.Equal(ev.ModTime) ||
			ev2.HasBody != ev.HasBody || !bytes.Equal(ev2.Body, ev.Body) ||
			ev2.ContentType != ev.ContentType || ev2.Digest != ev.Digest ||
			ev2.PayloadCap != ev.PayloadCap ||
			ev2.BaseDigest != ev.BaseDigest || ev2.DeltaCodec != ev.DeltaCodec ||
			ev2.ChunkIndex != ev.ChunkIndex || ev2.ChunkTotal != ev.ChunkTotal {
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
		// per-subscriber Encode it replaced, for every decodable event
		// and every negotiated cap the write path can see. A decoded
		// delta frame is a PURE delta (its body IS the delta), so its
		// ladder has no full form at all — WireFor degrades every cap to
		// the stripped form, and the delta form re-encodes the frame
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
		for _, cap := range []int{0, 1, len(ev.Body) - 1, len(ev.Body), len(ev.Body) + 1, MaxPayloadCap} {
			want := re
			if pureDelta || (ev.HasBody && (cap <= 0 || len(ev.Body) > cap)) {
				want = st.Encode()
			}
			if got := rend.WireFor(cap); got != want {
				t.Fatalf("WireFor(%d) = %q, want %q (wire %q)", cap, got, want, wire)
			}
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

// FuzzInterestFilter hammers interest-set construction and matching
// with hostile terms and keys (escaped '?', literal '-', over-length
// prefixes). The invariants are the ones delivery correctness rides on:
//
//   - Construction, matching, union, coverage, and query encoding never
//     panic, whatever the terms.
//   - EncodeQuery always re-parses, and the re-parsed set never matches
//     LESS than the original (fail open: a round trip may widen — the
//     empty set encodes as match-all — but must never narrow, because a
//     narrowed declaration filters away updates the subscriber needs).
//   - Covers is sound: when s covers o, everything o matches, s matches.
//   - Union is complete: the union matches whatever either input does.
//   - Match-all matches everything; prefix matching is literal string
//     prefixing on the DECODED key, exactly strings.HasPrefix.
func FuzzInterestFilter(f *testing.F) {
	f.Add("/news/", "frontpage", "/news/a.html", "frontpage")
	f.Add("/stock%3Fsym=A", "", "/stock?sym=A", "")
	f.Add("-", "-", "-key", "-")
	f.Add(strings.Repeat("p", maxInterestTermLen+1), "g", "/k", "g")
	f.Add("", "", "/anything", "grp")
	f.Add("/a\x00b", "g h", "/a\x00bc", "g h")
	f.Fuzz(func(t *testing.T, prefix, group, key, evGroup string) {
		s := NewInterest([]string{prefix, "/fixed/"}, []string{group})
		matched := s.Matches(key, evGroup)
		// Literal prefix semantics on the decoded key.
		if prefix != "" && len(prefix) <= maxInterestTermLen &&
			strings.HasPrefix(key, prefix) && !matched {
			t.Fatalf("declared prefix %q did not match key %q", prefix, key)
		}
		if group != "" && len(group) <= maxInterestTermLen &&
			evGroup == group && !matched {
			t.Fatalf("declared group %q did not match event group %q", group, evGroup)
		}
		if InterestAll().Covers(s) != true || !InterestAll().Matches(key, evGroup) {
			t.Fatal("match-all must cover and match everything")
		}
		// Query round trip never narrows.
		q, err := url.ParseQuery(s.EncodeQuery())
		if err != nil {
			t.Fatalf("EncodeQuery(%v,%v) unparsable: %v", s.Prefixes(), s.Groups(), err)
		}
		s2 := ParseInterest(q)
		if matched && !s2.Matches(key, evGroup) {
			t.Fatalf("query round trip narrowed the set: %q lost (%q,%q)",
				s.EncodeQuery(), key, evGroup)
		}
		// Covers soundness and Union completeness against a second set.
		o := NewInterest([]string{key}, []string{evGroup})
		if s.Covers(o) && !o.IsEmpty() && o.Matches(key, evGroup) && !matched {
			t.Fatalf("Covers unsound: s covers o but o matches (%q,%q) and s does not", key, evGroup)
		}
		u := s.Union(o)
		if (matched || o.Matches(key, evGroup)) && !u.Matches(key, evGroup) {
			t.Fatalf("Union incomplete: inputs match (%q,%q), union does not", key, evGroup)
		}
		if !u.Covers(o) && !o.IsAll() {
			// Union must cover its inputs (conservatism aside, a union
			// containing o's exact terms always covers them).
			t.Fatalf("Union does not cover its input: %v ∪ %v", s.Prefixes(), o.Prefixes())
		}
	})
}
