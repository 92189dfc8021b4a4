package push

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"net/textproto"
	"strings"
)

// Delta codec. A frame can carry the object's new body as a delta
// against a base body the subscriber already holds (addressed by the
// base body's digest). The encoding is deliberately tiny and
// self-contained — no external compression dependency — because the
// decoder runs on hostile input from the wire and must be cheap to
// bound: an opcode stream of ADD (literal bytes) and COPY (a range of
// the base), applied left to right to build the target.
//
//	0x01 <uvarint n> <n bytes>     ADD  — append n literal bytes
//	0x02 <varint d> <uvarint n>    COPY — append base[p+d : p+d+n]
//
// A COPY is addressed from p, the length of the output built so far: d
// is the signed (zigzag) distance from there to the range's start in the
// base. An edit in place leaves every unchanged range where it was, so
// its COPYs all carry d = 0, one byte, and deflate codes the repeats
// almost for free; a moved block costs the distance it moved.
//
// The result's digest rides the frame's <digest> field, so a corrupt or
// mis-based application is always caught before install (the terminal
// check), and ApplyDelta additionally bounds every offset, length, and
// the output size before doing any work.
const (
	// DeltaCodecBlock identifies the block-match codec above. Zero means
	// "no delta" on the wire. Codec 1, whose COPY named an absolute base
	// offset, is retired: ApplyDelta refuses it, so a delta from a node
	// still speaking it falls back to a poll.
	DeltaCodecBlock = 2

	opAdd  = 0x01
	opCopy = 0x02

	// deltaBlockSize is the encoder's match granularity: base offsets
	// are indexed at this stride, and matches extend greedily — in both
	// directions — from a seed of this length. Small enough to find
	// moved paragraphs, large enough that the index stays cheap.
	deltaBlockSize = 32

	// MaxChunkTotal bounds the chunk count of a chunked body; with
	// DefaultPayloadCap per chunk this admits bodies well beyond
	// MaxAssembledBody.
	MaxChunkTotal = 1024

	// MaxAssembledBody bounds the body a subscriber will reassemble
	// from chunks: a hostile chunk total cannot make the client buffer
	// unbounded data. The proxy's origin fetches refuse a longer body
	// too, so no body it caches is one the channel cannot deliver.
	MaxAssembledBody = 32 << 20
)

// ErrBadDelta reports a malformed or hostile delta stream.
var ErrBadDelta = errors.New("push: bad delta")

// Delta-encoded GET, in the form of RFC 3229. A client that holds the
// body of the version its If-Modified-Since names asks for the change
// instead of the whole body:
//
//	A-IM: x-broadway-block2
//
// An upstream that holds the delta from exactly that version may answer
//
//	226 IM Used
//	IM: x-broadway-block2
//	Delta-Base: "<DigestOf(base)>"
//	ETag: "<DigestOf(result)>"
//
// with the DeltaCodecBlock delta as the body, beside every header its 200
// would carry. Any other answer is the plain conditional GET's. The
// client installs the result only if Delta-Base names the body it holds
// and the result's digest is the ETag (see DeltaAnswer).
const (
	HeaderAIM       = "A-IM"
	HeaderIM        = "IM"
	HeaderDeltaBase = "Delta-Base"
	// DeltaIM is the instance-manipulation token naming DeltaCodecBlock.
	// It changes with the codec: an upstream asked for the retired
	// codec's token answers a plain 200.
	DeltaIM = "x-broadway-block2"
)

// aimKey is HeaderAIM in canonical form: a lookup by it allocates nothing.
var aimKey = textproto.CanonicalMIMEHeaderKey(HeaderAIM)

// AcceptsDeltaIM reports whether a request's A-IM lists DeltaIM.
func AcceptsDeltaIM(h http.Header) bool {
	for _, v := range h[aimKey] {
		for _, tok := range strings.Split(v, ",") {
			tok, _, _ = strings.Cut(tok, ";")
			if strings.EqualFold(strings.TrimSpace(tok), DeltaIM) {
				return true
			}
		}
	}
	return false
}

// SetDeltaHeaders writes a 226 answer's IM, Delta-Base and ETag.
func SetDeltaHeaders(h http.Header, baseDigest, resultDigest string) {
	h.Set(HeaderIM, DeltaIM)
	h.Set(HeaderDeltaBase, `"`+baseDigest+`"`)
	h.Set("ETag", `"`+resultDigest+`"`)
}

// DeltaAnswer reads the Delta-Base and ETag digests of a 226 answer with
// headers h, for VerifyDelta. Both are empty unless h names DeltaIM and
// quotes them, and VerifyDelta refuses an empty digest.
func DeltaAnswer(h http.Header) (baseDigest, resultDigest string) {
	if strings.EqualFold(strings.TrimSpace(h.Get(HeaderIM)), DeltaIM) {
		baseDigest, resultDigest = unquote(h.Get(HeaderDeltaBase)), unquote(h.Get("ETag"))
	}
	return baseDigest, resultDigest
}

// VerifyDelta rebuilds the body a DeltaCodecBlock delta makes of base. It
// fails unless baseDigest is base's digest and the rebuilt body's digest
// is resultDigest: the check every delta answer passes before its body is
// installed, a 226 (see DeltaAnswer) or an audit batch's inline answer.
// The body is bounded by MaxAssembledBody.
func VerifyDelta(base, delta []byte, baseDigest, resultDigest string) ([]byte, error) {
	if baseDigest != DigestOf(base) {
		return nil, fmt.Errorf("%w: base %q is not the held body", ErrBadDelta, baseDigest)
	}
	body, err := ApplyDelta(DeltaCodecBlock, base, delta, MaxAssembledBody)
	if err != nil {
		return nil, err
	}
	if DigestOf(body) != resultDigest {
		return nil, fmt.Errorf("%w: result does not match %q", ErrBadDelta, resultDigest)
	}
	return body, nil
}

// unquote strips the double quotes around a quoted string; anything
// else is "".
func unquote(s string) string {
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return ""
	}
	return s[1 : len(s)-1]
}

// MakeDelta encodes target as a delta against base, reporting ok=false
// when no delta smaller than the target exists (callers then send the
// full body instead — a delta that saves nothing only adds a failure
// mode). Both inputs are read-only.
func MakeDelta(base, target []byte) ([]byte, bool) {
	if len(base) == 0 || len(target) == 0 {
		return nil, false
	}
	// Index base block start offsets by content hash. Later blocks win
	// collisions; fine — any match is a valid COPY source.
	index := make(map[uint64]int, len(base)/deltaBlockSize+1)
	for off := 0; off+deltaBlockSize <= len(base); off += deltaBlockSize {
		index[blockHash(base[off:off+deltaBlockSize])] = off
	}

	var out []byte
	var lit []byte // pending ADD literals
	flushLit := func() {
		if len(lit) == 0 {
			return
		}
		out = append(out, opAdd)
		out = binary.AppendUvarint(out, uint64(len(lit)))
		out = append(out, lit...)
		lit = lit[:0]
	}

	i := 0
	for i < len(target) {
		if i+deltaBlockSize <= len(target) {
			if off, ok := index[blockHash(target[i:i+deltaBlockSize])]; ok &&
				bytes.Equal(base[off:off+deltaBlockSize], target[i:i+deltaBlockSize]) {
				// Extend the match greedily in both the base and target:
				// forwards past the seed block, and backwards over the
				// pending literals — a seed is only found on a base block
				// boundary, so up to a block's worth of unchanged bytes just
				// before it were queued as literals that the COPY can cover
				// instead. (Backwards never reaches into a COPY already
				// emitted: only bytes still pending may be reclaimed.)
				n := deltaBlockSize
				for off+n < len(base) && i+n < len(target) && base[off+n] == target[i+n] {
					n++
				}
				for len(lit) > 0 && off > 0 && base[off-1] == lit[len(lit)-1] {
					lit = lit[:len(lit)-1]
					off--
					i--
					n++
				}
				flushLit()
				out = append(out, opCopy)
				out = binary.AppendVarint(out, int64(off)-int64(i))
				out = binary.AppendUvarint(out, uint64(n))
				i += n
				continue
			}
		}
		lit = append(lit, target[i])
		i++
	}
	flushLit()

	if len(out) >= len(target) {
		return nil, false
	}
	return out, true
}

// ApplyDelta reconstructs a target body from base and a delta stream of
// the given codec. It is safe on hostile input: every offset and length
// is bounds-checked, the output never exceeds maxSize (≤0 selects
// MaxAssembledBody), and no error path panics. Callers must still
// verify the result's digest against the frame's — ApplyDelta proves
// the stream was well-formed, not that it was based correctly. A first
// pass over the ops checks them and sizes the output, so the body it
// returns has no spare capacity.
func ApplyDelta(codec uint8, base, delta []byte, maxSize int) ([]byte, error) {
	if codec != DeltaCodecBlock {
		return nil, fmt.Errorf("%w: unknown codec %d", ErrBadDelta, codec)
	}
	if maxSize <= 0 {
		maxSize = MaxAssembledBody
	}
	size, err := walkDelta(base, delta, maxSize, nil)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, size)
	walkDelta(base, delta, maxSize, func(b []byte) { out = append(out, b...) })
	return out, nil
}

// walkDelta checks delta's ops against base and maxSize, calls emit (when
// non-nil) with each op's output bytes in order, and returns the output's
// length.
func walkDelta(base, delta []byte, maxSize int, emit func([]byte)) (int, error) {
	size := uint64(0)
	i := 0
	for i < len(delta) {
		op := delta[i]
		i++
		var b []byte
		switch op {
		case opAdd:
			n, w := binary.Uvarint(delta[i:])
			if w <= 0 || n > uint64(len(delta)-i-w) {
				return 0, fmt.Errorf("%w: truncated add", ErrBadDelta)
			}
			i += w
			b = delta[i : i+int(n)]
			i += int(n)
		case opCopy:
			d, w := binary.Varint(delta[i:])
			if w <= 0 {
				return 0, fmt.Errorf("%w: truncated copy offset", ErrBadDelta)
			}
			i += w
			n, w := binary.Uvarint(delta[i:])
			if w <= 0 {
				return 0, fmt.Errorf("%w: truncated copy length", ErrBadDelta)
			}
			i += w
			// size ≤ maxSize and len(base) both fit an int64, so neither
			// bound below can overflow, whatever d is.
			if d < -int64(size) || d > int64(len(base))-int64(size) {
				return 0, fmt.Errorf("%w: copy out of base bounds", ErrBadDelta)
			}
			off := uint64(int64(size) + d)
			if n > uint64(len(base))-off {
				return 0, fmt.Errorf("%w: copy out of base bounds", ErrBadDelta)
			}
			b = base[off : off+n]
		default:
			return 0, fmt.Errorf("%w: unknown op 0x%02x", ErrBadDelta, op)
		}
		if size += uint64(len(b)); size > uint64(maxSize) {
			return 0, fmt.Errorf("%w: output exceeds %d bytes", ErrBadDelta, maxSize)
		}
		if emit != nil {
			emit(b)
		}
	}
	return int(size), nil
}

// blockHash is FNV-1a over one encoder block — cheap, and collisions
// are re-verified byte-for-byte before a COPY is emitted.
func blockHash(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
