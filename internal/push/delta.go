package push

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Delta codec. A v3 frame can carry the object's new body as a delta
// against a base body the subscriber already holds (addressed by the
// base body's digest). The encoding is deliberately tiny and
// self-contained — no external compression dependency — because the
// decoder runs on hostile input from the wire and must be cheap to
// bound: an opcode stream of ADD (literal bytes) and COPY (a range of
// the base), applied left to right to build the target.
//
//	0x01 <uvarint n> <n bytes>      ADD  — append n literal bytes
//	0x02 <uvarint off> <uvarint n>  COPY — append base[off : off+n]
//
// The result's digest rides the frame's <digest> field, so a corrupt or
// mis-based application is always caught before install (the terminal
// check), and ApplyDelta additionally bounds every offset, length, and
// the output size before doing any work.
const (
	// DeltaCodecBlock identifies the block-match codec above. Zero means
	// "no delta" on the wire.
	DeltaCodecBlock = 1

	opAdd  = 0x01
	opCopy = 0x02

	// deltaBlockSize is the encoder's match granularity: base offsets
	// are indexed at this stride, and matches extend greedily — in both
	// directions — from a seed of this length. Small enough to find
	// moved paragraphs, large enough that the index stays cheap.
	deltaBlockSize = 32

	// MaxChunkTotal bounds the chunk count of a chunked body; with the
	// protocol's MaxPayloadCap per chunk this admits bodies well beyond
	// the proxy's own 32 MiB fetch limit.
	MaxChunkTotal = 1024

	// MaxAssembledBody bounds the body a subscriber will reassemble
	// from chunks (mirrors the proxy's origin-fetch limit): a hostile
	// chunk total cannot make the client buffer unbounded data.
	MaxAssembledBody = 32 << 20
)

// ErrBadDelta reports a malformed or hostile delta stream.
var ErrBadDelta = errors.New("push: bad delta")

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
				out = binary.AppendUvarint(out, uint64(off))
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
// the stream was well-formed, not that it was based correctly.
func ApplyDelta(codec uint8, base, delta []byte, maxSize int) ([]byte, error) {
	if codec != DeltaCodecBlock {
		return nil, fmt.Errorf("%w: unknown codec %d", ErrBadDelta, codec)
	}
	if maxSize <= 0 {
		maxSize = MaxAssembledBody
	}
	var out []byte
	i := 0
	for i < len(delta) {
		op := delta[i]
		i++
		switch op {
		case opAdd:
			n, w := binary.Uvarint(delta[i:])
			if w <= 0 || n > uint64(len(delta)-i-w) {
				return nil, fmt.Errorf("%w: truncated add", ErrBadDelta)
			}
			i += w
			if uint64(len(out))+n > uint64(maxSize) {
				return nil, fmt.Errorf("%w: output exceeds %d bytes", ErrBadDelta, maxSize)
			}
			out = append(out, delta[i:i+int(n)]...)
			i += int(n)
		case opCopy:
			off, w := binary.Uvarint(delta[i:])
			if w <= 0 {
				return nil, fmt.Errorf("%w: truncated copy offset", ErrBadDelta)
			}
			i += w
			n, w := binary.Uvarint(delta[i:])
			if w <= 0 {
				return nil, fmt.Errorf("%w: truncated copy length", ErrBadDelta)
			}
			i += w
			if off > uint64(len(base)) || n > uint64(len(base))-off {
				return nil, fmt.Errorf("%w: copy out of base bounds", ErrBadDelta)
			}
			if uint64(len(out))+n > uint64(maxSize) {
				return nil, fmt.Errorf("%w: output exceeds %d bytes", ErrBadDelta, maxSize)
			}
			out = append(out, base[off:off+n]...)
		default:
			return nil, fmt.Errorf("%w: unknown op 0x%02x", ErrBadDelta, op)
		}
	}
	if out == nil {
		out = []byte{}
	}
	return out, nil
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
