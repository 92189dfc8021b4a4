package push

import (
	"compress/flate"
	"encoding/binary"
	"hash/crc32"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// This file is the /events content coding: a stream whose request
// accepts gzip is served as one gzip member (RFC 1952) whose deflate
// body is a run of independently coded segments, one per batch the
// serve loop flushes. The frame grammar inside is untouched; only the
// bytes on the link shrink.
//
//   - The member opens with a 10-byte header, written with the hello.
//   - Each batch is deflated at BestSpeed by a compressor borrowed from
//     a package pool and Reset first, so no back-reference reaches
//     outside the batch, then sync-flushed: non-final blocks ending
//     byte-aligned in an empty stored block. Segments from different
//     compressors therefore concatenate into one valid deflate stream,
//     and a reader delivers each batch whole as soon as its segment
//     lands (a deflate reader hands its window to the caller on the
//     empty stored block, never before). A batch too small to compress
//     (hello, heartbeat) comes out as flate's own stored block.
//   - When the hub ends a stream it closes the member: an empty final
//     block, then the CRC-32 and size of every frame byte sent. A stream
//     the replay ring outran is a reader that stopped reading, and gets
//     no trailer.
//
// A compressor is not kept per stream: a flate.Writer holds about
// 1.2 MB at any level, which a fan-out hub would pay per subscriber, and
// context carried across batches buys only a few points of ratio on
// this traffic.

// gzipHeader is the member header: deflate, no flags, no mtime, no
// extra flags, unknown OS.
var gzipHeader = []byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 255}

// finalBlock is an empty final block with fixed Huffman codes: BFINAL,
// BTYPE 01, then the end-of-block code, padded to the byte.
var finalBlock = []byte{0x03, 0x00}

// segmentWriter is a pooled compressor and the buffer it writes into.
type segmentWriter struct {
	fw  *flate.Writer
	out appendWriter
}

// appendWriter appends everything written to b.
type appendWriter struct{ b []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

var segmentWriterPool = sync.Pool{
	New: func() any {
		sw := &segmentWriter{}
		sw.fw, _ = flate.NewWriter(&sw.out, flate.BestSpeed) // a valid level never errors
		return sw
	},
}

// streamCoder is one gzip-coded stream's running state: the checksum and
// size of the frame bytes coded so far.
type streamCoder struct {
	crc  uint32
	size uint32
}

// appendSegment appends raw, coded as one self-contained segment, to dst.
func (c *streamCoder) appendSegment(dst, raw []byte) []byte {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, raw)
	c.size += uint32(len(raw))
	sw := segmentWriterPool.Get().(*segmentWriter)
	sw.out.b = dst
	sw.fw.Reset(&sw.out)
	// Writes and flushes into memory cannot fail.
	_, _ = sw.fw.Write(raw)
	_ = sw.fw.Flush()
	dst = sw.out.b
	sw.out.b = nil
	segmentWriterPool.Put(sw)
	return dst
}

// appendTrailer appends the final block and the member trailer.
func (c *streamCoder) appendTrailer(dst []byte) []byte {
	dst = append(dst, finalBlock...)
	dst = binary.LittleEndian.AppendUint32(dst, c.crc)
	return binary.LittleEndian.AppendUint32(dst, c.size)
}

// acceptsGzip reports whether a request's Accept-Encoding lists gzip with
// a non-zero quality.
func acceptsGzip(h http.Header) bool {
	for _, v := range h.Values("Accept-Encoding") {
		for _, item := range strings.Split(v, ",") {
			coding, params, _ := strings.Cut(item, ";")
			if !strings.EqualFold(strings.TrimSpace(coding), "gzip") {
				continue
			}
			name, q, _ := strings.Cut(strings.TrimSpace(params), "=")
			if !strings.EqualFold(strings.TrimSpace(name), "q") {
				return true
			}
			f, err := strconv.ParseFloat(strings.TrimSpace(q), 64)
			return err == nil && f > 0
		}
	}
	return false
}
