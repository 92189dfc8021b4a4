package push

import (
	"math/rand"
	"testing"
	"time"
)

// parentDeltaSegmentBytes is what wireCostDelta's frame coded to when
// payloads rode the wire as base64 and every COPY named an absolute base
// offset.
const parentDeltaSegmentBytes = 14467

// wireCostDelta returns the delta frame of a 192 KiB text body (64-byte
// lines of lowercase letters) of which about 5 % is rewritten in 16-byte
// runs of capitals: the fleet benchmark's large update.
func wireCostDelta(t testing.TB) string {
	rng := rand.New(rand.NewSource(52))
	base := make([]byte, 192<<10)
	for i := range base {
		base[i] = 'a' + byte(rng.Intn(26))
		if i%64 == 63 {
			base[i] = '\n'
		}
	}
	target := append([]byte(nil), base...)
	const run = 16
	for r := 0; r < len(target)/20/run+1; r++ {
		at := rng.Intn(len(target) - run)
		for i := 0; i < run; i++ {
			target[at+i] = 'A' + byte(rng.Intn(26))
		}
	}
	delta, ok := MakeDelta(base, target)
	if !ok {
		t.Fatal("no delta for a 5 % edit")
	}
	re := RenderLadder(Event{Kind: KindUpdate, Seq: 1, Key: "/big/blob",
		ModTime: time.Unix(1_700_000_000, 0), HasBody: true, Body: target,
		Digest: DigestOf(target), ContentType: "text/plain",
		BaseDigest: DigestOf(base), DeltaCodec: DeltaCodecBlock, DeltaBody: delta}, 0)
	frame, _ := re.Delta()
	if frame == "" {
		t.Fatal("no delta form rendered")
	}
	return frame
}

// TestDeltaFrameWireCost: a large update's delta frame, coded as the one
// gzip segment a stream sends it in, costs at most 80 % of what it did
// before payloads rode as their own bytes and copies were addressed from
// the output position.
func TestDeltaFrameWireCost(t *testing.T) {
	frame := wireCostDelta(t)
	var c streamCoder
	seg := c.appendSegment(nil, appendFrame(nil, 1, frame))
	t.Logf("delta frame: %d B raw, %d B coded (was %d B)", len(frame), len(seg), parentDeltaSegmentBytes)
	if limit := parentDeltaSegmentBytes * 8 / 10; len(seg) > limit {
		t.Errorf("delta frame codes to %d B, over %d B (80 %% of %d B)", len(seg), limit, parentDeltaSegmentBytes)
	}
}
