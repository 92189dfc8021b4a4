package webproxy

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"broadway/internal/core"
	"broadway/internal/httpx"
	"broadway/internal/push"
	"broadway/internal/webserver"
)

// This file tests the delta rung of the value ladder end to end at the
// proxy: a pushed delta frame reconstructs the new body against the
// resident base with zero origin traffic, any base or digest mismatch
// degrades down the ladder to exactly one confirmation poll, and the
// disk tier applies the same base-authority rule to demoted objects —
// the base digest is always the digest of the bytes actually in hand,
// never stale bookkeeping.

// docBody builds a multi-kilobyte line-structured body: large enough
// that MakeDelta finds matching blocks, and an appended revision yields
// a delta far smaller than the full body.
func docBody(rev, lines int) []byte {
	var b strings.Builder
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&b, "line %04d of the document, stable content that does not change\n", i)
	}
	fmt.Fprintf(&b, "revision trailer r%d\n", rev)
	return []byte(b.String())
}

// TestDeltaPushAppliedLive drives the full pipeline: origin Set → hub
// delta rung → proxy verifyPushed → install, with zero origin polls
// after admission. The first update travels as a full payload (the hub
// holds no base for the stream yet); once that delivery seeds the held
// set, the next update rides the delta rung.
func TestDeltaPushAppliedLive(t *testing.T) {
	s := newValuePushSetup(t, Config{})
	v1, v2, v3 := docBody(1, 120), docBody(2, 120), docBody(3, 120)
	s.origin.Set("/doc", v1, "text/plain")
	waitPushConnected(t, s.proxy)
	s.get(t, "/doc")
	admissionPolls := s.origin.Polls()

	// Full rung: the stream holds no base for /doc yet.
	s.origin.Set("/doc", v2, "text/plain")
	if !waitFor(t, 3*time.Second, func() bool {
		b, _ := s.proxy.CachedBody("/doc")
		return string(b) == string(v2)
	}) {
		t.Fatalf("full payload never installed: %+v", s.proxy.PushStats())
	}

	// Delta rung: the hub now holds digest(v2) for this stream.
	s.origin.Set("/doc", v3, "text/plain")
	if !waitFor(t, 3*time.Second, func() bool {
		b, _ := s.proxy.CachedBody("/doc")
		return string(b) == string(v3)
	}) {
		t.Fatalf("delta update never installed: %+v", s.proxy.PushStats())
	}

	st := s.proxy.PushStats()
	if st.DeltaApplied == 0 {
		t.Errorf("no delta applications recorded: %+v", st)
	}
	if st.DeltaBaseMisses != 0 || st.ValueFallbacks != 0 {
		t.Errorf("clean delta path degraded: %+v", st)
	}
	if got := s.origin.Polls(); got != admissionPolls {
		t.Errorf("origin saw %d polls beyond admission; the delta path must cost zero", got-admissionPolls)
	}
	if hs := s.origin.Stats().Hub; hs.DeltaFrames == 0 {
		t.Errorf("origin hub sent no delta frames: %+v", hs)
	}
}

// TestDeltaPushForgedBaseFallsToConfirmationPoll: a pure-delta event
// whose base digest matches nothing falls down the whole ladder — the
// hub cannot send the delta (held mismatch), has no full form, and
// strips the frame; the proxy degrades to exactly one confirmation
// poll and keeps serving the genuine body.
func TestDeltaPushForgedBaseFallsToConfirmationPoll(t *testing.T) {
	s := newValuePushSetup(t, Config{})
	v1, v2 := docBody(1, 80), docBody(2, 80)
	s.origin.Set("/page", v1, "text/plain")
	waitPushConnected(t, s.proxy)
	s.get(t, "/page")

	// Seed the stream's held set with a genuine full delivery.
	s.origin.Set("/page", v2, "text/plain")
	if !waitFor(t, 3*time.Second, func() bool {
		b, _ := s.proxy.CachedBody("/page")
		return string(b) == string(v2)
	}) {
		t.Fatalf("genuine update never installed: %+v", s.proxy.PushStats())
	}
	pollsBefore := s.origin.Polls()

	s.origin.InjectPushEvent(push.Event{
		Kind: push.KindUpdate, Key: "/page", ModTime: time.Now().Add(time.Hour),
		Body: []byte{0x01, 0x03, 'x', 'y', 'z'}, HasBody: true,
		Digest:     push.DigestOf([]byte("forged target")),
		BaseDigest: "00000000deadbeef", DeltaCodec: push.DeltaCodecBlock,
	})
	if !waitFor(t, 3*time.Second, func() bool { return s.proxy.PushStats().ValueFallbacks >= 1 }) {
		t.Fatalf("forged base never fell back: %+v", s.proxy.PushStats())
	}
	if !waitFor(t, 3*time.Second, func() bool { return s.origin.Polls() > pollsBefore }) {
		t.Fatal("confirmation poll never reached the origin")
	}
	if got := s.origin.Polls(); got != pollsBefore+1 {
		t.Errorf("forged base cost %d polls; the ladder owes exactly one", got-pollsBefore)
	}
	st := s.proxy.PushStats()
	if st.ValueFallbacks != 1 {
		t.Errorf("ValueFallbacks = %d, want exactly 1: %+v", st.ValueFallbacks, st)
	}
	if b, _ := s.proxy.CachedBody("/page"); string(b) != string(v2) {
		t.Errorf("cache degraded off the genuine body: %d bytes", len(b))
	}
}

// TestResolveDeltaBaseAuthority exercises the resident apply path's
// refusal cases directly: a forged base, a hostile delta stream on a
// genuine base, and a correct reconstruction that fails the terminal
// digest check must each count a base miss and install nothing, while
// the all-correct frame installs without any origin traffic.
func TestResolveDeltaBaseAuthority(t *testing.T) {
	s := newValuePushSetup(t, Config{})
	v1, v2 := docBody(1, 100), docBody(2, 100)
	s.origin.Set("/obj", v1, "text/plain")
	waitPushConnected(t, s.proxy)
	s.get(t, "/obj")
	pollsBefore := s.origin.Polls()

	e := s.proxy.lookup("/obj")
	if e == nil {
		t.Fatal("admitted object not resident")
	}
	delta, ok := push.MakeDelta(v1, v2)
	if !ok {
		t.Fatal("MakeDelta refused a trivially delta-able revision")
	}
	mk := func(body []byte, digest, base string) *push.Event {
		return &push.Event{
			Kind: push.KindUpdate, Key: "/obj", ModTime: time.Now().Add(time.Hour),
			Body: body, HasBody: true, Digest: digest,
			BaseDigest: base, DeltaCodec: push.DeltaCodecBlock,
		}
	}

	cases := []struct {
		name string
		ev   *push.Event
	}{
		{"forged base digest", mk(delta, push.DigestOf(v2), "00000000deadbeef")},
		{"hostile delta stream", mk([]byte{0xff, 0x01, 0x02}, push.DigestOf(v2), push.DigestOf(v1))},
		{"terminal digest mismatch", mk(delta, push.DigestOf(v1), push.DigestOf(v1))},
	}
	for i, tc := range cases {
		if s.proxy.applyPushedValue(e, tc.ev) {
			t.Fatalf("%s: applyPushedValue accepted the frame", tc.name)
		}
		if got := s.proxy.PushStats().DeltaBaseMisses; got != uint64(i+1) {
			t.Fatalf("%s: DeltaBaseMisses = %d, want %d", tc.name, got, i+1)
		}
		if b, _ := s.proxy.CachedBody("/obj"); string(b) != string(v1) {
			t.Fatalf("%s: refusal mutated the cached body", tc.name)
		}
	}

	if !s.proxy.applyPushedValue(e, mk(delta, push.DigestOf(v2), push.DigestOf(v1))) {
		t.Fatalf("correct delta refused: %+v", s.proxy.PushStats())
	}
	st := s.proxy.PushStats()
	if st.DeltaApplied != 1 || st.DeltaBaseMisses != 3 {
		t.Errorf("stats after apply: %+v", st)
	}
	if b, _ := s.proxy.CachedBody("/obj"); string(b) != string(v2) {
		t.Errorf("delta apply installed wrong body (%d bytes)", len(b))
	}
	if got := s.origin.Polls(); got != pollsBefore {
		t.Errorf("direct apply path cost %d origin polls", got-pollsBefore)
	}
}

// TestDiskDeltaBaseAuthority is the satellite invariant test: after a
// demotion, the delta base is the digest of the bytes read back from
// the disk record — never the in-memory digest the entry carried before
// eviction. A delta based on the pre-demotion body is refused once the
// record has moved on, and a delta based on the current disk body
// applies and persists.
func TestDiskDeltaBaseAuthority(t *testing.T) {
	var mu sync.Mutex
	lastMod := time.Now().UTC().Add(-time.Hour).Truncate(time.Second)
	body := func(path string) string {
		b := fmt.Sprintf("payload of %s ", path)
		for len(b) < 1024 {
			b += "stable filler text. "
		}
		return b
	}
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		w.Header().Set("Last-Modified", lastMod.Format(http.TimeFormat))
		fmt.Fprint(w, body(r.URL.Path))
	})
	px, _ := newHandlerProxy(t, handler, Config{
		MaxBytes:     3200,
		Shards:       2,
		Bounds:       noRefreshBounds,
		DefaultDelta: time.Hour,
		DiskDir:      t.TempDir(),
		PushValues:   true, // payload application without a live stream: disk applies are direct
	})

	// Overrun the byte budget so CLOCK demotes most of the set to disk.
	const n = 8
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("/d/%d", i)
		if code, got, _ := proxyGet(t, px, k); code != 200 || got != body(k) {
			t.Fatalf("admit %s: %d", k, code)
		}
	}
	if px.DiskStats().Demotions == 0 {
		t.Fatal("no demotions: the byte budget did not displace anything")
	}
	px.FlushDisk()
	var key string
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("/d/%d", i)
		if px.lookup(k) == nil {
			if _, ok := px.disk.Meta(k); ok {
				key = k
				break
			}
		}
	}
	if key == "" {
		t.Fatal("no demoted key with a disk record")
	}
	_, v1, ok := px.disk.Get(key)
	if !ok {
		t.Fatalf("disk record for %s unreadable", key)
	}
	v2 := append(append([]byte{}, v1...), []byte("appended revision two, new trailing material\n")...)
	v3 := append(append([]byte{}, v2...), []byte("appended revision three, yet more material\n")...)
	t0 := time.Now().UTC().Truncate(time.Second)

	// Full update lands on the disk record.
	full := push.Event{
		Kind: push.KindUpdate, Key: key, ModTime: t0.Add(time.Hour),
		Body: v2, HasBody: true, Digest: push.DigestOf(v2),
	}
	if !px.applyPushedToDisk(full) {
		t.Fatal("full update refused by the disk tier")
	}
	px.FlushDisk()
	if _, got, ok := px.disk.Get(key); !ok || string(got) != string(v2) {
		t.Fatalf("disk body after full apply: ok=%v len=%d", ok, len(got))
	}

	// A delta based on the PRE-update body must be refused: the disk
	// bytes are the base authority, and they moved on.
	d13, ok := push.MakeDelta(v1, v3)
	if !ok {
		t.Fatal("MakeDelta(v1, v3) refused")
	}
	stale := push.Event{
		Kind: push.KindUpdate, Key: key, ModTime: t0.Add(2 * time.Hour),
		Body: d13, HasBody: true, Digest: push.DigestOf(v3),
		BaseDigest: push.DigestOf(v1), DeltaCodec: push.DeltaCodecBlock,
	}
	if px.applyPushedToDisk(stale) {
		t.Fatal("stale-base delta accepted against a moved-on disk record")
	}
	if got := px.PushStats().DeltaBaseMisses; got != 1 {
		t.Fatalf("DeltaBaseMisses = %d after stale-base refusal", got)
	}
	px.FlushDisk()
	if _, got, _ := px.disk.Get(key); string(got) != string(v2) {
		t.Fatal("stale-base refusal mutated the disk body")
	}

	// A delta based on the CURRENT disk bytes applies and persists.
	d23, ok := push.MakeDelta(v2, v3)
	if !ok {
		t.Fatal("MakeDelta(v2, v3) refused")
	}
	good := push.Event{
		Kind: push.KindUpdate, Key: key, ModTime: t0.Add(2 * time.Hour),
		Body: d23, HasBody: true, Digest: push.DigestOf(v3),
		BaseDigest: push.DigestOf(v2), DeltaCodec: push.DeltaCodecBlock,
	}
	if !px.applyPushedToDisk(good) {
		t.Fatal("current-base delta refused by the disk tier")
	}
	px.FlushDisk()
	if _, got, ok := px.disk.Get(key); !ok || string(got) != string(v3) {
		t.Fatalf("disk body after delta apply: ok=%v len=%d", ok, len(got))
	}
	st := px.PushStats()
	if st.DeltaApplied != 1 || st.DiskApplied != 2 {
		t.Errorf("stats after disk applies: %+v", st)
	}

	// Replaying an older frame is a recognized duplicate, not a rewind.
	if !px.applyPushedToDisk(full) {
		t.Fatal("duplicate replay not recognized as handled")
	}
	px.FlushDisk()
	if _, got, _ := px.disk.Get(key); string(got) != string(v3) {
		t.Fatal("duplicate replay rewound the disk body")
	}
}

// TestOverrideToleranceLive drives the runtime Δ/Δv override against a
// live proxy: the override echoes the entry's post-override tolerances,
// refuses non-resident keys, counts applications, and journals the new
// bounds through the disk tier so a restart would rehydrate them.
func TestOverrideToleranceLive(t *testing.T) {
	s := newLiveSetup(t, []webserver.Option{webserver.WithHistoryExtension(true)}, Config{
		Bounds:       core.TTRBounds{Min: time.Minute, Max: time.Hour},
		DefaultDelta: time.Minute,
		DiskDir:      t.TempDir(),
	})
	s.origin.Set("/page", docBody(1, 40), "text/plain")
	s.get(t, "/page")

	res, ok := s.proxy.OverrideTolerance("/page", 30*time.Second, 0)
	if !ok {
		t.Fatal("override refused for a resident key")
	}
	if res.Key != "/page" || res.Delta != 30*time.Second || res.ValueDelta != 0 {
		t.Fatalf("override result = %+v", res)
	}
	if got := s.proxy.ToleranceOverrides(); got != 1 {
		t.Fatalf("ToleranceOverrides = %d", got)
	}
	if cs := s.proxy.CacheStats(); cs.ToleranceOverrides != 1 {
		t.Fatalf("CacheStats.ToleranceOverrides = %d", cs.ToleranceOverrides)
	}

	if _, ok := s.proxy.OverrideTolerance("/nope", time.Second, 0); ok {
		t.Fatal("override accepted a non-resident key")
	}
	if got := s.proxy.ToleranceOverrides(); got != 1 {
		t.Fatalf("failed override counted: %d", got)
	}

	// The override journals through the disk tier: the record carries
	// the new Δ for rehydration.
	s.proxy.FlushDisk()
	rec, ok := s.proxy.disk.Meta("/page")
	if !ok {
		t.Fatal("no disk record journaled for the overridden entry")
	}
	if rec.Delta != 30*time.Second {
		t.Fatalf("journaled Delta = %v, want 30s", rec.Delta)
	}

	// Δv on a value object: the override echoes the new value tolerance.
	s.origin.Set("/quote", []byte("100.00\n"), "text/plain")
	s.origin.SetTolerances("/quote", httpx.Tolerances{ValueDelta: 0.25})
	s.get(t, "/quote")
	res2, ok := s.proxy.OverrideTolerance("/quote", 0, 0.5)
	if !ok {
		t.Fatal("dv override refused for a resident value object")
	}
	if res2.ValueDelta != 0.5 {
		t.Fatalf("dv override result = %+v", res2)
	}
	if got := s.proxy.ToleranceOverrides(); got != 2 {
		t.Fatalf("ToleranceOverrides = %d", got)
	}
}
