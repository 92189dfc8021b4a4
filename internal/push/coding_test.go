package push

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// openStream opens a raw event stream on url with the given
// Accept-Encoding (none when empty); the Transport decodes nothing.
func openStream(t testing.TB, url, acceptEncoding string) *http.Response {
	t.Helper()
	tr := &http.Transport{DisableCompression: true}
	t.Cleanup(tr.CloseIdleConnections)
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if acceptEncoding != "" {
		req.Header.Set("Accept-Encoding", acceptEncoding)
	}
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream returned %s", resp.Status)
	}
	return resp
}

// frameLines reads r's lines on a goroutine; the channel closes when r
// ends.
func frameLines(r io.Reader) <-chan string {
	ch := make(chan string, 64)
	go func() {
		defer close(ch)
		br := bufio.NewReader(r)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			ch <- strings.TrimSuffix(line, "\n")
		}
	}()
	return ch
}

// awaitLine waits for a line with the given prefix, skipping others.
func awaitLine(t *testing.T, lines <-chan string, prefix string) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("stream ended before a line starting %q", prefix)
			}
			if strings.HasPrefix(line, prefix) {
				return
			}
		case <-timeout:
			t.Fatalf("no line starting %q: the reader is stalled on a written batch", prefix)
		}
	}
}

// textPayload is a body of n bytes of seeded random text: words from a
// small vocabulary and decimal figures, compressible as markup is.
func textPayload(n, seed int) []byte {
	words := strings.Fields("the cache origin proxy update lease delta poll object group " +
		"stale fresh value price quote story page news sports weather market")
	rng := rand.New(rand.NewSource(int64(seed)))
	var b bytes.Buffer
	for b.Len() < n {
		if rng.Intn(4) == 0 {
			b.WriteString(strconv.Itoa(rng.Intn(100000)))
		} else {
			b.WriteString(words[rng.Intn(len(words))])
		}
		b.WriteByte(" \n"[rng.Intn(8)/7])
	}
	return b.Bytes()[:n]
}

func payloadEvent(key string, seed int) Event {
	body := textPayload(1<<10, seed)
	return Event{Kind: KindUpdate, Key: key, Body: body, HasBody: true, Digest: DigestOf(body)}
}

// TestGzipStreamDeliversEachBatch: on a gzip stream every line of a batch
// reaches the reader before anything else is written — update batches
// and small control batches (the hello, a mid-stream Reset) alike — so
// no batch waits in the reader's window for the next one.
func TestGzipStreamDeliversEachBatch(t *testing.T) {
	h := NewHub(HubConfig{Heartbeat: time.Hour})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	resp := openStream(t, ts.URL, "gzip")
	if ce := resp.Header.Get("Content-Encoding"); ce != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", ce)
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := frameLines(zr)
	awaitLine(t, lines, "data: 1 0 ")
	for i := 1; i <= 4; i++ {
		h.Publish(payloadEvent(fmt.Sprintf("/k%d", i), i))
		awaitLine(t, lines, fmt.Sprintf("data: 2 %d ", i))
	}
	h.Reset()
	awaitLine(t, lines, "data: 1 4 0 r ")
	h.Publish(payloadEvent("/k5", 5))
	awaitLine(t, lines, "data: 2 5 ")
}

// TestIdentityStreamUnchanged: a request that does not accept gzip — no
// Accept-Encoding at all, or gzip at quality zero — gets the frames
// themselves, byte for byte.
func TestIdentityStreamUnchanged(t *testing.T) {
	for _, accept := range []string{"", "gzip;q=0", "br, gzip; q=0.000"} {
		t.Run(fmt.Sprintf("%q", accept), func(t *testing.T) {
			h := NewHub(HubConfig{Heartbeat: time.Hour})
			ts := httptest.NewServer(h)
			t.Cleanup(ts.Close)
			resp := openStream(t, ts.URL, accept)
			if ce := resp.Header.Get("Content-Encoding"); ce != "" {
				t.Fatalf("Content-Encoding = %q, want none", ce)
			}
			evs := []Event{
				{Kind: KindUpdate, Seq: 1, Key: "/a"},
				{Kind: KindUpdate, Seq: 2, Key: "/b"},
			}
			want := "id: 0\ndata: " + Event{Kind: KindHello}.Encode() + "\n\n"
			for _, ev := range evs {
				h.Publish(ev)
				want += fmt.Sprintf("id: %d\ndata: %s\n\n", ev.Seq, ev.Encode())
			}
			got := make([]byte, len(want))
			if _, err := io.ReadFull(resp.Body, got); err != nil {
				t.Fatal(err)
			}
			if string(got) != want {
				t.Errorf("stream bytes\n%q\nwant\n%q", got, want)
			}
		})
	}
}

func TestAcceptsGzip(t *testing.T) {
	cases := map[string]bool{
		"":                     false,
		"gzip":                 true,
		"GZIP":                 true,
		"deflate, gzip":        true,
		"gzip;q=0.5":           true,
		"gzip ; q=1, br":       true,
		"gzip;q=0":             false,
		"gzip;q=0.0, deflate":  false,
		"x-gzip, br, identity": false,
		"gzip;q=bogus":         false,
	}
	for v, want := range cases {
		hdr := http.Header{}
		if v != "" {
			hdr.Set("Accept-Encoding", v)
		}
		if got := acceptsGzip(hdr); got != want {
			t.Errorf("acceptsGzip(%q) = %v, want %v", v, got, want)
		}
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestGzipStreamEndsWellFormed: a gzip stream the hub ends (every stream
// killed, or the endpoint disabled) is a whole member: a gzip reader
// reads it to io.EOF with the trailer's checksum and size verified, and
// the hub's byte counters agree with what crossed and what it decoded to.
func TestGzipStreamEndsWellFormed(t *testing.T) {
	ends := map[string]func(*Hub){
		"KillAll":             (*Hub).KillAll,
		"SetAvailable(false)": func(h *Hub) { h.SetAvailable(false) },
	}
	for name, end := range ends {
		t.Run(name, func(t *testing.T) {
			h := NewHub(HubConfig{Heartbeat: time.Hour})
			ts := httptest.NewServer(h)
			t.Cleanup(ts.Close)
			resp := openStream(t, ts.URL, "gzip")
			wire := &countingReader{r: resp.Body}
			zr, err := gzip.NewReader(wire)
			if err != nil {
				t.Fatal(err)
			}
			zr.Multistream(false)
			var plain bytes.Buffer
			br := bufio.NewReader(io.TeeReader(zr, &plain))
			for i := 1; i <= 3; i++ {
				h.Publish(payloadEvent("/k", i))
				for {
					line, err := br.ReadString('\n')
					if err != nil {
						t.Fatal(err)
					}
					if strings.HasPrefix(line, fmt.Sprintf("data: 2 %d ", i)) {
						break
					}
				}
			}
			end(h)
			if _, err := io.Copy(io.Discard, br); err != nil {
				t.Fatalf("reading the ended stream: %v", err)
			}
			// The member ends before the handler returns and counts its trailer.
			if !waitCond(t, 5*time.Second, func() bool { return h.Stats().ActiveStreams == 0 }) {
				t.Fatal("the ended stream's handler never returned")
			}
			st := h.Stats()
			if st.StreamBytes != uint64(wire.n) || st.StreamRawBytes != uint64(plain.Len()) {
				t.Errorf("hub counted %d wire and %d frame bytes; the reader saw %d and %d",
					st.StreamBytes, st.StreamRawBytes, wire.n, plain.Len())
			}
			if st.StreamBytes >= st.StreamRawBytes {
				t.Errorf("coded stream is %d bytes for %d frame bytes", st.StreamBytes, st.StreamRawBytes)
			}
		})
	}
}

// gatedWriter is the ResponseWriter of a client that reads only when the
// test lets it: each write takes a permit, and without one it waits out
// the write deadline in force, as a write into a full socket does.
type gatedWriter struct {
	header   http.Header
	permits  chan struct{}
	waiting  atomic.Int32 // writes parked for a permit
	writes   atomic.Int32 // writes that landed
	mu       sync.Mutex
	deadline time.Time
	out      []byte // the bytes that landed
}

func (g *gatedWriter) Header() http.Header { return g.header }
func (g *gatedWriter) WriteHeader(int)     {}
func (g *gatedWriter) Flush()              {}

func (g *gatedWriter) SetWriteDeadline(d time.Time) error {
	g.mu.Lock()
	g.deadline = d
	g.mu.Unlock()
	return nil
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	g.mu.Lock()
	timer := time.NewTimer(time.Until(g.deadline))
	g.mu.Unlock()
	defer timer.Stop()
	g.waiting.Add(1)
	defer g.waiting.Add(-1)
	select {
	case <-g.permits:
		g.mu.Lock()
		g.out = append(g.out, p...)
		g.mu.Unlock()
		g.writes.Add(1)
		return len(p), nil
	case <-timer.C:
		return 0, os.ErrDeadlineExceeded
	}
}

// written returns the bytes that landed.
func (g *gatedWriter) written() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return string(g.out)
}

// TestOutrunStreamEndsPromptly: a gzip stream whose reader stalled until
// the ring outran it is killed without a trailer. The trailer would find
// the socket as full as the last batch did, and would hold the handler
// (and its registration) for another write timeout for a reader that is
// not reading.
func TestOutrunStreamEndsPromptly(t *testing.T) {
	h := NewHub(HubConfig{Heartbeat: time.Hour, replayLen: 8, subscriberBuffer: 1 << 20, writeTimeout: 30 * time.Second})
	gw := &gatedWriter{header: http.Header{}, permits: make(chan struct{}, 1)}
	req := httptest.NewRequest(http.MethodGet, "/events", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	gw.permits <- struct{}{} // the hello
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		h.ServeHTTP(gw, req)
	}()
	if !waitCond(t, 5*time.Second, func() bool { return gw.writes.Load() == 1 }) {
		t.Fatal("the hello was never written")
	}
	h.Publish(Event{Kind: KindUpdate, Key: "/k"})
	if !waitCond(t, 5*time.Second, func() bool { return gw.waiting.Load() == 1 }) {
		t.Fatal("the first batch never reached its write")
	}
	for i := 0; i < 16; i++ {
		h.Publish(Event{Kind: KindUpdate, Key: "/k"})
	}
	gw.permits <- struct{}{} // the parked batch lands; nothing more will
	select {
	case <-returned:
	case <-time.After(2 * time.Second):
		t.Fatal("the outrun stream's handler is still writing to a reader that stopped")
	}
	if st := h.Stats(); gw.writes.Load() != 2 || st.SlowKills != 1 || st.Subscribers != 0 {
		t.Errorf("%d writes, %d slow kills, %d subscribers; want 2, 1 and 0", gw.writes.Load(), st.SlowKills, st.Subscribers)
	}
}

// corruptingWriter rewrites the first write after corrupt is set: the
// segment's leading block header gets the reserved block type.
type corruptingWriter struct {
	http.ResponseWriter
	corrupt *atomic.Bool
}

func (c corruptingWriter) Write(p []byte) (int, error) {
	if len(p) > 0 && c.corrupt.CompareAndSwap(true, false) {
		q := append([]byte(nil), p...)
		q[0] |= 0x06 // BTYPE 11
		return c.ResponseWriter.Write(q)
	}
	return c.ResponseWriter.Write(p)
}

func (c corruptingWriter) Flush() { c.ResponseWriter.(http.Flusher).Flush() }

func (c corruptingWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }

// TestSubscriberReconnectsOnCorruptSegment: a segment that fails to
// decode ends the stream — it is never skipped as a lost frame — and the
// subscriber resumes with ?since= at its last update, so every update is
// applied exactly once, in order.
func TestSubscriberReconnectsOnCorruptSegment(t *testing.T) {
	h := NewHub(HubConfig{Heartbeat: time.Hour})
	var corrupt atomic.Bool
	var mu sync.Mutex
	var queries []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		queries = append(queries, r.URL.RawQuery)
		first := len(queries) == 1
		mu.Unlock()
		if first {
			w = corruptingWriter{ResponseWriter: w, corrupt: &corrupt}
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	sink := &hubSink{}
	sub := startHubSubscriber(t, ts.URL, sink)
	count := func() (events, hellos int) {
		e, hl, _ := sink.snapshot()
		return len(e), len(hl)
	}
	if !waitCond(t, 5*time.Second, func() bool { _, n := count(); return n == 1 }) {
		t.Fatal("never connected")
	}
	for i := 1; i <= 2; i++ {
		h.Publish(payloadEvent(fmt.Sprintf("/k%d", i), i))
	}
	if !waitCond(t, 5*time.Second, func() bool { n, _ := count(); return n == 2 }) {
		t.Fatal("first updates never arrived")
	}
	corrupt.Store(true)
	h.Publish(payloadEvent("/k3", 3))
	if !waitCond(t, 5*time.Second, func() bool { n, hl := count(); return n == 3 && hl == 2 }) {
		n, hl := count()
		t.Fatalf("after the corrupt segment: %d events, %d connects; want 3 and 2", n, hl)
	}
	h.Publish(payloadEvent("/k4", 4))
	if !waitCond(t, 5*time.Second, func() bool { n, _ := count(); return n == 4 }) {
		t.Fatal("the update after the reconnect never arrived")
	}
	events, _, _ := sink.snapshot()
	for i, ev := range events {
		if ev.Seq != uint64(i+1) || !ev.HasBody {
			t.Errorf("event %d: seq %d body %v, want seq %d with its body", i, ev.Seq, ev.HasBody, i+1)
		}
	}
	if st := sub.Stats(); st.SkippedFrames != 0 || st.Disconnects != 1 {
		t.Errorf("skipped %d frames, %d disconnects; want 0 and 1", st.SkippedFrames, st.Disconnects)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(queries) != 2 || !strings.Contains(queries[1], "since=2") {
		t.Errorf("requests %q: want a second one resuming with since=2", queries)
	}
}

// FuzzStreamSegments: any sequence of batches, coded as segments behind
// the member header and closed by the trailer, decodes through
// gzip.Reader to exactly their concatenation. Two streams are coded
// alternately through the shared compressor pool and decoded apart, so
// a segment that referred back into another stream's bytes (a pooled
// compressor not Reset between segments) fails. Each plan byte is one
// batch: bit 7 picks its stream, bit 6 scales its length, and its bytes
// are taken from data in turn.
func FuzzStreamSegments(f *testing.F) {
	f.Add([]byte("id: 1\ndata: 1 0 0 - - -\n\n"), []byte{0x9a})
	f.Add([]byte("data: 2 1 0 p %2Fk - cGF5bG9hZA== 6c0fffb738e4d5c2\n\n"), []byte{0x9a, 0x3f, 0x01, 0x80})
	f.Add(textPayload(4096, 1), []byte{0x7f, 0xff, 0x00, 0x45})
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, data, plan []byte) {
		var c [2]streamCoder
		var coded, want [2][]byte
		for s := range coded {
			coded[s] = append([]byte(nil), gzipHeader...)
		}
		at := 0
		for _, p := range plan {
			s := int(p >> 7)
			n := int(p & 0x3f)
			if p&0x40 != 0 {
				n <<= 11
			}
			batch := make([]byte, n)
			for i := range batch {
				if len(data) > 0 {
					batch[i] = data[at%len(data)]
					at++
				}
			}
			coded[s] = c[s].appendSegment(coded[s], batch)
			want[s] = append(want[s], batch...)
		}
		for s := range coded {
			zr, err := gzip.NewReader(bytes.NewReader(c[s].appendTrailer(coded[s])))
			if err != nil {
				t.Fatal(err)
			}
			zr.Multistream(false)
			got, err := io.ReadAll(zr)
			if err != nil {
				t.Fatalf("decoding stream %d of %d batches: %v", s, len(plan), err)
			}
			if !bytes.Equal(got, want[s]) {
				t.Fatalf("stream %d decoded %d bytes, want its %d", s, len(got), len(want[s]))
			}
		}
	})
}

// BenchmarkHubServeStream measures ServeHTTP itself over real sockets:
// 1 KiB text bodies published to 1 and 16 subscribers that drain their
// stream raw, identity against gzip. ns/frame is wall time per frame per
// subscriber, the serving price content coding adds to each stream;
// wire-B/frame is what each frame cost on the link.
func BenchmarkHubServeStream(b *testing.B) {
	for _, subs := range []int{1, 16} {
		for _, coding := range []string{"identity", "gzip"} {
			b.Run(fmt.Sprintf("subs=%d/%s", subs, coding), func(b *testing.B) {
				benchServeStream(b, subs, coding == "gzip")
			})
		}
	}
}

func benchServeStream(b *testing.B, subs int, gz bool) {
	h := NewHub(HubConfig{Heartbeat: time.Hour, subscriberBuffer: 1 << 20})
	ts := httptest.NewServer(h)
	b.Cleanup(ts.Close)
	accept := ""
	if gz {
		accept = "gzip"
	}
	var wire atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < subs; i++ {
		resp := openStream(b, ts.URL, accept)
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 32<<10)
			for {
				n, err := resp.Body.Read(buf)
				wire.Add(uint64(n))
				if err != nil {
					return
				}
			}
		}()
	}
	// drained reports, twice over to cover a batch between its cursor
	// store and its write, that every stream is at the head and read out.
	drained := func() bool {
		for i := 0; i < 2; i++ {
			st := h.Stats()
			if st.Subscribers != subs || st.MaxLag != 0 || wire.Load() != st.StreamBytes {
				return false
			}
			time.Sleep(100 * time.Microsecond)
		}
		return true
	}
	wait := func() {
		for !drained() {
			time.Sleep(50 * time.Microsecond)
		}
	}
	evs := make([]Event, 64)
	for i := range evs {
		evs[i] = payloadEvent(fmt.Sprintf("/obj/%d", i), i)
	}
	wait()
	before := h.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Publish(evs[i%len(evs)])
		if i%256 == 255 {
			wait() // stay inside the replay ring
		}
	}
	wait()
	b.StopTimer()
	after := h.Stats()
	frames := float64(b.N) * float64(subs)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/frames, "ns/frame")
	b.ReportMetric(float64(after.StreamBytes-before.StreamBytes)/frames, "wire-B/frame")
	h.KillAll()
	wg.Wait()
}
