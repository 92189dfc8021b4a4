package push

import (
	"context"
	"fmt"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"
)

// contextWithTestCleanup returns a context cancelled at test cleanup.
func contextWithTestCleanup(t *testing.T) (context.Context, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return ctx, cancel
}

func TestInterestSetMatching(t *testing.T) {
	cases := []struct {
		name  string
		query string // the stream's declaration, as ParseInterest reads it
		key   string
		want  bool
	}{
		{"prefix hit", "prefix=/news/", "/news/a.html", true},
		{"prefix miss", "prefix=/news/", "/stock/a", false},
		{"exact key as prefix", "prefix=/a", "/a", true},
		{"string prefix, not path segment", "prefix=/a", "/ab", true},
		{"any prefix suffices", "prefix=/a/&prefix=/b", "/b", true},
		{"literal dash key", "prefix=-", "-x", true},
		{"query in key", "prefix=" + url.QueryEscape("/stock?sym="), "/stock?sym=A", true},
		{"no declaration serves everything", "", "/anything", true},
		{"only empty terms serve everything", "prefix=&prefix=", "/anything", true},
		{"a group term serves everything", "prefix=/a/&group=g", "/b", true},
	}
	for _, c := range cases {
		q, err := url.ParseQuery(c.query)
		if err != nil {
			t.Fatal(err)
		}
		if got := ParseInterest(q).Matches(c.key); got != c.want {
			t.Errorf("%s: ParseInterest(%q).Matches(%q) = %v, want %v", c.name, c.query, c.key, got, c.want)
		}
	}
	if !InterestAll().Matches("/anything") {
		t.Error("InterestAll must match everything")
	}
	if (InterestSet{}).Matches("/anything") {
		t.Error("zero-value set must match nothing")
	}
}

func TestInterestSetNormalization(t *testing.T) {
	s := NewInterest([]string{"/a/b", "/a", "/ab", "/c", "/a/b/c", "/c"})
	// "/a" subsumes "/a/b", "/ab", "/a/b/c" (string prefixes); "/c" dedupes.
	if got := s.Prefixes(); len(got) != 2 || got[0] != "/a" || got[1] != "/c" {
		t.Errorf("Prefixes() = %v, want [/a /c]", got)
	}
}

func TestInterestSetFailsOpen(t *testing.T) {
	// Over-length term: the whole declaration widens to match-all, never
	// silently drops the term (that would filter away wanted updates).
	long := NewInterest([]string{strings.Repeat("k", maxInterestTermLen+1)})
	if !long.IsAll() {
		t.Error("over-length prefix did not widen to match-all")
	}
	// Over-count after normalization widens too.
	var many []string
	for i := 0; i <= maxInterestTerms; i++ {
		many = append(many, fmt.Sprintf("/p%04d", i))
	}
	if s := NewInterest(many); !s.IsAll() {
		t.Error("over-count declaration did not widen to match-all")
	}
	// Union overflow widens.
	a := NewInterest(many[:maxInterestTerms])
	b := NewInterest([]string{"/zzz"})
	if u := a.Union(b); !u.IsAll() {
		t.Error("overflowing union did not widen to match-all")
	}
}

func TestInterestSetCovers(t *testing.T) {
	wide := NewInterest([]string{"/a/"})
	narrow := NewInterest([]string{"/a/b/"})
	if !wide.Covers(narrow) {
		t.Error("/a/ should cover /a/b/")
	}
	if narrow.Covers(wide) {
		t.Error("/a/b/ must not cover /a/")
	}
	if !InterestAll().Covers(wide) || wide.Covers(InterestAll()) {
		t.Error("match-all coverage asymmetry violated")
	}
	// The empty set is covered by anything.
	if !narrow.Covers(NewInterest(nil)) {
		t.Error("empty set not covered")
	}
}

func TestInterestQueryRoundTrip(t *testing.T) {
	s := NewInterest([]string{"/stock?sym=A&x= b", "/news/", "-"})
	q, err := url.ParseQuery(s.EncodeQuery())
	if err != nil {
		t.Fatalf("EncodeQuery produced an unparsable query: %v", err)
	}
	s2 := ParseInterest(q)
	for _, key := range []string{"/stock?sym=A&x= bcd", "/news/x", "-y", "/k", "/other"} {
		if s.Matches(key) != s2.Matches(key) {
			t.Errorf("round trip diverged on %q", key)
		}
	}
	// Declaring nothing is match-all (filtering is opt-in)...
	if !ParseInterest(url.Values{}).IsAll() {
		t.Error("no declaration must mean match-all")
	}
	// ...and the match-all set encodes as no parameters.
	if q := InterestAll().EncodeQuery(); q != "" {
		t.Errorf("InterestAll().EncodeQuery() = %q, want empty", q)
	}
}

// TestRenderedFormsByteIdentical pins the render-once refactor to the
// old wire bytes: the pre-rendered full and stripped forms must be
// exactly what per-subscriber Encode (with the per-stream StripPayload
// degrade) used to produce.
func TestRenderedFormsByteIdentical(t *testing.T) {
	body := []byte("165.38\n")
	events := []Event{
		{Kind: KindUpdate, Seq: 7, Key: "/quote/acme",
			ModTime: time.Unix(1700000000, 123)},
		{Kind: KindUpdate, Seq: 8, Key: "/quote/acme", Body: body,
			HasBody: true, ContentType: "text/plain", Digest: DigestOf(body)},
		{Kind: KindUpdate, Seq: 9, Key: "/e", Body: []byte{}, HasBody: true},
		{Kind: KindHello, Seq: 10, Reset: true},
		{Kind: KindHello, Seq: 11, PayloadCap: 4096},
		{Kind: KindHeartbeat, Seq: 12},
	}
	for _, ev := range events {
		re := RenderLadder(ev, 0)
		if re.Full() != ev.Encode() {
			t.Errorf("Full() = %q, want Encode() = %q", re.Full(), ev.Encode())
		}
		if re.Stripped() != ev.StripPayload().Encode() {
			t.Errorf("Stripped() = %q, want %q", re.Stripped(), ev.StripPayload().Encode())
		}
		for _, cap := range []int{0, 1, len(body), MaxPayloadCap} {
			want := ev.Encode()
			if ev.HasBody && (cap <= 0 || len(ev.Body) > cap) {
				want = ev.StripPayload().Encode()
			}
			if got := re.WireFor(cap); got != want {
				t.Errorf("WireFor(%d) = %q, want %q (ev %+v)", cap, got, want, ev)
			}
		}
	}
}

// TestHubInterestFiltering: a subscriber that declared an interest set
// receives exactly the matching updates — and its resume position still
// advances past the frames it never heard, so reconnecting across a
// non-matching hole is NOT answered with a Reset (the fleet acceptance
// criterion, at hub scope).
func TestHubInterestFiltering(t *testing.T) {
	h := NewHub(HubConfig{Heartbeat: 25 * time.Millisecond})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)

	sink := &hubSink{}
	sub, err := NewSubscriber(SubscriberConfig{
		URL:        ts.URL,
		OnEvent:    sink.onEvent,
		OnConnect:  sink.onConnect,
		BackoffMin: 5 * time.Millisecond,
		BackoffMax: 50 * time.Millisecond,
		Interest:   func() InterestSet { return NewInterest([]string{"/news/", "/o"}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := contextWithTestCleanup(t)
	go sub.Run(ctx)
	if !waitCond(t, 2*time.Second, func() bool { return h.Stats().Subscribers == 1 }) {
		t.Fatal("never connected")
	}

	h.Publish(Event{Kind: KindUpdate, Key: "/news/a"})  // 1: matches
	h.Publish(Event{Kind: KindUpdate, Key: "/stock/x"}) // 2: filtered
	h.Publish(Event{Kind: KindUpdate, Key: "/o"})       // 3: matches
	h.Publish(Event{Kind: KindUpdate, Key: "/stock/y"}) // 4: filtered

	if !waitCond(t, 2*time.Second, func() bool {
		evs, _, _ := sink.snapshot()
		return len(evs) == 2
	}) {
		t.Fatal("matching events never arrived")
	}
	evs, _, _ := sink.snapshot()
	if evs[0].Key != "/news/a" || evs[1].Key != "/o" {
		t.Errorf("received %q,%q; want the two matching keys", evs[0].Key, evs[1].Key)
	}
	if st := h.Stats(); st.Filtered != 2 {
		t.Errorf("Stats().Filtered = %d, want 2", st.Filtered)
	}

	// The position heartbeat advances the subscriber past the filtered
	// tail (frame 4): its resume point reaches the stream head even
	// though the last frame it received was seq 3.
	if !waitCond(t, 2*time.Second, func() bool { return sub.LastSeq() == 4 }) {
		t.Fatalf("LastSeq = %d; the filtered hole never advanced the resume point", sub.LastSeq())
	}

	// Kill the stream, publish more non-matching frames across the
	// disconnect, and let it resume: the hole (5,6) is entirely outside
	// the filter, the ring can prove it, and the resume must NOT Reset.
	h.KillAll()
	h.Publish(Event{Kind: KindUpdate, Key: "/stock/z1"}) // 5: filtered
	h.Publish(Event{Kind: KindUpdate, Key: "/stock/z2"}) // 6: filtered
	if !waitCond(t, 2*time.Second, func() bool { return sub.Stats().Connects == 2 }) {
		t.Fatal("never reconnected")
	}
	if !waitCond(t, 2*time.Second, func() bool { return sub.LastSeq() == 6 }) {
		t.Fatalf("LastSeq = %d after resume, want 6", sub.LastSeq())
	}
	_, hellos, _ := sink.snapshot()
	for i, hello := range hellos {
		if hello.Reset {
			t.Errorf("hello %d carried Reset; a non-matching hole must not force one", i)
		}
	}
	if st := h.Stats(); st.ResumeHoles != 0 {
		t.Errorf("ResumeHoles = %d, want 0", st.ResumeHoles)
	}

	// A matching frame published after the resume still arrives: the
	// filtered stream is live, not wedged.
	h.Publish(Event{Kind: KindUpdate, Key: "/news/b"}) // 7: matches
	if !waitCond(t, 2*time.Second, func() bool {
		evs, _, _ := sink.snapshot()
		return len(evs) == 3 && evs[2].Key == "/news/b"
	}) {
		t.Fatal("post-resume matching frame never arrived")
	}
	cancel()
}

// TestHubServesUndeclarableInterestEverything: a stream whose
// declaration the prefix grammar cannot honour — a ?group= term, or
// only empty terms — fails open: it receives every update frame.
func TestHubServesUndeclarableInterestEverything(t *testing.T) {
	for _, query := range []string{"group=g", "prefix=/news/&group=", "prefix=", "prefix=&prefix="} {
		t.Run(query, func(t *testing.T) {
			h := NewHub(HubConfig{Heartbeat: time.Hour})
			ts := httptest.NewServer(h)
			t.Cleanup(ts.Close)
			lines := frameLines(openStream(t, ts.URL+"?"+query, "").Body)
			awaitLine(t, lines, "id: 0") // the hello
			for i, key := range []string{"/news/a", "/stock/x", "/o"} {
				ev := Event{Kind: KindUpdate, Seq: uint64(i + 1), Key: key}
				h.Publish(ev)
				awaitLine(t, lines, fmt.Sprintf("id: %d", ev.Seq))
				if line := <-lines; line != "data: "+ev.Encode() {
					t.Fatalf("frame %d = %q, want the update for %s", ev.Seq, line, key)
				}
			}
			if st := h.Stats(); st.Filtered != 0 {
				t.Errorf("Filtered = %d, want 0", st.Filtered)
			}
		})
	}
}

// TestSubscriberBounceRedeclaresInterest: Bounce must drop just the
// in-flight stream, reconnect through the full disconnect/connect
// reconciliation, and re-evaluate the Interest callback — the mechanism
// a relay uses to widen its upstream declaration when a new downstream
// subscriber wants more than it covers.
func TestSubscriberBounceRedeclaresInterest(t *testing.T) {
	h := NewHub(HubConfig{})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)

	var interest atomicInterest
	interest.store(NewInterest([]string{"/a/"}))
	sink := &hubSink{}
	sub, err := NewSubscriber(SubscriberConfig{
		URL:        ts.URL,
		OnEvent:    sink.onEvent,
		OnConnect:  sink.onConnect,
		BackoffMin: time.Millisecond,
		BackoffMax: 20 * time.Millisecond,
		Interest:   interest.load,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := contextWithTestCleanup(t)
	go sub.Run(ctx)
	// Connected means the subscriber has read the hello, not just that
	// the hub registered the stream: a bounce before the hello is a
	// failed attempt, not a disconnect.
	if !waitCond(t, 2*time.Second, func() bool { return h.Stats().Subscribers == 1 && sub.Stats().Connects == 1 }) {
		t.Fatal("never connected")
	}
	if d := sub.DeclaredInterest(); !d.Matches("/a/x") || d.Matches("/b/x") {
		t.Fatalf("declared interest %v does not reflect the Interest callback", d.Prefixes())
	}

	// Widen and bounce: the reconnected stream must carry the new set.
	interest.store(NewInterest([]string{"/a/", "/b/"}))
	sub.Bounce()
	if !waitCond(t, 2*time.Second, func() bool { return sub.Stats().Connects == 2 }) {
		t.Fatal("bounce never reconnected")
	}
	st := sub.Stats()
	if st.Bounces != 1 {
		t.Errorf("Bounces = %d, want 1", st.Bounces)
	}
	if st.Disconnects != 1 {
		t.Errorf("Disconnects = %d; a bounce must be a full disconnect reconciliation", st.Disconnects)
	}
	if d := sub.DeclaredInterest(); !d.Matches("/b/x") {
		t.Error("bounced stream did not re-declare the widened interest")
	}
	h.Publish(Event{Kind: KindUpdate, Key: "/b/x"})
	if !waitCond(t, 2*time.Second, func() bool {
		evs, _, _ := sink.snapshot()
		return len(evs) == 1 && evs[0].Key == "/b/x"
	}) {
		t.Fatal("widened interest never took effect upstream")
	}
	cancel()
}

// atomicInterest is a tiny test helper: a mutex-guarded InterestSet a
// test swaps while a subscriber's Interest callback reads it.
type atomicInterest struct {
	mu sync.Mutex
	s  InterestSet
}

func (a *atomicInterest) store(s InterestSet) { a.mu.Lock(); a.s = s; a.mu.Unlock() }
func (a *atomicInterest) load() InterestSet   { a.mu.Lock(); defer a.mu.Unlock(); return a.s }
