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
		name             string
		prefixes, groups []string
		key, group       string
		want             bool
	}{
		{"prefix hit", []string{"/news/"}, nil, "/news/a.html", "", true},
		{"prefix miss", []string{"/news/"}, nil, "/stock/a", "", false},
		{"exact key as prefix", []string{"/a"}, nil, "/a", "", true},
		{"string prefix, not path segment", []string{"/a"}, nil, "/ab", "", true},
		{"group hit", nil, []string{"frontpage"}, "/anything", "frontpage", true},
		{"group miss", nil, []string{"frontpage"}, "/anything", "sports", false},
		{"group empty never matches declared groups", nil, []string{"g"}, "/k", "", false},
		{"either dimension suffices", []string{"/a/"}, []string{"g"}, "/b", "g", true},
		{"literal dash key", []string{"-"}, nil, "-x", "", true},
		{"query in key", []string{"/stock?sym="}, nil, "/stock?sym=A", "", true},
	}
	for _, c := range cases {
		s := NewInterest(c.prefixes, c.groups)
		if got := s.Matches(c.key, c.group); got != c.want {
			t.Errorf("%s: NewInterest(%v,%v).Matches(%q,%q) = %v, want %v",
				c.name, c.prefixes, c.groups, c.key, c.group, got, c.want)
		}
	}
	if !InterestAll().Matches("/anything", "") {
		t.Error("InterestAll must match everything")
	}
	if (InterestSet{}).Matches("/anything", "") {
		t.Error("zero-value set must match nothing")
	}
}

func TestInterestSetNormalization(t *testing.T) {
	s := NewInterest([]string{"/a/b", "/a", "/ab", "/c", "/a/b/c", "/c"}, []string{"g", "g", "h"})
	// "/a" subsumes "/a/b", "/ab", "/a/b/c" (string prefixes); "/c" dedupes.
	if got := s.Prefixes(); len(got) != 2 || got[0] != "/a" || got[1] != "/c" {
		t.Errorf("Prefixes() = %v, want [/a /c]", got)
	}
	if got := s.Groups(); len(got) != 2 || got[0] != "g" || got[1] != "h" {
		t.Errorf("Groups() = %v, want [g h]", got)
	}
}

func TestInterestSetFailsOpen(t *testing.T) {
	// Over-length term: the whole declaration widens to match-all, never
	// silently drops the term (that would filter away wanted updates).
	long := NewInterest([]string{strings.Repeat("k", maxInterestTermLen+1)}, nil)
	if !long.IsAll() {
		t.Error("over-length prefix did not widen to match-all")
	}
	// Over-count after normalization widens too.
	var many []string
	for i := 0; i <= maxInterestTerms; i++ {
		many = append(many, fmt.Sprintf("/p%04d", i))
	}
	if s := NewInterest(many, nil); !s.IsAll() {
		t.Error("over-count declaration did not widen to match-all")
	}
	// Union overflow widens.
	a := NewInterest(many[:maxInterestTerms], nil)
	b := NewInterest([]string{"/zzz"}, nil)
	if u := a.Union(b); !u.IsAll() {
		t.Error("overflowing union did not widen to match-all")
	}
}

func TestInterestSetCovers(t *testing.T) {
	wide := NewInterest([]string{"/a/"}, []string{"g"})
	narrow := NewInterest([]string{"/a/b/"}, []string{"g"})
	if !wide.Covers(narrow) {
		t.Error("/a/ should cover /a/b/")
	}
	if narrow.Covers(wide) {
		t.Error("/a/b/ must not cover /a/")
	}
	if !InterestAll().Covers(wide) || wide.Covers(InterestAll()) {
		t.Error("match-all coverage asymmetry violated")
	}
	// Groups are only covered by groups: a group term can match keys
	// outside every declared prefix.
	if NewInterest([]string{"/"}, nil).Covers(NewInterest(nil, []string{"g"})) {
		t.Error("a prefix must not claim to cover a group")
	}
	// The empty set is covered by anything.
	if !narrow.Covers(NewInterest(nil, nil)) {
		t.Error("empty set not covered")
	}
}

func TestInterestQueryRoundTrip(t *testing.T) {
	s := NewInterest([]string{"/stock?sym=A&x= b", "/news/", "-"}, []string{"front page"})
	q, err := url.ParseQuery(s.EncodeQuery())
	if err != nil {
		t.Fatalf("EncodeQuery produced an unparsable query: %v", err)
	}
	s2 := ParseInterest(q)
	for _, probe := range []struct{ key, group string }{
		{"/stock?sym=A&x= bcd", ""}, {"/news/x", ""}, {"-y", ""},
		{"/k", "front page"}, {"/other", "other"},
	} {
		if s.Matches(probe.key, probe.group) != s2.Matches(probe.key, probe.group) {
			t.Errorf("round trip diverged on (%q,%q)", probe.key, probe.group)
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
		{Kind: KindUpdate, Seq: 7, Key: "/quote/acme", Group: "tickers",
			ModTime: time.Unix(1700000000, 123)},
		{Kind: KindUpdate, Seq: 8, Key: "/quote/acme", Group: "tickers", Body: body,
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
		Interest:   func() InterestSet { return NewInterest([]string{"/news/"}, []string{"g"}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := contextWithTestCleanup(t)
	go sub.Run(ctx)
	if !waitCond(t, 2*time.Second, func() bool { return h.Subscribers() == 1 }) {
		t.Fatal("never connected")
	}

	h.Publish(Event{Kind: KindUpdate, Key: "/news/a"})        // 1: matches (prefix)
	h.Publish(Event{Kind: KindUpdate, Key: "/stock/x"})       // 2: filtered
	h.Publish(Event{Kind: KindUpdate, Key: "/o", Group: "g"}) // 3: matches (group)
	h.Publish(Event{Kind: KindUpdate, Key: "/stock/y"})       // 4: filtered

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
	if !waitCond(t, 2*time.Second, func() bool { return sub.Connects() == 2 }) {
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
	interest.store(NewInterest([]string{"/a/"}, nil))
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
	if !waitCond(t, 2*time.Second, func() bool { return h.Subscribers() == 1 }) {
		t.Fatal("never connected")
	}
	if d := sub.DeclaredInterest(); !d.Matches("/a/x", "") || d.Matches("/b/x", "") {
		t.Fatalf("declared interest %v does not reflect the Interest callback", d.Prefixes())
	}

	// Widen and bounce: the reconnected stream must carry the new set.
	interest.store(NewInterest([]string{"/a/", "/b/"}, nil))
	sub.Bounce()
	if !waitCond(t, 2*time.Second, func() bool { return sub.Connects() == 2 }) {
		t.Fatal("bounce never reconnected")
	}
	if sub.Bounces() != 1 {
		t.Errorf("Bounces() = %d, want 1", sub.Bounces())
	}
	if sub.Disconnects() != 1 {
		t.Errorf("Disconnects() = %d; a bounce must be a full disconnect reconciliation", sub.Disconnects())
	}
	if d := sub.DeclaredInterest(); !d.Matches("/b/x", "") {
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
