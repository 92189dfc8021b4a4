package push

import (
	"net/url"
	"sort"
	"strings"
)

// This file defines interest sets: the subscriber-declared filter that
// turns the hub's broadcast fan-out into targeted delivery. A
// subscriber names the slices of the key space it caches — path
// prefixes (?prefix=, repeatable) — and the hub skips every update
// frame outside them at write time, advancing the stream's resume
// position without shipping the frame. Filtering is an optimization,
// never a correctness lever: every bound here fails OPEN (toward
// match-all), because delivering a frame nobody asked for costs one
// ignored line while suppressing a frame somebody needed silently
// widens the Δ guarantee. The same rule covers a declaration the
// grammar cannot honour — one naming a consistency group (?group=), or
// one whose every term is empty: it is served the whole stream.

// Interest-set bounds. A declaration exceeding either bound widens to
// match-all instead of being truncated: dropping a declared term would
// filter away updates the subscriber depends on.
const (
	// maxInterestTerms bounds the prefixes one declaration may carry,
	// after normalization.
	maxInterestTerms = 64
	// maxInterestTermLen bounds one term's byte length. Keys are bounded
	// by the frame envelope anyway; a longer term is hostile or a bug.
	maxInterestTermLen = 1024
)

// InterestSet describes which update events a subscriber wants: keys
// under any of a set of path prefixes. InterestAll matches every event.
// The zero value matches no update events at all — construct sets with
// NewInterest, InterestAll, or ParseInterest rather than from struct
// literals.
type InterestSet struct {
	prefixes []string
	all      bool
}

// InterestAll returns the set matching every event — the declaration of
// a subscriber that wants the whole stream (and what every overflowing
// declaration widens to).
func InterestAll() InterestSet { return InterestSet{all: true} }

// NewInterest builds a set from raw prefix terms: empty terms are
// dropped, duplicates and prefix-subsumed entries are pruned, and a
// declaration exceeding the bounds widens to match-all.
func NewInterest(prefixes []string) InterestSet {
	var terms []string
	for _, p := range prefixes {
		if p == "" {
			continue
		}
		if len(p) > maxInterestTermLen {
			return InterestAll()
		}
		terms = append(terms, p)
	}
	return normalized(terms)
}

// ParseInterest builds the set declared by a stream's query parameters
// (?prefix=, repeatable). A request declaring nothing receives
// everything: filtering is opt-in, and the pre-interest wire contract —
// every subscriber sees every frame — is the default. So does one the
// grammar cannot honour: a ?group= term, or only empty terms.
func ParseInterest(q url.Values) InterestSet {
	if q.Has("group") {
		return InterestAll()
	}
	if s := NewInterest(q["prefix"]); !s.IsEmpty() {
		return s
	}
	return InterestAll()
}

// normalized sorts, dedupes, and prunes prefix-subsumed terms ("/a"
// makes "/a/b" redundant), widening to match-all when the result still
// overflows the term bound. In sorted order every string subsumed by a
// kept prefix q sorts inside (q, q-with-continuation], so comparing
// against only the most recently kept term finds every subsumption.
func normalized(prefixes []string) InterestSet {
	sort.Strings(prefixes)
	out := prefixes[:0]
	for _, p := range prefixes {
		if n := len(out); n > 0 && strings.HasPrefix(p, out[n-1]) {
			continue
		}
		out = append(out, p)
	}
	if len(out) > maxInterestTerms {
		return InterestAll()
	}
	return InterestSet{prefixes: out}
}

// IsAll reports whether the set matches every event.
func (s InterestSet) IsAll() bool { return s.all }

// IsEmpty reports whether the set matches no update events (the state
// of a declaration with nothing to declare — not the same as IsAll).
func (s InterestSet) IsEmpty() bool { return !s.all && len(s.prefixes) == 0 }

// Matches reports whether an update for key falls inside the set: the
// key carries one of the declared prefixes.
func (s InterestSet) Matches(key string) bool {
	if s.all {
		return true
	}
	for _, p := range s.prefixes {
		if strings.HasPrefix(key, p) {
			return true
		}
	}
	return false
}

// matchesFrame reports whether a rendered frame falls inside the set.
// Control frames (hello, heartbeat) always match: filtering applies to
// update content only, never to the stream's liveness or Reset
// machinery.
func (s InterestSet) matchesFrame(re RenderedEvent) bool {
	return re.Kind != KindUpdate || s.Matches(re.Key)
}

// Covers reports whether every event matching o also matches s: each of
// o's prefixes extends one of s's. A true result is always sound, which
// is the direction that matters, since an uncovered downstream
// declaration forces the upstream subscription to widen.
func (s InterestSet) Covers(o InterestSet) bool {
	if s.all {
		return true
	}
	if o.all {
		return false
	}
	for _, op := range o.prefixes {
		if !s.Matches(op) {
			return false
		}
	}
	return true
}

// Union returns the set matching everything either input matches,
// widening to match-all when the merged declaration overflows the
// bounds.
func (s InterestSet) Union(o InterestSet) InterestSet {
	if s.all || o.all {
		return InterestAll()
	}
	return normalized(append(append([]string(nil), s.prefixes...), o.prefixes...))
}

// Prefixes returns a copy of the declared path prefixes.
func (s InterestSet) Prefixes() []string {
	return append([]string(nil), s.prefixes...)
}

// EncodeQuery renders the set as URL query parameters ("prefix=...",
// escaped), empty for match-all. An empty set also encodes as no
// constraints: the wire has no way to ask for nothing, and a
// subscriber with nothing to declare tolerates extra frames — fail
// open, never narrow.
func (s InterestSet) EncodeQuery() string {
	if s.all {
		return ""
	}
	var b strings.Builder
	for _, p := range s.prefixes {
		if b.Len() > 0 {
			b.WriteByte('&')
		}
		b.WriteString("prefix=")
		b.WriteString(url.QueryEscape(p))
	}
	return b.String()
}
