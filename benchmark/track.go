package main

import (
	"sync"
	"sync/atomic"
	"time"

	"broadway/internal/webproxy"
)

// Nodes an update is observed at, in hop order. Single-hop workloads only
// have the leaf.
const (
	atRoot = iota
	atMid
	atLeaf
	observedNodes
)

var nodeIndex = map[string]int{"root": atRoot, "mid": atMid, "leaf": atLeaf}

// update is one Origin.Set of a tracked key.
type update struct {
	key     int
	round   int // index into tracker.rounds, -1 for a lone key
	phase   int // phase the Set fell in
	id      uint64
	setAt   time.Time // just before the Set call
	setDone time.Time
	// seen[n] is when node n's PollObserver first reported Modified for
	// the key at or after setAt; zero until then.
	seen [observedNodes]time.Time
}

// keyTrack is the per-key state: published revisions for output checking
// and the updates awaiting visibility.
type keyTrack struct {
	mu      sync.Mutex
	digests []uint64 // every revision the origin published, oldest first
	body    []byte   // the origin's current body
	rev     int
	ups     []*update
	cursor  [observedNodes]int // first update node n has not seen yet
}

// tracker follows every update from Set to visibility and tallies the
// leaf's polls.
type tracker struct {
	byPath map[string]int // read-only after construction
	keys   []keyTrack

	mu     sync.Mutex
	all    []*update
	rounds [][]*update

	// Leaf observer tallies: origin-facing polls (admissions excluded) and
	// how many found a change or were group-triggered.
	polls, pollsModified, pollsTriggered atomic.Int64
}

func newTracker(pl *plan, bodies [][]byte, digests []uint64) *tracker {
	tk := &tracker{byPath: make(map[string]int, len(pl.keys)), keys: make([]keyTrack, len(pl.keys))}
	for i, k := range pl.keys {
		tk.byPath[k.path] = i
		tk.keys[i].body = bodies[i]
		tk.keys[i].digests = []uint64{digests[i]}
	}
	return tk
}

// observer returns node's PollObserver. It stamps visibility with its own
// monotonic clock reading rather than the observation's wall-clock At.
func (tk *tracker) observer(node string) func(webproxy.PollObservation) {
	n := nodeIndex[node]
	return func(o webproxy.PollObservation) {
		if n == atLeaf && !o.Initial && !o.Applied {
			tk.polls.Add(1)
			if o.Modified {
				tk.pollsModified.Add(1)
			}
			if o.Triggered {
				tk.pollsTriggered.Add(1)
			}
		}
		if !o.Modified {
			return
		}
		i, ok := tk.byPath[o.Key]
		if !ok {
			return
		}
		now := time.Now()
		kt := &tk.keys[i]
		kt.mu.Lock()
		// One observation resolves every update of the key set before it:
		// the copy it installed is at least that new.
		for c := kt.cursor[n]; c < len(kt.ups) && !kt.ups[c].setAt.After(now); c++ {
			kt.ups[c].seen[n] = now
			kt.cursor[n] = c + 1
		}
		kt.mu.Unlock()
	}
}

// published reports whether digest is a revision the origin published for
// key.
func (tk *tracker) published(key int, digest uint64) bool {
	kt := &tk.keys[key]
	kt.mu.Lock()
	defer kt.mu.Unlock()
	for i := len(kt.digests) - 1; i >= 0; i-- {
		if kt.digests[i] == digest {
			return true
		}
	}
	return false
}

// begin registers the next revision of key before it is Set, so that no
// reader can see a body the tracker does not know. The caller stamps
// setDone after the Set returns.
func (tk *tracker) begin(seed int64, key, round, phase int, id uint64) (*update, []byte) {
	kt := &tk.keys[key]
	kt.mu.Lock()
	kt.rev++
	body := nextBody(kt.body, seed, key, kt.rev)
	kt.body = body
	kt.digests = append(kt.digests, bodyDigest(body))
	u := &update{key: key, round: round, phase: phase, id: id, setAt: time.Now()}
	kt.ups = append(kt.ups, u)
	kt.mu.Unlock()
	tk.mu.Lock()
	tk.all = append(tk.all, u)
	if round >= 0 {
		tk.rounds[round] = append(tk.rounds[round], u)
	}
	tk.mu.Unlock()
	return u, body
}

func (tk *tracker) newRound() int {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	tk.rounds = append(tk.rounds, nil)
	return len(tk.rounds) - 1
}

// leafSeen returns when u became visible at the leaf.
func (tk *tracker) leafSeen(u *update) (time.Time, bool) {
	return tk.seenAt(u, atLeaf)
}

func (tk *tracker) seenAt(u *update, n int) (time.Time, bool) {
	kt := &tk.keys[u.key]
	kt.mu.Lock()
	defer kt.mu.Unlock()
	return u.seen[n], !u.seen[n].IsZero()
}

// pending returns the updates not yet visible at the leaf.
func (tk *tracker) pending() []*update {
	tk.mu.Lock()
	all := append([]*update(nil), tk.all...)
	tk.mu.Unlock()
	var out []*update
	for _, u := range all {
		if _, ok := tk.leafSeen(u); !ok {
			out = append(out, u)
		}
	}
	return out
}

// currentBody returns the origin's current body of key.
func (tk *tracker) currentBody(key int) []byte {
	kt := &tk.keys[key]
	kt.mu.Lock()
	defer kt.mu.Unlock()
	return kt.body
}
