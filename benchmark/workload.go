package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Consistency settings every node of every workload runs with.
const (
	delta      = 2 * time.Second // Δ per object
	groupDelta = 2 * time.Second // δ per group
	ttrMin     = 2 * time.Second
	ttrMax     = 8 * time.Second
	// minUpdateGap is the least time between two updates of one key.
	// Origin.Set stamps second-resolution modification times and pushes a
	// same-second update into the future, which would feed LIMD and the
	// pushed-value dedupe instants that never happened.
	minUpdateGap = 2 * time.Second
	// updateDeadline is how long an update may stay invisible at the leaf
	// before it counts as failed: TTRmax plus slack.
	updateDeadline = ttrMax + 4*time.Second
	// drainLimit bounds the wait, after updates stop, for the leaf to hold
	// the origin's last body of every tracked key: Δ + TTRmax.
	drainLimit = delta + ttrMax
	// readDeadline is the latency beyond which a read counts as failed.
	readDeadline = time.Second

	groupSize = 4 // members of a mutual-consistency group
	keyShards = 8 // first path segments, so hub rings have partitions
)

// Read kinds of the request mix.
const (
	opGet uint8 = iota
	opCond
	opHead
)

// readDist names how read keys are drawn.
type readDist int

const (
	distZipf    readDist = iota // Zipf(1.0) over every key
	distUniform                 // uniform over every key
	distHotCold                 // hotShare to the tracked keys, rest uniform over the others
)

// params is one workload: a parameter set for the one driver.
type params struct {
	name string
	why  string

	hops    int  // proxies between origin and client: 1 (leaf) or 3 (root, mid, leaf)
	push    bool // value push with relays and declared interest; false is the paper's pull mode
	history bool // origin serves X-Modification-History

	objects   int // keys hosted by the origin and touched once in set-up
	bodySize  int
	largeKeys int // the first largeKeys keys carry largeSize bodies
	largeSize int
	tracked   int // keys that receive updates: the first tracked keys

	leafMaxObjects int  // 0 keeps the proxy default
	disk           bool // leaf demotes to a disk tier in a temporary directory

	dist     readDist
	hotShare float64 // distHotCold only
	readRate float64 // open-loop requests per second per connection

	// Either updateRate (Sets per second, keys taken round-robin) or an
	// update interval drawn per key or group, log-uniform between the two
	// bounds with exponential gaps.
	updateRate             float64
	updateMeanLo, updateHi time.Duration
}

// workloads are the four permanent workloads. The rates were frozen after
// the calibration pass recorded in CALIBRATION.md.
var workloads = []params{
	{
		name: "hit-serve",
		why:  "4096 keys all resident at a 3-hop leaf, Zipf reads: the leaf hit path does nearly all the work, push and refresh nearly none",
		hops: 3, push: true,
		objects: 4096, bodySize: 1024, tracked: 256,
		dist: distZipf, readRate: 1000,
		updateRate: 120,
	},
	{
		name: "miss-churn",
		why:  "working set 16x a 1024-object leaf with a disk tier: admit, evict, demote and promote do the work, the hit path little",
		hops: 1, push: true,
		objects: 64 + 16384, bodySize: 1024, tracked: 64,
		leafMaxObjects: 1024, disk: true,
		dist: distHotCold, hotShare: 0.10, readRate: 300,
		updateRate: 25,
	},
	{
		name: "push-fleet",
		why:  "400 updates/s incl. 192 KiB bodies through origin, root, mid, leaf: delta/chunk render, publish, decode, apply and relay dominate",
		hops: 3, push: true,
		objects: 1024 + 64, bodySize: 1024, largeKeys: 64, largeSize: 192 << 10, tracked: 1024 + 64,
		dist: distUniform, readRate: 200,
		updateRate: 400,
	},
	{
		name: "pull-refresh",
		why:  "no push, the paper's mode: TTR polls, LIMD and group triggers do all the work; fidelity is below 1 and poll cost shows",
		hops: 1, history: true,
		objects: 2048, bodySize: 1024, tracked: 2048,
		dist: distZipf, readRate: 200,
		updateMeanLo: 4 * time.Second, updateHi: 60 * time.Second,
	},
}

func workloadByName(name string) (params, bool) {
	for _, p := range workloads {
		if p.name == name {
			return p, true
		}
	}
	return params{}, false
}

// keyInfo is one hosted object.
type keyInfo struct {
	path  string
	size  int
	group string // "" when ungrouped
}

// unit is what one update round touches: a lone key, or the members of a
// group updated back to back.
type unit struct {
	keys []int
}

type readOp struct {
	key  int32
	kind uint8
}

type updateOp struct {
	at   time.Duration // offset from the start of the measured phases
	unit int32
}

// plan is everything a run derives from its seed before it touches the
// system: keys, units, and the read and update schedules.
type plan struct {
	p     params
	seed  int64
	conns int

	keys  []keyInfo
	units []unit

	closedOps [][]readOp // per connection, cycled while the closed phase lasts
	fixedOps  [][]readOp // per connection, one op per interval of the fixed phase
	tracedOps [][]readOp // per connection, traced phase (empty when not tracing)
	interval  time.Duration

	updates []updateOp // ascending by at, spanning all measured phases
}

const closedOpsLen = 1 << 14

// newPlan builds the plan. closed, fixed and traced are the phase lengths.
func newPlan(p params, seed int64, conns int, closed, fixed, traced time.Duration) (*plan, error) {
	pl := &plan{p: p, seed: seed, conns: conns}
	pl.keys = make([]keyInfo, p.objects)
	for i := range pl.keys {
		size := p.bodySize
		if i < p.largeKeys {
			size = p.largeSize
		}
		pl.keys[i] = keyInfo{path: keyPath(i), size: size}
	}
	// A quarter of the tracked keys, taken from the end of the tracked
	// range so large keys stay ungrouped, sit in groups of groupSize.
	grouped := p.tracked / 4 / groupSize * groupSize
	firstGrouped := p.tracked - grouped
	for i := 0; i < firstGrouped; i++ {
		pl.units = append(pl.units, unit{keys: []int{i}})
	}
	for g := 0; g < grouped/groupSize; g++ {
		u := unit{}
		for m := 0; m < groupSize; m++ {
			k := firstGrouped + g*groupSize + m
			pl.keys[k].group = fmt.Sprintf("g%04d", g)
			u.keys = append(u.keys, k)
		}
		pl.units = append(pl.units, u)
	}

	rng := rand.New(rand.NewSource(seed))
	draw := pl.keySampler(rng)
	genOps := func(n int) []readOp {
		ops := make([]readOp, n)
		for i := range ops {
			kind := opGet
			switch r := rng.Float64(); {
			case r < 0.05:
				kind = opHead
			case r < 0.20:
				kind = opCond
			}
			ops[i] = readOp{key: int32(draw()), kind: kind}
		}
		return ops
	}
	pl.interval = time.Duration(float64(time.Second) / p.readRate)
	for c := 0; c < conns; c++ {
		pl.closedOps = append(pl.closedOps, genOps(closedOpsLen))
		pl.fixedOps = append(pl.fixedOps, genOps(int(fixed/pl.interval)))
		pl.tracedOps = append(pl.tracedOps, genOps(int(traced/pl.interval)))
	}

	total := closed + fixed + traced
	if p.updateRate > 0 {
		if gap := time.Duration(float64(p.tracked) / p.updateRate * float64(time.Second)); gap < minUpdateGap {
			return nil, fmt.Errorf("%s: %d tracked keys at %.0f updates/s leaves %v between updates of a key, need %v",
				p.name, p.tracked, p.updateRate, gap, minUpdateGap)
		}
		order := rng.Perm(len(pl.units))
		per := time.Duration(float64(time.Second) / p.updateRate)
		at := time.Duration(0)
		for i := 0; at < total; i++ {
			u := order[i%len(order)]
			pl.updates = append(pl.updates, updateOp{at: at, unit: int32(u)})
			at += per * time.Duration(len(pl.units[u].keys))
		}
	} else {
		lo, hi := math.Log(p.updateMeanLo.Seconds()), math.Log(p.updateHi.Seconds())
		for u := range pl.units {
			mean := math.Exp(lo + rng.Float64()*(hi-lo))
			at := time.Duration(rng.Float64() * mean * float64(time.Second))
			for at < total {
				pl.updates = append(pl.updates, updateOp{at: at, unit: int32(u)})
				gap := time.Duration(rng.ExpFloat64() * mean * float64(time.Second))
				if gap < minUpdateGap {
					gap = minUpdateGap
				}
				at += gap
			}
		}
		sort.SliceStable(pl.updates, func(i, j int) bool { return pl.updates[i].at < pl.updates[j].at })
	}
	return pl, nil
}

// keyPath names key i. The first path segment is what hub rings partition
// by.
func keyPath(i int) string { return fmt.Sprintf("/s%d/k%05d", i%keyShards, i) }

// keySampler returns the workload's read-key distribution over rng.
func (pl *plan) keySampler(rng *rand.Rand) func() int {
	n := pl.p.objects
	switch pl.p.dist {
	case distUniform:
		return func() int { return rng.Intn(n) }
	case distHotCold:
		hot, share := pl.p.tracked, pl.p.hotShare
		return func() int {
			if rng.Float64() < share {
				return rng.Intn(hot)
			}
			return hot + rng.Intn(n-hot)
		}
	default:
		// Zipf with exponent 1.0, which math/rand's Zipf (s > 1) cannot
		// draw: invert the cumulative weights 1/rank. Rank r maps to key
		// (r*stride) mod n with stride coprime to n, so the tracked keys
		// (the first ones) are spread over hot and cold ranks.
		cdf := make([]float64, n)
		sum := 0.0
		for r := 0; r < n; r++ {
			sum += 1 / float64(r+1)
			cdf[r] = sum
		}
		stride := 16*(n/37) + 1
		for gcd(stride, n) != 1 {
			stride += 2
		}
		return func() int {
			r := sort.SearchFloat64s(cdf, rng.Float64()*sum)
			if r >= n {
				r = n - 1
			}
			return r * stride % n
		}
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// scheduleBytes serializes the read and update schedules; equal seeds must
// give equal bytes.
func (pl *plan) scheduleBytes() []byte {
	var b bytes.Buffer
	put := func(v int64) { _ = binary.Write(&b, binary.LittleEndian, v) }
	for _, set := range [][][]readOp{pl.closedOps, pl.fixedOps, pl.tracedOps} {
		for _, ops := range set {
			put(int64(len(ops)))
			for _, op := range ops {
				put(int64(op.key)<<8 | int64(op.kind))
			}
		}
	}
	put(int64(len(pl.updates)))
	for _, u := range pl.updates {
		put(int64(u.at))
		put(int64(u.unit))
	}
	return b.Bytes()
}

const revWidth = 8 // digits of the rev=<n> header field

// initialBody is revision 0 of a key: a header line naming key and
// revision, then printable text drawn from seed and key.
func initialBody(seed int64, key int, path string, size int) []byte {
	b := make([]byte, size)
	n := copy(b, fmt.Sprintf("key=%s rev=%0*d\n", path, revWidth, 0))
	s := splitmix(uint64(seed)*0x9e3779b97f4a7c15 + uint64(key))
	for i := n; i < size; i++ {
		if (i-n)%64 == 63 {
			b[i] = '\n'
			continue
		}
		b[i] = 'a' + byte(s.next()%26)
	}
	return b
}

// nextBody returns prev with the revision rewritten to rev and about 5 % of
// the text bytes redrawn, in runs of 16, so a delta against prev has both
// copies and additions to encode. prev is left untouched.
func nextBody(prev []byte, seed int64, key, rev int) []byte {
	b := append([]byte(nil), prev...)
	head := bytes.IndexByte(b, '\n')
	copy(b[head-revWidth:head], fmt.Sprintf("%0*d", revWidth, rev))
	s := splitmix(uint64(seed)*0x9e3779b97f4a7c15 + uint64(key)<<20 + uint64(rev))
	text := len(b) - head - 1
	const run = 16
	for r := 0; r < text/20/run+1; r++ {
		at := head + 1 + int(s.next()%uint64(text-run))
		for i := 0; i < run; i++ {
			b[at+i] = 'A' + byte(s.next()%26)
		}
	}
	return b
}

// bodyDigest identifies a body for output checking, independently of the
// digests the system under test computes.
func bodyDigest(b []byte) uint64 {
	sum := sha256.Sum256(b)
	return binary.LittleEndian.Uint64(sum[:8])
}

// splitmix is a tiny seeded generator for body bytes (math/rand per body
// would dominate the update stream's cost on large bodies).
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
