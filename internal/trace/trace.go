// Package trace defines the workload model consumed by the simulator: a
// trace is the timestamped sequence of updates a web object underwent at
// its origin server. Temporal-domain traces carry only update instants
// (all the paper's news traces, Table 2); value-domain traces additionally
// carry the object's value at each update (the stock traces, Table 3).
//
// The package also provides trace-file serialization (a simple CSV
// dialect) so that generated workloads can be inspected, archived, and
// replayed byte-for-byte.
package trace

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Kind distinguishes temporal traces (update instants only) from value
// traces (instants plus values).
type Kind int

const (
	// Temporal traces carry update instants only.
	Temporal Kind = iota + 1
	// Value traces carry an object value with every update.
	Value
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case Temporal:
		return "temporal"
	case Value:
		return "value"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Update is a single modification of the object at the origin. The first
// update of a trace creates version 1; the cached copy a proxy fetches
// before any update is version 0.
type Update struct {
	// At is the offset of the update from the trace start.
	At time.Duration
	// Value is the object's value immediately after the update. It is
	// meaningful only for Value traces and zero otherwise.
	Value float64
}

// Trace is an immutable record of one object's update history over a
// bounded observation window [0, Duration].
type Trace struct {
	// Name identifies the trace (e.g. "cnn-fn").
	Name string
	// Kind reports whether values are meaningful.
	Kind Kind
	// Duration is the length of the observation window. Updates never
	// lie outside [0, Duration].
	Duration time.Duration
	// InitialValue is the object's value at offset 0, before the first
	// update (Value traces only).
	InitialValue float64
	// Updates holds the update sequence in strictly increasing time
	// order.
	Updates []Update
}

// Validation errors returned by Validate.
var (
	ErrNoName          = errors.New("trace: empty name")
	ErrBadKind         = errors.New("trace: invalid kind")
	ErrBadDuration     = errors.New("trace: non-positive duration")
	ErrUnordered       = errors.New("trace: updates not strictly increasing in time")
	ErrOutOfWindow     = errors.New("trace: update outside [0, duration]")
	ErrNegativeInstant = errors.New("trace: negative update instant")
	ErrNonFinite       = errors.New("trace: non-finite value")
)

// Validate checks the structural invariants of the trace. Every value,
// initial or updated, must be finite: a NaN never compares as out of
// tolerance, so a metric would score the span it holds as in sync.
func (tr *Trace) Validate() error {
	if tr.Name == "" {
		return ErrNoName
	}
	if tr.Kind != Temporal && tr.Kind != Value {
		return ErrBadKind
	}
	if tr.Duration <= 0 {
		return ErrBadDuration
	}
	if !finite(tr.InitialValue) {
		return fmt.Errorf("%w: initial value %v", ErrNonFinite, tr.InitialValue)
	}
	prev := time.Duration(-1)
	for i, u := range tr.Updates {
		if !finite(u.Value) {
			return fmt.Errorf("%w: update %d value %v", ErrNonFinite, i, u.Value)
		}
		if u.At < 0 {
			return fmt.Errorf("%w: update %d at %v", ErrNegativeInstant, i, u.At)
		}
		if u.At > tr.Duration {
			return fmt.Errorf("%w: update %d at %v > %v", ErrOutOfWindow, i, u.At, tr.Duration)
		}
		if u.At <= prev {
			return fmt.Errorf("%w: update %d at %v follows %v", ErrUnordered, i, u.At, prev)
		}
		prev = u.At
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// NumUpdates returns the number of updates in the trace.
func (tr *Trace) NumUpdates() int { return len(tr.Updates) }

// MeanGap returns the average inter-update gap (duration divided by update
// count, matching the paper's "Avg Update Frequency" column), or 0 for an
// empty trace.
func (tr *Trace) MeanGap() time.Duration {
	if len(tr.Updates) == 0 {
		return 0
	}
	return tr.Duration / time.Duration(len(tr.Updates))
}

// VersionAt returns the object's version number at the given offset: the
// number of updates at or before it. Version 0 is the pre-trace object.
func (tr *Trace) VersionAt(at time.Duration) int {
	return tr.searchAfter(at)
}

// searchAfter returns the index of the first update strictly after at,
// which equals the number of updates at or before at.
func (tr *Trace) searchAfter(at time.Duration) int {
	lo, hi := 0, len(tr.Updates)
	for lo < hi {
		mid := (lo + hi) / 2
		if tr.Updates[mid].At <= at {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ValueAt returns the object's value at the given offset (Value traces).
// Before the first update it returns InitialValue.
func (tr *Trace) ValueAt(at time.Duration) float64 {
	idx := tr.searchAfter(at)
	if idx == 0 {
		return tr.InitialValue
	}
	return tr.Updates[idx-1].Value
}

// LastModifiedAt returns the instant of the most recent update at or
// before the given offset. The second result is false when no update has
// happened yet (the object is still at version 0, "modified" at offset 0).
func (tr *Trace) LastModifiedAt(at time.Duration) (time.Duration, bool) {
	idx := tr.searchAfter(at)
	if idx == 0 {
		return 0, false
	}
	return tr.Updates[idx-1].At, true
}

// UpdatesIn returns the updates with instants in the half-open window
// (after, upTo]. The returned slice aliases the trace and must not be
// modified.
func (tr *Trace) UpdatesIn(after, upTo time.Duration) []Update {
	lo := tr.searchAfter(after)
	hi := tr.searchAfter(upTo)
	return tr.Updates[lo:hi]
}

// NextUpdateAfter returns the instant of the first update strictly after
// the given offset, or ok=false if none remains.
func (tr *Trace) NextUpdateAfter(at time.Duration) (time.Duration, bool) {
	idx := tr.searchAfter(at)
	if idx >= len(tr.Updates) {
		return 0, false
	}
	return tr.Updates[idx].At, true
}

// ValidityInterval returns the server-side validity window of the version
// current at the given offset: from that version's modification instant
// (0 for the pre-trace version) until the next update, or the end of
// observability (MaxInt64 duration, "still current") if none follows.
// This is the interval the mutual-consistency semantics compare (Eq. 4).
func (tr *Trace) ValidityInterval(at time.Duration) (start, end time.Duration) {
	idx := tr.searchAfter(at)
	if idx == 0 {
		start = 0
	} else {
		start = tr.Updates[idx-1].At
	}
	if idx < len(tr.Updates) {
		end = tr.Updates[idx].At
	} else {
		end = time.Duration(1<<63 - 1)
	}
	return start, end
}

// Characteristics summarizes a trace the way the paper's Tables 2 and 3
// do.
type Characteristics struct {
	Name       string
	Kind       Kind
	Duration   time.Duration
	NumUpdates int
	MeanGap    time.Duration
	MinValue   float64
	MaxValue   float64
}

// Summarize computes the trace's characteristics.
func (tr *Trace) Summarize() Characteristics {
	c := Characteristics{
		Name:       tr.Name,
		Kind:       tr.Kind,
		Duration:   tr.Duration,
		NumUpdates: len(tr.Updates),
		MeanGap:    tr.MeanGap(),
	}
	if tr.Kind == Value {
		c.MinValue, c.MaxValue = tr.InitialValue, tr.InitialValue
		for _, u := range tr.Updates {
			if u.Value < c.MinValue {
				c.MinValue = u.Value
			}
			if u.Value > c.MaxValue {
				c.MaxValue = u.Value
			}
		}
	}
	return c
}

// String renders the characteristics as a single table row.
func (c Characteristics) String() string {
	if c.Kind == Value {
		return fmt.Sprintf("%s: %d updates over %v, min $%.2f max $%.2f",
			c.Name, c.NumUpdates, c.Duration, c.MinValue, c.MaxValue)
	}
	return fmt.Sprintf("%s: %d updates over %v, every %v",
		c.Name, c.NumUpdates, c.Duration, c.MeanGap.Round(time.Second))
}
