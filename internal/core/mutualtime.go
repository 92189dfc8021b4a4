package core

import (
	"fmt"
	"time"

	"broadway/internal/simtime"
	"broadway/internal/stats"
)

// TriggerMode selects the temporal-domain mutual-consistency approach of
// paper §3.2.
type TriggerMode int

const (
	// TriggerNone is the baseline: per-object LIMD only, no mutual
	// support. Related objects drift out of phase by up to their poll
	// periods.
	TriggerNone TriggerMode = iota + 1
	// TriggerAll polls every related object whenever an update to one
	// of them is detected (unless a poll of the related object already
	// falls within δ). This guarantees mutual fidelity 1 at the cost of
	// polling every member at the rate of the fastest-changing one.
	TriggerAll
	// TriggerFaster is the paper's heuristic: trigger polls only for
	// related objects that change at approximately the same or a faster
	// rate than the updated object, relying on the slower objects' own
	// LIMD schedules. Cheaper than TriggerAll, with occasional mutual
	// violations when a slow object happens to change together with a
	// fast one.
	TriggerFaster
)

// String returns the mode name used in reports.
func (m TriggerMode) String() string {
	switch m {
	case TriggerNone:
		return "baseline"
	case TriggerAll:
		return "triggered"
	case TriggerFaster:
		return "heuristic"
	default:
		return fmt.Sprintf("TriggerMode(%d)", int(m))
	}
}

// ParseTriggerMode is the inverse of String: it returns the mode named
// "baseline", "triggered" or "heuristic".
func ParseTriggerMode(s string) (TriggerMode, error) {
	for m := TriggerNone; m <= TriggerFaster; m++ {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q", s)
}

// MutualTimeConfig parameterizes a MutualTimeController.
type MutualTimeConfig struct {
	// Delta is the mutual tolerance δ: cached versions of related
	// objects must have coexisted at the server within δ (Eq. 4).
	// Required (positive).
	Delta time.Duration
	// Mode selects the triggering approach. Required.
	Mode TriggerMode
	// RateTolerance is the factor defining "approximately the same
	// rate" for TriggerFaster: the related object is triggered when its
	// estimated update rate is at least RateTolerance times the updated
	// object's rate. Must lie in (0, 1]; defaults to 0.8.
	RateTolerance float64
	// RateAlpha is the EWMA smoothing factor for the per-object update
	// rate estimators. Must lie in (0, 1]; defaults to 0.3.
	RateAlpha float64
}

func (c MutualTimeConfig) withDefaults() MutualTimeConfig {
	if c.Delta <= 0 {
		panic("core: mutual time controller requires a positive Delta")
	}
	switch c.Mode {
	case TriggerNone, TriggerAll, TriggerFaster:
	default:
		panic(fmt.Sprintf("core: invalid trigger mode %d", c.Mode))
	}
	if c.RateTolerance == 0 {
		c.RateTolerance = 0.8
	}
	if c.RateTolerance <= 0 || c.RateTolerance > 1 {
		panic(fmt.Sprintf("core: rate tolerance %v outside (0,1]", c.RateTolerance))
	}
	if c.RateAlpha == 0 {
		c.RateAlpha = 0.3
	}
	return c
}

// MutualTimeController implements the paper's temporal-domain mutual
// consistency mechanisms (§3.2). It is layered on top of per-object
// Δt-consistency policies: the proxy keeps polling each object on its own
// LIMD schedule, and when a poll detects an update the controller decides
// which related objects deserve an immediate extra poll.
//
// The controller learns per-object update rates from the modification
// instants that polls reveal; these rate estimates drive the
// TriggerFaster heuristic.
type MutualTimeController struct {
	cfg MutualTimeConfig

	rates   map[ObjectID]*stats.RateEstimator
	lastMod map[ObjectID]simtime.Time

	triggered uint64
}

// NewMutualTimeController returns a controller for one group of related
// objects. It panics on invalid configuration.
func NewMutualTimeController(cfg MutualTimeConfig) *MutualTimeController {
	return &MutualTimeController{
		cfg:     cfg.withDefaults(),
		rates:   make(map[ObjectID]*stats.RateEstimator),
		lastMod: make(map[ObjectID]simtime.Time),
	}
}

// Config returns the normalized configuration.
func (c *MutualTimeController) Config() MutualTimeConfig { return c.cfg }

// Mode returns the controller's trigger mode.
func (c *MutualTimeController) Mode() TriggerMode { return c.cfg.Mode }

// Triggered returns the number of extra polls the controller has requested
// so far.
func (c *MutualTimeController) Triggered() uint64 { return c.triggered }

// ObserveOutcome feeds the controller the modification evidence from a
// poll of the given object, updating its update-rate estimate. Instants
// already seen are ignored, so feeding overlapping histories is safe.
func (c *MutualTimeController) ObserveOutcome(id ObjectID, o PollOutcome) {
	if !o.Modified {
		return
	}
	instants := o.History
	if len(instants) == 0 && o.HasLastModified {
		instants = []simtime.Time{o.LastModified}
	}
	est := c.rates[id]
	if est == nil {
		est = stats.NewRateEstimator(c.cfg.RateAlpha)
		c.rates[id] = est
	}
	last := c.lastMod[id]
	for _, at := range instants {
		if at.After(last) {
			est.ObserveEvent(at.Duration())
			last = at
		}
	}
	c.lastMod[id] = last
}

// ShouldTrigger decides whether detecting an update to object updated at
// instant now warrants an immediate extra poll of related object other.
// otherPrev is the instant other was last polled; otherNext is its next
// scheduled poll. Per the paper, no extra poll is needed when either
// instant falls within δ of now — the regular schedule already bounds the
// phase lag — and the heuristic mode additionally skips objects estimated
// to change more slowly than the updated object.
func (c *MutualTimeController) ShouldTrigger(updated, other ObjectID, now, otherPrev, otherNext simtime.Time) bool {
	if c.cfg.Mode == TriggerNone || updated == other {
		return false
	}
	if now.Sub(otherPrev) <= c.cfg.Delta || otherNext.Sub(now) <= c.cfg.Delta {
		return false
	}
	if c.cfg.Mode == TriggerFaster && !c.changesAtLeastAsFast(other, updated) {
		return false
	}
	c.triggered++
	return true
}

// changesAtLeastAsFast reports whether candidate's estimated update rate
// is at least RateTolerance times reference's. Unknown rates err on the
// side of triggering: until the controller has evidence that an object is
// slow, it treats it as a peer (protecting fidelity during warm-up).
func (c *MutualTimeController) changesAtLeastAsFast(candidate, reference ObjectID) bool {
	cand, ok1 := c.rates[candidate]
	ref, ok2 := c.rates[reference]
	if !ok1 || !ok2 || !cand.Known() || !ref.Known() {
		return true
	}
	return cand.Rate() >= c.cfg.RateTolerance*ref.Rate()
}

// EstimatedRate returns the controller's current update-rate estimate for
// the object in updates per second (0 when unknown). Exposed for reports
// such as Fig. 6(a).
func (c *MutualTimeController) EstimatedRate(id ObjectID) float64 {
	if est, ok := c.rates[id]; ok {
		return est.Rate()
	}
	return 0
}

// Forget discards the learned state for one object — its update-rate
// estimate and last-seen modification instant — leaving the rest of the
// group intact. Callers use it when a cache evicts a group member, so a
// later re-admission of the same object starts from the warm-up
// behavior (unknown rates err on the side of triggering) instead of a
// stale estimate.
func (c *MutualTimeController) Forget(id ObjectID) {
	delete(c.rates, id)
	delete(c.lastMod, id)
}

// Reset discards all learned state.
func (c *MutualTimeController) Reset() {
	c.rates = make(map[ObjectID]*stats.RateEstimator)
	c.lastMod = make(map[ObjectID]simtime.Time)
	c.triggered = 0
}
