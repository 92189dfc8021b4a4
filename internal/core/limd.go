package core

import (
	"fmt"
	"time"

	"broadway/internal/simtime"
)

// LIMDConfig parameterizes the linear-increase/multiplicative-decrease
// policy of paper §3.1.
type LIMDConfig struct {
	// Delta is the Δt-consistency tolerance: the cached copy must never
	// be more than Delta behind the server. Required.
	Delta time.Duration
	// Bounds clamp every computed TTR. Min defaults to Delta (the
	// paper's TTRmin = Δ), Max to 60 minutes.
	Bounds TTRBounds
	// LinearFactor is l in TTR ← TTR·(1+l) for case 1 (no change since
	// the last poll). Must lie in (0, 1). Defaults to 0.2, the paper's
	// experimental setting.
	LinearFactor float64
	// MultiplicativeFactor is a fixed m in TTR ← TTR·m for case 2
	// (violation). Must lie in (0, 1) when set. When zero, m adapts per
	// poll as Δ divided by the observed out-of-sync time — the setting
	// used in the paper's experiments (§6.2.1) — so deeper violations
	// back off harder.
	MultiplicativeFactor float64
	// Epsilon is ε in TTR ← TTR·(1+ε) for case 3 (change without
	// violation: the poll frequency is approximately right). Must be
	// ≥ 0. Defaults to 0.02, the paper's setting.
	Epsilon float64
	// ColdThreshold is the idle period after which a detected update is
	// treated as case 4 (a cold object turning hot): the TTR resets to
	// TTRmin instead of adapting gradually. Defaults to Bounds.Max.
	ColdThreshold time.Duration
	// Inference, when non-nil, estimates hidden violations on servers
	// that do not supply the modification-history extension (paper §5:
	// the proxy can maintain statistics to infer the probability that
	// the first update in the window occurred more than Δ ago).
	Inference *ViolationInference
}

// withDefaults validates the configuration and fills defaults. It panics
// on invalid settings: configurations are assembled by programmers, not
// end users, so failing loudly at construction is the right behavior.
func (c LIMDConfig) withDefaults() LIMDConfig {
	if c.Delta <= 0 {
		panic("core: LIMD requires a positive Delta")
	}
	c.Bounds = NormalizeBounds(c.Bounds, c.Delta)
	if c.LinearFactor == 0 {
		c.LinearFactor = 0.2
	}
	if c.LinearFactor <= 0 || c.LinearFactor >= 1 {
		panic(fmt.Sprintf("core: LIMD linear factor %v outside (0,1)", c.LinearFactor))
	}
	if c.MultiplicativeFactor < 0 || c.MultiplicativeFactor >= 1 {
		panic(fmt.Sprintf("core: LIMD multiplicative factor %v outside [0,1)", c.MultiplicativeFactor))
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.02
	}
	if c.Epsilon < 0 {
		panic("core: LIMD epsilon must be non-negative")
	}
	if c.ColdThreshold <= 0 {
		c.ColdThreshold = c.Bounds.Max
	}
	return c
}

// LIMD is the paper's adaptive Δt-consistency policy (§3.1). It probes
// the server for the object's rate of change: the TTR grows linearly
// while the object is quiet, shrinks multiplicatively on violations, and
// is fine-tuned when the polling frequency is approximately right. Only
// the two most recent polls inform each decision — the property the paper
// highlights as minimizing proxy state and simplifying failure recovery:
// an instance holds its TTR and the last modification instant it has
// seen, and points at a configuration it may share with others (see
// SharedLIMDConfig).
type LIMD struct {
	cfg *LIMDConfig // normalized; shared only when Inference is nil

	ttr          time.Duration
	lastKnownMod simtime.Time
	haveMod      bool
}

var _ Policy = (*LIMD)(nil)

// NewLIMD returns a LIMD policy for the given configuration. It panics on
// invalid configuration.
func NewLIMD(cfg LIMDConfig) *LIMD {
	// One allocation holds the instance and its private configuration.
	own := &struct {
		l   LIMD
		cfg LIMDConfig
	}{cfg: cfg.withDefaults()}
	own.l.cfg = &own.cfg
	own.l.Reset()
	return &own.l
}

// SharedLIMDConfig is a normalized LIMD configuration that any number of
// LIMD instances share, so each instance carries only its own state — the
// live proxy runs one per cached object.
type SharedLIMDConfig struct{ cfg LIMDConfig }

// ShareLIMDConfig validates cfg and fills its defaults once for every
// instance its New builds. It panics on invalid configuration, and on a
// non-nil Inference: the estimator is per-object state, so a config
// carrying one cannot be shared.
func ShareLIMDConfig(cfg LIMDConfig) *SharedLIMDConfig {
	if cfg.Inference != nil {
		panic("core: a shared LIMD config cannot carry per-object inference state")
	}
	return &SharedLIMDConfig{cfg: cfg.withDefaults()}
}

// New returns a LIMD policy over the shared configuration.
func (s *SharedLIMDConfig) New() *LIMD {
	l := &LIMD{cfg: &s.cfg}
	l.Reset()
	return l
}

// Name implements Policy.
func (l *LIMD) Name() string { return "limd" }

// Config returns the normalized configuration.
func (l *LIMD) Config() LIMDConfig { return *l.cfg }

// InitialTTR implements Policy: the algorithm begins at TTRmin (= Δ).
func (l *LIMD) InitialTTR() time.Duration { return l.cfg.Bounds.Min }

// TTR returns the current TTR value without consuming an outcome.
func (l *LIMD) TTR() time.Duration { return l.ttr }

// RestoreTTR re-seeds the learned TTR from a persisted snapshot (e.g. a
// disk-tier rehydration), clamped to the configured bounds. Non-positive
// values are ignored: the policy keeps its InitialTTR and re-learns.
func (l *LIMD) RestoreTTR(d time.Duration) {
	if d <= 0 {
		return
	}
	l.ttr = l.cfg.Bounds.clamp(d)
}

// Reset implements Policy: recovery resets the TTR to TTRmin and forgets
// the modification anchor.
func (l *LIMD) Reset() {
	l.ttr = l.cfg.Bounds.Min
	l.lastKnownMod = 0
	l.haveMod = false
	if l.cfg.Inference != nil {
		l.cfg.Inference.Reset()
	}
}

// NextTTR implements Policy, applying the four LIMD cases.
func (l *LIMD) NextTTR(o PollOutcome) time.Duration {
	l.observe(o)
	return l.ttr
}

// observe applies one poll outcome and returns the LIMD case (1–4) it
// was classified as.
func (l *LIMD) observe(o PollOutcome) int {
	if l.cfg.Inference != nil {
		l.cfg.Inference.ObservePoll(o)
	}

	if !o.Modified {
		// Case 1: no change between successive polls → linear increase.
		l.ttr = l.cfg.Bounds.clamp(time.Duration(float64(l.ttr) * (1 + l.cfg.LinearFactor)))
		return 1
	}

	first := o.FirstUpdateSincePrev()
	outSync := o.Now.Sub(first)
	violated := outSync > l.cfg.Delta
	if !violated && o.History == nil && l.cfg.Inference != nil {
		// Plain HTTP hides updates before the most recent one
		// (Fig. 1(b)); consult the inference estimator.
		if est, ok := l.cfg.Inference.InferHiddenViolation(o, l.cfg.Delta); ok {
			violated = true
			outSync = est
		}
	}

	cold := l.haveMod && first.Sub(l.lastKnownMod) > l.cfg.ColdThreshold

	// Anchor the next cold-start decision at the newest known change.
	if o.HasLastModified {
		l.lastKnownMod = o.LastModified
		l.haveMod = true
	}

	var c int
	switch {
	case cold:
		// Case 4: update after a long quiet period → snap back to
		// TTRmin so a suddenly hot object is tracked immediately.
		c = 4
		l.ttr = l.cfg.Bounds.Min
	case violated:
		// Case 2: consistency violated → multiplicative decrease.
		c = 2
		m := l.cfg.MultiplicativeFactor
		if m == 0 {
			// Adaptive m = Δ / out-of-sync time (§6.2.1). A violation
			// implies outSync > Δ, hence m < 1; deeper violations
			// yield smaller m.
			m = float64(l.cfg.Delta) / float64(outSync)
		}
		l.ttr = time.Duration(float64(l.ttr) * m)
	default:
		// Case 3: change detected in time → polling frequency is
		// approximately right; fine-tune upward by ε.
		c = 3
		l.ttr = time.Duration(float64(l.ttr) * (1 + l.cfg.Epsilon))
	}
	l.ttr = l.cfg.Bounds.clamp(l.ttr)
	return c
}
