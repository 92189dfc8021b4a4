package webproxy

import "time"

// Runtime tolerance override (the /admin/tolerance action): an operator
// changes a resident object's Δ (time tolerance) or Δv (value
// tolerance) without an origin redeploy. The override rebuilds the
// entry's refresh policy around the new tolerance while preserving its
// learned TTR (clamped by the new policy's bounds), persists the change
// through the disk journal so a restart rehydrates it (for an entry a
// lease no longer carries, the next poll does), and pulls the next poll
// to now so the tightened — or loosened — bound takes effect immediately
// rather than one stale TTR later.
//
// The origin still wins eventually: tolerance directives on the next
// 200/304 response overwrite an override exactly as they overwrite
// config defaults. That is deliberate — the override is an operational
// patch for the window until the origin can be fixed, not a permanent
// fork of the consistency contract.

// ToleranceOverride reports what OverrideTolerance applied.
type ToleranceOverride struct {
	// Key is the canonical cache key the override landed on.
	Key string `json:"key"`
	// Delta and ValueDelta are the entry's tolerances after the
	// override (the unchanged one echoes its current value).
	Delta      time.Duration `json:"delta"`
	ValueDelta float64       `json:"value_delta"`
	// Unpaired reports that the entry was half of a partitioned M_v
	// pair and the override dissolved it: the pair's split tolerance
	// was derived from the old Δv, so both halves return to individual
	// policies over their own tolerances.
	Unpaired bool `json:"unpaired,omitempty"`
}

// OverrideTolerance sets a resident object's Δ (dt) and/or Δv (dv) at
// runtime; a non-positive value leaves that tolerance unchanged. It
// reports ok=false when the key is not resident (the disk tier is not
// patched directly: a demoted object re-resolves its tolerances at
// promotion, when the origin gets its say anyway).
func (p *Proxy) OverrideTolerance(key string, dt time.Duration, dv float64) (ToleranceOverride, bool) {
	e := p.lookup(key)
	if e == nil || e.evicted.Load() {
		return ToleranceOverride{}, false
	}
	res := ToleranceOverride{Key: e.key}

	// A paired M_v policy shares a controller whose split tolerance was
	// computed from the OLD Δv; changing it under the pair would leave
	// the partner holding a share of a tolerance that no longer exists.
	// Dissolve the pair first (same rebuild as evicting half of one —
	// see leaveGroup); the halves may re-pair at the next admission.
	if dv > 0 && p.unpair(e) {
		res.Unpaired = true
	}

	e.mu.Lock()
	if dt > 0 {
		e.delta = dt
	}
	if dv > 0 && e.isValue {
		e.valueDelta = dv
	}
	// Rebuild the policy around the new tolerance, carrying the learned
	// TTR over: the object's observed update rate did not change, only
	// the bound the schedule must honor against it.
	var learned time.Duration
	if t, ok := e.policy.(interface{ TTR() time.Duration }); ok {
		learned = t.TTR()
	}
	e.policy = p.newPolicy(e.delta, e.valueDelta, learned)
	res.Delta = e.delta
	res.ValueDelta = e.valueDelta
	e.mu.Unlock()

	// Journal the new tolerances so a restart rehydrates them (the
	// record's Delta/ValueDelta fields overlay config defaults exactly as
	// origin directives do) — or, for an entry the lease does not carry,
	// void its record, and let the poll below write the fresh one.
	p.schedMu.Lock()
	p.journalLocked(e)
	p.schedMu.Unlock()
	// An immediate poll puts the new bound into effect now: the next
	// TTR is learned under the new policy instead of running out the
	// old schedule first. Harmless if the entry is mid-poll — the slots
	// reconcile through the ordinary reschedule path.
	p.reschedule(e, p.cfg.Clock())
	p.toleranceOverrides.Add(1)
	return res, true
}

// unpair dissolves e's partitioned M_v pair, if any, returning both
// halves to individual AdaptiveTTR policies over their own Δv (the
// widow rebuild leaveGroup runs at eviction, applied symmetrically).
// It reports whether a pair existed. Lock order matches joinGroup:
// groupMu → gs.mu → entry mu.
func (p *Proxy) unpair(e *entry) bool {
	if e.group == "" {
		return false
	}
	p.groupMu.Lock()
	defer p.groupMu.Unlock()
	gs := p.groups[e.group]
	if gs == nil {
		return false
	}
	gs.mu.Lock()
	defer gs.mu.Unlock()
	other := e.partner
	if other == nil {
		return false
	}
	e.partner = nil
	if other.partner == e {
		other.partner = nil
		other.mu.Lock()
		other.paired = false
		other.policy = p.newPolicy(0, other.valueDelta, 0)
		other.mu.Unlock()
	}
	e.mu.Lock()
	e.paired = false
	e.mu.Unlock()
	return true
}
