package ah

import (
	"fmt"
	"time"
)

// Congestion-adaptive quality ladder (see DESIGN.md "Slow viewers:
// quality ladder & eviction") — the one mechanism that changes what a
// congested viewer is sent. A TFRC-style estimator folds the per-remote
// signals — send backlog, writer stalls, RTCP RR loss — into a
// congestion verdict each tick, and that verdict walks the remote
// through ordered delivery tiers, one step at a time, with hysteresis
// so a flapping link ratchets down gracefully and recovers without
// oscillation.

// QualityTier is one rung of the per-remote quality ladder, ordered
// from full fidelity (lowest value) to cheapest (highest value). The
// controller only ever moves a remote one rung at a time.
type QualityTier int

const (
	// TierFull sends every incremental update at full resolution — the
	// default, and the only behavior when the ladder is disabled.
	TierFull QualityTier = iota
	// TierDecimated sends full-resolution updates on every Nth tick
	// (LadderConfig.DecimateEvery) and folds the skipped ticks' damage
	// into the pending set, halving-or-better the frame rate while
	// keeping pixels exact.
	TierDecimated
	// TierScaled re-encodes damaged regions pixelated (nearest-neighbor
	// downscale by LadderConfig.ScaleBlock and straight back up), the
	// host-side analogue of participant.ScaleImage: geometry is
	// unchanged so the protocol applies updates normally, but flat
	// blocks compress far smaller. Pixels are approximate until the
	// remote is promoted and served its resync refresh.
	TierScaled
	// TierKeyframeOnly withholds pixel data entirely: window structure
	// still flows, and the remote is owed one full refresh ("keyframe")
	// when it is promoted off this rung. RemoteHealth reports it as
	// HealthDegraded.
	TierKeyframeOnly
)

// String implements fmt.Stringer.
func (t QualityTier) String() string {
	switch t {
	case TierFull:
		return "full"
	case TierDecimated:
		return "decimated"
	case TierScaled:
		return "scaled"
	case TierKeyframeOnly:
		return "keyframe"
	default:
		return fmt.Sprintf("QualityTier(%d)", int(t))
	}
}

// Ladder default constants (library defaults; simulations inject much
// tighter values scaled to their tick interval).
const (
	DefaultDemoteAfter    = 500 * time.Millisecond
	DefaultPromoteAfter   = 2 * time.Second
	DefaultMinTierDwell   = time.Second
	DefaultFlapWindow     = 10 * time.Second
	DefaultMaxPromoteWait = 30 * time.Second
	DefaultLossDemote     = 0.15
	DefaultLossPromote    = 0.03
	DefaultDecimateEvery  = 3
	DefaultScaleBlock     = 4
)

// LadderConfig tunes the quality ladder. Assigning a non-nil
// *LadderConfig to Config.Ladder enables the controller; zero-valued
// fields take the Default* constants above.
type LadderConfig struct {
	// DemoteAfter is how long the congestion signal must hold
	// continuously before the remote drops one tier.
	DemoteAfter time.Duration
	// PromoteAfter is how long the path must stay clean before the
	// remote climbs one tier — deliberately longer than DemoteAfter so
	// the controller is quick to protect the session and slow to trust
	// a recovering link.
	PromoteAfter time.Duration
	// MinTierDwell is the minimum time between transitions for one
	// remote, in either direction.
	MinTierDwell time.Duration
	// FlapWindow classifies a demotion this soon after a promotion as a
	// flap: the promote backoff doubles (up to MaxPromoteWait), and a
	// promotion that survives a full clean FlapWindow resets the
	// backoff to PromoteAfter.
	FlapWindow time.Duration
	// MaxPromoteWait caps the exponential promote backoff.
	MaxPromoteWait time.Duration
	// LossDemote and LossPromote are the RR fraction-lost hysteresis
	// thresholds: loss at or above LossDemote counts as congestion,
	// loss at or below LossPromote counts as clean, and the band
	// between them freezes both streak clocks.
	LossDemote, LossPromote float64
	// DecimateEvery is the TierDecimated cadence: incremental updates
	// flush on every Nth tick (minimum 2).
	DecimateEvery int
	// ScaleBlock is the TierScaled pixelation block size in pixels
	// (minimum 2).
	ScaleBlock int
	// NoHysteresis makes the controller act on the instantaneous
	// congestion signal with no dwell, no streaks and no promote
	// backoff. It exists for the netsim mutation check that proves the
	// flap-count assertions have teeth; never enable it in production.
	NoHysteresis bool
}

// withDefaults returns a copy with zero-valued knobs filled in and the
// integer knobs clamped to their minimums.
func (lc LadderConfig) withDefaults() LadderConfig {
	if lc.DemoteAfter <= 0 {
		lc.DemoteAfter = DefaultDemoteAfter
	}
	if lc.PromoteAfter <= 0 {
		lc.PromoteAfter = DefaultPromoteAfter
	}
	if lc.MinTierDwell <= 0 {
		lc.MinTierDwell = DefaultMinTierDwell
	}
	if lc.FlapWindow <= 0 {
		lc.FlapWindow = DefaultFlapWindow
	}
	if lc.MaxPromoteWait <= 0 {
		lc.MaxPromoteWait = DefaultMaxPromoteWait
	}
	if lc.LossDemote <= 0 {
		lc.LossDemote = DefaultLossDemote
	}
	if lc.LossPromote <= 0 {
		lc.LossPromote = DefaultLossPromote
	}
	if lc.DecimateEvery < 2 {
		if lc.DecimateEvery == 0 {
			lc.DecimateEvery = DefaultDecimateEvery
		} else {
			lc.DecimateEvery = 2
		}
	}
	if lc.ScaleBlock < 2 {
		if lc.ScaleBlock == 0 {
			lc.ScaleBlock = DefaultScaleBlock
		} else {
			lc.ScaleBlock = 2
		}
	}
	return lc
}

// decimateEvery and scaleBlock resolve the tier parameters, falling
// back to the defaults when a tier was pinned without a ladder config.
func (h *Host) decimateEvery() int {
	if h.cfg.Ladder != nil {
		return h.cfg.Ladder.DecimateEvery
	}
	return DefaultDecimateEvery
}

func (h *Host) scaleBlock() int {
	if h.cfg.Ladder != nil {
		return h.cfg.Ladder.ScaleBlock
	}
	return DefaultScaleBlock
}

// QualityTier returns the remote's current ladder rung (TierFull unless
// the ladder or PinQualityTier moved it).
func (r *Remote) QualityTier() QualityTier {
	r.sh.Mu.Lock()
	defer r.sh.Mu.Unlock()
	return r.tier
}

// PinQualityTier forces the remote onto one rung and exempts it from
// the controller — a measurement hook for benchmarks and tests that
// need per-tier cost without waiting for congestion to develop.
// Pinning up out of a lossy tier performs the same resync a controller
// promotion would (clear pending detail, latch a full refresh).
func (r *Remote) PinQualityTier(t QualityTier) {
	if t < TierFull {
		t = TierFull
	}
	if t > TierKeyframeOnly {
		t = TierKeyframeOnly
	}
	r.sh.Mu.Lock()
	defer r.sh.Mu.Unlock()
	from := r.tier
	r.tierPinned = true
	if t == from {
		return
	}
	r.tier = t
	r.tierSince = r.host.cfg.Now()
	r.decimTicks = 0
	if t < from && from >= TierScaled {
		r.resyncForPromotionLocked()
	}
}

// ladderSweepLocked is the per-Tick controller pass for one remote: it
// folds the congestion signals into streak clocks and applies the
// demote/promote rules with hysteresis. Called from sweepHealth (tick
// start) with the sweep's one backlog sample for this remote. Shard lock
// held.
func (h *Host) ladderSweepLocked(r *Remote, backlogged bool, now time.Time) {
	if r.tierPinned {
		return
	}
	lc := h.cfg.Ladder
	congested, clean := r.congestionSignalLocked(lc, backlogged, now)

	// Streak clocks: a verdict starts its clock on the first sweep it
	// holds and zeroes the opposite clock; the loss hysteresis band
	// (neither congested nor clean) freezes by zeroing both.
	switch {
	case congested:
		if r.congestedSince.IsZero() {
			r.congestedSince = now
		}
		r.cleanSince = time.Time{}
	case clean:
		if r.cleanSince.IsZero() {
			r.cleanSince = now
		}
		r.congestedSince = time.Time{}
	default:
		r.congestedSince = time.Time{}
		r.cleanSince = time.Time{}
	}

	if lc.NoHysteresis {
		// Mutation-check mode: act on the instantaneous signal.
		if congested && r.tier < TierKeyframeOnly {
			h.demoteLocked(r, now)
		} else if clean && r.tier > TierFull {
			h.promoteLocked(r, now)
		}
		return
	}

	// A promotion that survived a full clean FlapWindow earns the
	// backoff back down to the base promote threshold.
	if r.promoteWait > lc.PromoteAfter && !r.cleanSince.IsZero() &&
		now.Sub(r.cleanSince) >= lc.FlapWindow {
		r.promoteWait = lc.PromoteAfter
	}

	dwell := now.Sub(r.tierSince)
	if r.tier < TierKeyframeOnly && !r.congestedSince.IsZero() &&
		now.Sub(r.congestedSince) >= lc.DemoteAfter && dwell >= lc.MinTierDwell {
		h.demoteLocked(r, now)
		return
	}
	if r.tier > TierFull && !r.cleanSince.IsZero() &&
		now.Sub(r.cleanSince) >= r.promoteWait && dwell >= lc.MinTierDwell {
		h.promoteLocked(r, now)
	}
}

// congestionSignalLocked renders the TFRC-style verdict for one sweep:
// congested when the send path is backlogged past its limit (the
// sweep's sample), the writer has stalled for a demote threshold, or a
// recent RR reports loss at or above LossDemote; clean when none of that
// holds and any recent loss report sits at or below LossPromote. Loss
// inside the hysteresis band yields (false, false). Shard lock held.
func (r *Remote) congestionSignalLocked(lc *LadderConfig, backlogged bool, now time.Time) (congested, clean bool) {
	congested = backlogged || r.sink.stalled() >= lc.DemoteAfter
	lossKnown := r.lastRR.Valid && !r.lastRRAt.IsZero() &&
		now.Sub(r.lastRRAt) <= lc.FlapWindow
	var loss float64
	if lossKnown {
		loss = float64(r.lastRR.FractionLost) / 256
		if loss >= lc.LossDemote {
			congested = true
		}
	}
	if congested {
		return true, false
	}
	if lossKnown && loss > lc.LossPromote {
		return false, false // hysteresis band: freeze both clocks
	}
	return false, true
}

// demoteLocked drops the remote one rung, records the transition, and
// charges a flap (doubling the promote backoff) when the demotion
// lands inside FlapWindow of the last promotion. Shard lock held.
func (h *Host) demoteLocked(r *Remote, now time.Time) {
	lc := h.cfg.Ladder
	r.tier++
	r.tierSince = now
	r.tierTransitions++
	r.congestedSince = time.Time{}
	r.decimTicks = 0
	if r.tier == TierKeyframeOnly {
		// Entering keyframe-only drops the accumulated per-region
		// detail: the pending set is what a wedged remote grows without
		// bound, and the resync refresh owed on promotion replaces it.
		r.pending.Clear()
		r.pendingPointer = false
	}
	h.record("QualityDemote", r.sink.queued())
	if !lc.NoHysteresis && !r.lastPromoteAt.IsZero() &&
		now.Sub(r.lastPromoteAt) < lc.FlapWindow {
		r.tierFlaps++
		r.promoteWait *= 2
		if r.promoteWait > lc.MaxPromoteWait {
			r.promoteWait = lc.MaxPromoteWait
		}
		h.record("QualityFlap", 0)
	}
}

// promoteLocked climbs the remote one rung and, when leaving a tier
// that withheld or approximated pixels, performs the resync. Shard lock
// held.
func (h *Host) promoteLocked(r *Remote, now time.Time) {
	from := r.tier
	r.tier--
	r.tierSince = now
	r.tierTransitions++
	r.cleanSince = time.Time{}
	r.lastPromoteAt = now
	r.decimTicks = 0
	if from >= TierScaled {
		r.resyncForPromotionLocked()
	}
	h.record("QualityPromote", 0)
}

// resyncForPromotionLocked clears the detail owed from a lossy tier
// (keyframe-only withheld it, scaled approximated it) and latches the
// full refresh the same Tick's refresh pass will serve. Promotion from
// TierDecimated needs none of this: decimated pixels are exact, merely
// delayed, and the pending set flushes them through the normal path.
func (r *Remote) resyncForPromotionLocked() {
	r.pending.Clear()
	r.pendingPointer = false
	r.refreshRequested = true
}
