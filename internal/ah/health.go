package ah

import (
	"fmt"
	"sort"
	"time"

	"appshare/internal/rtcp"
)

// Remote liveness and eviction (see DESIGN.md "Slow viewers: quality
// ladder & eviction"). The draft's Section 7 tells the AH to watch
// per-participant TCP backlog and defer screen data — but deferring
// forever lets one dead or wedged viewer pin retransmit-log and
// pending-region memory for the rest of the session. Every Tick sweeps
// the attached remotes: the quality ladder (ladder.go) decides what a
// congested remote is sent, and the two budgets here (RemoteTimeout,
// MaxBacklogDwell) decide when it is detached, with a recorded reason.

// HealthState summarises a remote for RemoteHealth consumers. It is not
// stored: healthState derives it from the ladder rung and the evict
// reason at snapshot time.
type HealthState int

const (
	// HealthHealthy: pixels flow (at full, decimated or scaled fidelity).
	HealthHealthy HealthState = iota
	// HealthDegraded: the remote sits on TierKeyframeOnly — pixel data is
	// withheld and one full refresh is owed on promotion.
	HealthDegraded
	// HealthEvicted: the sweep has detached the remote; its RemoteHealth
	// snapshot carries the reason.
	HealthEvicted
)

// String implements fmt.Stringer.
func (s HealthState) String() string {
	switch s {
	case HealthHealthy:
		return "healthy"
	case HealthDegraded:
		return "degraded"
	case HealthEvicted:
		return "evicted"
	default:
		return fmt.Sprintf("HealthState(%d)", int(s))
	}
}

// healthState is the whole definition of HealthState: a pure function of
// the ladder rung and the evict reason.
func healthState(tier QualityTier, evictReason string) HealthState {
	switch {
	case evictReason != "":
		return HealthEvicted
	case tier == TierKeyframeOnly:
		return HealthDegraded
	default:
		return HealthHealthy
	}
}

// RemoteHealth is a point-in-time health snapshot of one remote —
// attached or recently evicted.
type RemoteHealth struct {
	// ID is the identifier the remote was attached with.
	ID string
	// UserID is the remote's BFCP identity.
	UserID uint16
	// State is the lifecycle summary derived from Tier and EvictReason.
	State HealthState
	// LastHeard is when the last packet of any kind (HIP or RTCP)
	// arrived from the remote; zero if it has never spoken.
	LastHeard time.Time
	// LastRR is when the last RTCP Receiver Report arrived; zero if none.
	LastRR time.Time
	// RTT is the round-trip estimate from the last RR's LSR/DLSR echo
	// (RFC 3550 Section 6.4.1); zero if unknown.
	RTT time.Duration
	// FractionLost is the loss fraction [0,1] the remote reported in its
	// last RR.
	FractionLost float64
	// QueuedBytes is the send backlog at snapshot time (zero for
	// datagram remotes).
	QueuedBytes int
	// BacklogDwell is how long the backlog has continuously sat above
	// the limit (zero when below).
	BacklogDwell time.Duration
	// SendStall is how long the send path has made no drain progress
	// with bytes queued (zero when idle or flowing).
	SendStall time.Duration
	// DeferStreak is the current run of consecutive ticks that deferred
	// screen data; MaxDeferStreak is the worst run observed.
	DeferStreak, MaxDeferStreak int
	// Deferrals is the lifetime count of deferring ticks.
	Deferrals uint64
	// SentPackets and SentOctets count the fresh (non-retransmission)
	// remoting packets shipped to this remote.
	SentPackets, SentOctets uint64
	// DrainedBytes and DiscardedBytes are the send path's drain
	// accounting (stream remotes only): bytes that reached the wire and
	// bytes dropped by teardown or a write error. For a stream remote
	// served no retransmissions, DrainedBytes + DiscardedBytes +
	// QueuedBytes equals SentOctets plus the RFC 4571 frame headers
	// (2 bytes per sent packet) — the counter-consistency invariant the
	// netsim oracles check.
	DrainedBytes, DiscardedBytes int64
	// EvictReason is the detach reason; non-empty once State is
	// HealthEvicted.
	EvictReason string
	// EvictedAt is when the eviction happened (zero while attached).
	EvictedAt time.Time
	// Tier is the current quality-ladder rung (TierFull unless the ladder
	// or PinQualityTier moved the remote; see ladder.go).
	Tier QualityTier
	// TierSince is when the current tier was entered (zero when the
	// ladder has never moved this remote).
	TierSince time.Time
	// TierTransitions counts ladder moves in either direction;
	// TierFlaps counts demotions that landed inside the flap window of
	// a promotion (each doubled the promote backoff).
	TierTransitions, TierFlaps uint64
}

// evictLogMax bounds the retained history of evicted remotes surfaced
// through RemoteHealth.
const evictLogMax = 64

// RemoteHealth returns health snapshots for every attached remote plus
// the recent evictions (most recent last), sorted attached-first by ID.
// The shard locks are taken one at a time, so a snapshot never stalls
// fan-out on more than one shard.
func (h *Host) RemoteHealth() []RemoteHealth {
	now := h.cfg.Now()
	out := make([]RemoteHealth, 0, h.Participants()+evictLogMax/4)
	for _, s := range h.shards {
		s.Mu.Lock()
		for r := range s.remotes {
			out = append(out, r.healthSnapshotLocked(now))
		}
		s.Mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	h.mu.Lock()
	out = append(out, h.evictLog...)
	h.mu.Unlock()
	return out
}

// Health returns this remote's current health snapshot.
func (r *Remote) Health() RemoteHealth {
	r.sh.Mu.Lock()
	defer r.sh.Mu.Unlock()
	return r.healthSnapshotLocked(r.host.cfg.Now())
}

// healthSnapshotLocked builds the snapshot. Shard lock held.
func (r *Remote) healthSnapshotLocked(now time.Time) RemoteHealth {
	var dwell time.Duration
	if !r.backlogHighSince.IsZero() {
		dwell = now.Sub(r.backlogHighSince)
	}
	drained, discarded := r.sink.drainStats()
	hs := RemoteHealth{
		ID:              r.id,
		UserID:          r.userID,
		State:           healthState(r.tier, r.evictReason),
		LastHeard:       r.lastHeard,
		LastRR:          r.lastRRAt,
		RTT:             r.rtt,
		QueuedBytes:     r.sink.queued(),
		BacklogDwell:    dwell,
		SendStall:       r.sink.stalled(),
		DeferStreak:     r.deferStreak,
		MaxDeferStreak:  r.maxDeferStreak,
		Deferrals:       r.deferrals,
		SentPackets:     r.st.SentPackets,
		SentOctets:      r.st.SentOctets,
		DrainedBytes:    drained,
		DiscardedBytes:  discarded,
		EvictReason:     r.evictReason,
		Tier:            r.tier,
		TierSince:       r.tierSince,
		TierTransitions: r.tierTransitions,
		TierFlaps:       r.tierFlaps,
	}
	if r.lastRR.Valid {
		hs.FractionLost = float64(r.lastRR.FractionLost) / 256
	}
	return hs
}

// noteHeardLocked stamps the arrival of any packet from the remote.
// Shard lock held.
func (r *Remote) noteHeardLocked(now time.Time) { r.lastHeard = now }

// noteRTTLocked derives a round-trip estimate from an RR's LSR/DLSR echo
// (RFC 3550 Section 6.4.1): RTT = now - LSR - DLSR in 1/65536-second
// units of the middle-32 NTP timestamp. Shard lock held.
func (r *Remote) noteRTTLocked(rep rtcp.ReceptionReport, now time.Time) {
	if rep.LastSR == 0 {
		return
	}
	elapsed := rtcp.MiddleNTP(rtcp.NTPTime(now)) - rep.LastSR - rep.DelaySinceLastSR
	if int32(elapsed) < 0 {
		return // clock skew or a stale echo; keep the previous estimate
	}
	rtt := time.Duration(uint64(elapsed) * uint64(time.Second) >> 16)
	if rtt < time.Minute {
		r.rtt = rtt
	}
}

// evicted pairs a detached remote with the snapshot explaining why, for
// the cleanup work done outside the host lock.
type evicted struct {
	r    *Remote
	snap RemoteHealth
}

// sweepHealth runs the per-Tick health pass (at tick start, so the
// backlog sample reflects the whole previous interval): it samples each
// remote's backlog once, maintains the dwell clock from it, selects
// remotes for eviction and hands the same sample to the quality ladder.
// The sweep walks the shards one at a time under each shard's lock;
// detached remotes are removed from their shard map immediately (so no
// further fan-out reaches them) and returned for transport teardown
// outside all locks. The eviction log is appended under h.mu afterwards
// (lock order forbids taking it under a shard lock's critical section —
// and nothing requires it there).
func (h *Host) sweepHealth(now time.Time) []evicted {
	var out []evicted
	for _, s := range h.shards {
		s.Mu.Lock()
		for r := range s.remotes {
			// Dwell clock: starts when the sink first reports backlog above
			// limit and clears as soon as it drops back under.
			backlogged := r.sink.backlogged(0)
			if backlogged {
				if r.backlogHighSince.IsZero() {
					r.backlogHighSince = now
				}
			} else {
				r.backlogHighSince = time.Time{}
			}

			if reason := h.evictReasonLocked(r, now); reason != "" {
				r.evictReason = reason
				r.closed = true // the sweep owns the sink teardown
				delete(s.remotes, r)
				s.size.Add(-1)
				h.nRemotes.Add(-1)
				snap := r.healthSnapshotLocked(now)
				snap.EvictedAt = now
				h.record("HealthEvict", snap.QueuedBytes)
				out = append(out, evicted{r: r, snap: snap})
				continue
			}
			if h.cfg.Ladder != nil {
				h.ladderSweepLocked(r, backlogged, now)
			}
		}
		s.Mu.Unlock()
	}
	if len(out) > 0 {
		h.mu.Lock()
		for _, ev := range out {
			h.evictLog = append(h.evictLog, ev.snap)
		}
		if len(h.evictLog) > evictLogMax {
			h.evictLog = h.evictLog[len(h.evictLog)-evictLogMax:]
		}
		h.mu.Unlock()
	}
	return out
}

// evictReasonLocked returns a non-empty detach reason when the remote
// must be evicted now: silence past Config.RemoteTimeout, or continuous
// backlog dwell / writer stall past Config.MaxBacklogDwell. Shard lock
// held.
func (h *Host) evictReasonLocked(r *Remote, now time.Time) string {
	if h.cfg.RemoteTimeout > 0 {
		heard := r.lastHeard
		if heard.IsZero() {
			heard = r.attachedAt
		}
		if silent := now.Sub(heard); silent >= h.cfg.RemoteTimeout {
			return fmt.Sprintf("liveness timeout: nothing heard for %v (limit %v)",
				silent.Round(time.Millisecond), h.cfg.RemoteTimeout)
		}
	}
	if h.cfg.MaxBacklogDwell <= 0 {
		return ""
	}
	if !r.backlogHighSince.IsZero() {
		if dwell := now.Sub(r.backlogHighSince); dwell >= h.cfg.MaxBacklogDwell {
			return fmt.Sprintf("backlog dwell: %d bytes above limit for %v (limit %v)",
				r.sink.queued(), dwell.Round(time.Millisecond), h.cfg.MaxBacklogDwell)
		}
	}
	if stall := r.sink.stalled(); stall >= h.cfg.MaxBacklogDwell {
		return fmt.Sprintf("send stall: no drain progress for %v (limit %v)",
			stall.Round(time.Millisecond), h.cfg.MaxBacklogDwell)
	}
	return ""
}

// finishEvictions tears down transports for remotes the sweep detached:
// the sink is closed (unblocking any wedged writer), the BFCP floor drops
// the user, and the eviction callback fires. Runs WITHOUT the host lock —
// sink teardown may block on dead transports and callbacks may call back
// into the Host.
func (h *Host) finishEvictions(evs []evicted) {
	for _, ev := range evs {
		_ = ev.r.sink.close()
		if h.cfg.Floor != nil {
			h.cfg.Floor.Drop(ev.r.userID)
		}
		if h.cfg.OnEvict != nil {
			h.cfg.OnEvict(ev.snap)
		}
	}
}
