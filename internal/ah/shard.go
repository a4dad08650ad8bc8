package ah

import (
	"sync"
	"sync/atomic"

	"appshare/internal/capture"
	"appshare/internal/fanout"
)

// Sharded send path (see DESIGN.md "Sharded send path"). The remote set
// is split across N shards, each with its own lock and a persistent
// sender goroutine. Tick prepares the batch once and publishes it to
// every shard; deliveries to different shards proceed in parallel, and
// attach/detach/feedback on one shard no longer contends with fan-out on
// another.
//
// Lock order: tickMu → h.mu → shard.Mu → capMu. Global operations that
// visit every shard (uniqueness scans, snapshots, Close) hold h.mu or
// nothing and take the shard locks one at a time; no path ever holds two
// shard locks at once.

// shard owns one slice of the remote set: the scaffold every subscriber
// set shares (lock, send arena, per-phase stats tally — see
// fanout.Shard) plus the host's members, sender goroutine and refresh
// hand-off.
type shard struct {
	fanout.Shard
	remotes map[*Remote]struct{}
	// size mirrors len(remotes) so fan-out can skip empty shards without
	// taking the lock.
	size atomic.Int32
	// refreshers is the per-tick scratch list of remotes whose latched
	// PLIs this tick must answer. It is written by the deliver phase and
	// read by the refresh phase; the fan-out barrier (shardWork.wg)
	// orders the two, so the slice is reused tick after tick without
	// reallocating.
	refreshers []*Remote
	// work feeds the shard's sender goroutine. Unbuffered: the fan-out
	// publish either hands the work descriptor to the sender or (when
	// the host is closing and the sender may be gone) runs it inline.
	work chan *shardWork
	// pw is the shard's pooled work descriptor. The barrier guarantees
	// at most one outstanding fan-out per shard, so one descriptor per
	// shard is reused for every tick of the session.
	pw *shardWork
}

// Fan-out phases.
const (
	// phaseDeliver fans the tick's prepared batch to every remote on the
	// shard and collects the refreshers latched since the last tick.
	phaseDeliver = iota
	// phaseRefresh answers the collected refreshers with the shared
	// full-refresh preparation (encoded once for all shards).
	phaseRefresh
)

// shardWork is one shard's slice of a fan-out. err carries the shard's
// first delivery error back to the Tick goroutine; the WaitGroup barrier
// publishes it (wg.Wait happens-after wg.Done).
type shardWork struct {
	s     *shard
	phase int
	batch *capture.Batch
	prep  *preparedBatch
	err   error
	wg    *sync.WaitGroup
}

// sender is the persistent per-shard delivery goroutine. It parks on the
// work channel between ticks and exits when the host closes. A host with
// one shard starts no senders at all — fan-out runs inline on the Tick
// goroutine, which is exactly the pre-sharding behavior.
func (h *Host) sender(s *shard) {
	for {
		select {
		case w := <-s.work:
			h.runShardWork(w)
			w.wg.Done()
		case <-h.senderStop:
			return
		}
	}
}

// runShardWork executes one shard's slice of a fan-out phase under the
// shard lock. Sending (sequence-number stamping plus the wire write)
// happens entirely under that lock — the per-stream ordering invariant
// every fan-out path shares; see the note on BroadcastExtension.
func (h *Host) runShardWork(w *shardWork) {
	s := w.s
	s.Mu.Lock()
	defer s.Mu.Unlock()
	s.BeginPhase()
	defer s.EndPhase()
	switch w.phase {
	case phaseDeliver:
		s.refreshers = s.refreshers[:0]
		for r := range s.remotes {
			if err := r.deliver(w.batch, w.prep); err != nil && w.err == nil {
				w.err = err
			}
			if r.refreshRequested {
				// Serve the PLI latched since the last tick (or the resync
				// a remote promoted off a lossy tier is owed), after the journal
				// batch so the refresh snapshot is consistent with
				// everything already emitted.
				r.refreshRequested = false
				s.refreshers = append(s.refreshers, r)
			}
		}
	case phaseRefresh:
		for i, r := range s.refreshers {
			s.refreshers[i] = nil
			// The shard lock was released between the phases (the refresh
			// capture runs outside all shard locks), so re-check that the
			// remote is still attached before stamping packets for it — a
			// refresher collected in the deliver phase may have been
			// evicted or closed in the gap, and refresh traffic toward it
			// would land on a torn-down sink (and count against a remote
			// the host already reported gone).
			if !h.cfg.DebugDisableEvictGates {
				if _, ok := s.remotes[r]; !ok || r.closed {
					continue
				}
			}
			// Tier coherence: a TierScaled refresher re-encodes through the
			// degraded path (fullRefresh routes it), the rest share this
			// phase's full-resolution preparation.
			if r.tier == TierScaled {
				if err := r.fullRefresh(); err != nil && w.err == nil {
					w.err = err
				}
				continue
			}
			r.pending.Clear()
			r.pendingPointer = false
			// allowRefs false: a refresh answers a viewer whose state —
			// possibly including its tile dictionary — cannot be trusted.
			// The seen-set restarts empty and the refresh's lossless
			// updates reseed it, dropping any pre-desync entries the
			// viewer may no longer hold.
			r.tileReset()
			if err := r.st.Send(r.tileCompose(w.prep, false)); err != nil && w.err == nil {
				w.err = err
			}
		}
		s.refreshers = s.refreshers[:0]
	}
}

// fanout publishes one phase to every shard that has work and waits on
// the barrier. It reports the first per-shard error and whether any
// shard collected refreshers (meaningful after phaseDeliver).
func (h *Host) fanout(phase int, batch *capture.Batch, prep *preparedBatch) (error, bool) {
	var wg sync.WaitGroup
	for _, s := range h.shards {
		switch phase {
		case phaseDeliver:
			if s.size.Load() == 0 {
				continue
			}
		case phaseRefresh:
			// Safe to read unlocked: written by the deliver phase, ordered
			// by the deliver barrier.
			if len(s.refreshers) == 0 {
				continue
			}
		}
		w := s.pw
		w.phase, w.batch, w.prep, w.err, w.wg = phase, batch, prep, nil, &wg
		if len(h.shards) == 1 {
			h.runShardWork(w)
			continue
		}
		wg.Add(1)
		select {
		case s.work <- w:
		case <-h.senderStop:
			// The host is closing and the sender may already have exited:
			// run the shard inline so the barrier cannot hang. The closed
			// sinks turn the sends into errors, which Tick reports.
			h.runShardWork(w)
			wg.Done()
		}
	}
	wg.Wait()
	var firstErr error
	refreshers := false
	for _, s := range h.shards {
		if s.pw.err != nil && firstErr == nil {
			firstErr = s.pw.err
		}
		if len(s.refreshers) > 0 {
			refreshers = true
		}
	}
	return firstErr, refreshers
}

// shardFor assigns a new remote to a shard round-robin, so any join
// pattern — including a flash crowd landing in one tick — spreads
// evenly.
func (h *Host) shardFor() *shard {
	return h.shards[(h.nextShard.Add(1)-1)%uint64(len(h.shards))]
}
