package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"appshare/internal/capture"
	"appshare/internal/core"
	"appshare/internal/relay"
)

// window is the record of one measured interval of a session.
type window struct {
	from, to       int   // tick ids, inclusive
	startNs, endNs int64 // first tick due → last Host.Tick returned

	// Per tick, indexed from `from`. sinkCalls, sinkPkts and sinkBytes are
	// filled on traced ticks only.
	dueNs, stepNs, tickStartNs, tickNs []int64
	refreshTick, tracedTick            []bool
	sinkCalls, sinkPkts, sinkBytes     []uint64
	lateMaxNs                          int64

	// Transient joiners (churn workloads).
	joinNs       []int64
	joinsStarted int
	joinFails    int

	ctr0, ctr1 counters
}

// counters are the cumulative counters — the product's and the process's —
// the benchmark reads at both ends of a window.
type counters struct {
	mem       runtime.MemStats
	ru        syscall.Rusage
	enc       capture.EncodeMetrics
	served    uint64
	nack, pli uint64
	relay     relay.Stats
	applied   uint64  // messages applied, summed over residents
	gcCPU     float64 // seconds
}

func (s *session) counters() (counters, error) {
	c := counters{
		enc:    s.host.EncodeMetrics(),
		served: s.host.ServedRefreshes(),
		nack:   s.hostStats.Get("NACK-handled").Messages,
		pli:    s.hostStats.Get("PLI-handled").Messages,
	}
	if s.relay != nil {
		c.relay = s.relay.Stats()
	}
	for _, v := range s.residents {
		for t := core.TypeWindowManagerInfo; t <= core.TypeMousePointerInfo; t++ {
			c.applied += v.p.Applied(t)
		}
	}
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = sample[0].Value.Float64()
	}
	runtime.ReadMemStats(&c.mem)
	return c, syscall.Getrusage(syscall.RUSAGE_SELF, &c.ru)
}

func (w *window) ticks() int { return w.to - w.from + 1 }

func (w *window) tracedTicks() int {
	n := 0
	for _, traced := range w.tracedTick {
		if traced {
			n++
		}
	}
	return n
}

// traceBlock is how long tracing stays on or off in a traced closed-loop
// run; an open loop decides tick by tick. Each block is traced or not by
// the toss of a seeded coin, so that traced and untraced ticks see the
// same session, content and drift and differ in the tracing alone. (A
// fixed alternation would fall in step with the workload's own periods:
// joins every 500 ms, a new line every ten ticks. And latency jitter comes
// in bursts, so the finer the blocks the better — but a closed loop's
// viewers run a tick or two behind the driver, and a block must be long
// against that lag for a viewer's records to belong to its ticks.)
const traceBlock = 200 * time.Millisecond

// sleepUntil returns at the given clock instant: it sleeps to 2 ms before
// it and spins the rest, yielding. A Go timer fires up to a millisecond
// late (an idle runtime waits in epoll_wait, whose timeout is in whole
// milliseconds), and a generator that starts its ticks late by a uniform
// 0–1 ms buries a 0.3 ms latency under its own jitter.
func sleepUntil(clock *tickClock, at int64) {
	const spin = 2 * time.Millisecond
	if d := time.Duration(at-clock.now()) - spin; d > 0 {
		time.Sleep(d)
	}
	for clock.now() < at {
		runtime.Gosched()
	}
}

// measure drives the session for the given time and records the window.
// An open loop ticks on schedule whatever the host does; a closed loop
// starts the next tick when the last returns. A positive tickLimit ends
// the window after that many ticks (the smoke tests use it). With
// traceBlocks, about half of the window's traceBlocks are traced.
func (s *session) measure(seconds float64, traceBlocks bool, tickLimit int) (*window, error) {
	w := &window{from: s.k + 1}
	s.setTraced(false)
	var firstErr error
	if w.ctr0, firstErr = s.counters(); firstErr != nil {
		return nil, firstErr
	}
	served := w.ctr0.served

	// A short lead keeps the first open-loop tick from starting late.
	start := s.clock.now() + int64(2*time.Millisecond)
	end := start + int64(seconds*1e9)
	w.startNs = start
	windowOver, joinsDone := make(chan struct{}), make(chan struct{})
	if s.sp.joinEvery > 0 {
		go func() {
			defer close(joinsDone)
			s.joinLoop(start, end, windowOver, w)
		}()
	} else {
		close(joinsDone)
	}

	coin := rand.New(rand.NewSource(int64(w.from)))
	traced, block, blockNs := false, int64(-1), int64(traceBlock)
	if s.sp.hz > 0 {
		blockNs = int64(time.Second) / int64(s.sp.hz)
	}
	for i := 0; tickLimit <= 0 || i < tickLimit; i++ {
		var due int64
		if s.sp.hz > 0 {
			due = start + int64(i)*int64(time.Second)/int64(s.sp.hz)
			if due >= end {
				break
			}
			sleepUntil(s.clock, due)
			w.lateMaxNs = max(w.lateMaxNs, s.clock.now()-due)
		} else {
			if due = max(s.clock.now(), start); due >= end {
				break
			}
		}
		if b := (due - start) / blockNs; traceBlocks && b != block {
			block, traced = b, coin.Intn(2) == 1
			s.setTraced(traced)
		}
		var calls0, pkts0, bytes0 uint64
		if traced {
			calls0, pkts0, bytes0 = s.sinkTotals()
		}
		began := s.clock.now()
		stepNs, tickNs, err := s.tick(due, true)
		if err != nil {
			firstErr = fmt.Errorf("tick %d: %w", s.k, err)
			break
		}
		w.dueNs = append(w.dueNs, due)
		w.stepNs = append(w.stepNs, stepNs)
		w.tickStartNs = append(w.tickStartNs, began+stepNs)
		w.tickNs = append(w.tickNs, tickNs)
		now := s.host.ServedRefreshes()
		w.refreshTick = append(w.refreshTick, now != served)
		served = now
		w.tracedTick = append(w.tracedTick, traced)
		var calls, pkts, bytes uint64
		if traced {
			calls, pkts, bytes = s.sinkTotals()
		}
		w.sinkCalls = append(w.sinkCalls, calls-calls0)
		w.sinkPkts = append(w.sinkPkts, pkts-pkts0)
		w.sinkBytes = append(w.sinkBytes, bytes-bytes0)
	}
	s.setTraced(false)
	close(windowOver)
	w.to = s.k
	w.endNs = s.clock.now()
	var err error
	if w.ctr1, err = s.counters(); err != nil && firstErr == nil {
		firstErr = err
	}
	// A joiner still painting needs ticks to have its PLI served.
	for waiting := true; waiting; {
		select {
		case <-joinsDone:
			waiting = false
		case <-time.After(time.Second / 30):
			if err := s.idleTick(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	if firstErr == nil && w.ticks() < 1 {
		firstErr = fmt.Errorf("no tick fitted into %.2f s", seconds)
	}
	return w, firstErr
}

// sinkTotals sums the sinks' counters. The host writes them under its
// shard locks inside Tick, so the driver reads them between ticks.
func (s *session) sinkTotals() (calls, pkts, bytes uint64) {
	for _, sink := range s.sinks {
		calls += sink.calls
		pkts += sink.pkts
		bytes += sink.bytes
	}
	return calls, pkts, bytes
}

// joinLoop starts one transient joiner every joinEvery on a clean path,
// waits until it is fully painted, records the time and closes it.
func (s *session) joinLoop(start, end int64, windowOver <-chan struct{}, w *window) {
	every := int64(s.sp.joinEvery)
	for at := start + every/2; at < end; at += every {
		select {
		case <-windowOver:
			return
		case <-time.After(time.Duration(at - s.clock.now())):
		}
		w.joinsStarted++
		v, err := s.dialViewer(0, 0)
		if err != nil {
			w.joinFails++
			continue
		}
		timeout := time.NewTimer(joinDeadline)
		select {
		case <-v.vc.painted:
			w.joinNs = append(w.joinNs, v.vc.joinedAt.Load()-v.vc.joinStart)
		case <-timeout.C:
			w.joinFails++
		}
		timeout.Stop()
		s.closeViewer(v)
	}
}

// outcome is what one resident-by-tick sampling of a window gives.
type outcome struct {
	// latNs are the stamped pairs, those stamped after updateDeadline
	// included: such a pair is a failed update and also keeps its place in
	// the distribution, so a stall shows in the p99 and not only in failed.
	// A latency set that drops its slowest samples reads better the worse
	// the run went.
	latNs     []int64
	tracedNs  []int64 // those of traced ticks
	plainNs   []int64 // those of untraced ticks
	attempted int     // resident-by-tick pairs
	failed    int     // pairs not stamped within updateDeadline
	wireBytes float64 // datagram bytes per resident per tick
}

// sample reads the residents' records of the window. Call it after drain.
func (s *session) sample(w *window) outcome {
	var o outcome
	var bytes uint64
	for _, v := range s.residents {
		lat, b := v.vc.track.window(w.from, w.to)
		bytes += b
		for i, l := range lat {
			o.attempted++
			if l == 0 || l > int64(updateDeadline) {
				o.failed++
			}
			if l != 0 {
				o.latNs = append(o.latNs, l)
				if w.tracedTick[i] {
					o.tracedNs = append(o.tracedNs, l)
				} else {
					o.plainNs = append(o.plainNs, l)
				}
			}
		}
	}
	o.wireBytes = float64(bytes) / float64(len(s.residents)) / float64(w.ticks())
	return o
}
