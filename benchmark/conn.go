package main

import (
	"io"
	"math/rand"
	"sync"
	"sync/atomic"

	"appshare/internal/core"
	"appshare/internal/participant"
	"appshare/internal/transport"
)

// The benchmark measures every layer from outside. These are the values
// it hands to the product in place of plain transports: a viewer-side
// PacketConn that stamps, counts and (optionally) drops, an in-process
// sink PacketConn for the fan-out population, and a timing wrapper for
// the origin→relay stream.

// deliverRec is one tick as a traced viewer saw it.
type deliverRec struct {
	tick          int
	first, end    int64 // first datagram received → stamp observed
	last          int64 // last datagram received
	busy          int64 // time inside the participant between Recv calls
	pkts          int
	ticksReleased int
}

// viewerConn wraps the transport a viewer's Connection reads from. Its
// Recv is called by the Connection's pump after the previous packet was
// fully handled, so reading the participant there, before blocking,
// observes exactly the state that packet produced.
type viewerConn struct {
	inner transport.PacketConn
	p     *participant.Participant
	clock *tickClock
	track *stampTracker

	// Bytes of the datagrams received, counted before injected drops;
	// touched by the pump goroutine only.
	bytes uint64
	// RTP sequence span, for kernel-drop accounting: the highest
	// extended sequence number seen minus the first. The pump goroutine
	// writes them; the driver reads them when it judges the run.
	seqFirst, seqHigh atomic.Int64
	seqSeen           atomic.Bool
	rtpPkts           atomic.Uint64

	// Injected loss: each received datagram is dropped with probability
	// lossRate, decided by a seeded generator in arrival order, so one
	// seed drops the same datagrams of the same arrival sequence.
	lossOn   atomic.Bool
	lossRate float64
	rng      *rand.Rand

	// Join timing: joinStart is set before the dial; painted is closed
	// when the viewer first shows a window, needs no refresh and has
	// applied a RegionUpdate.
	joinStart int64
	joinedAt  atomic.Int64
	painted   chan struct{}

	// Feedback the product's own code sent through this conn.
	nacks, plis atomic.Uint64

	// Tracing (per-packet clock reads) is off in end-to-end runs.
	traced  atomic.Bool
	mu      sync.Mutex // guards deliver, repairs
	deliver []deliverRec
	cur     deliverRec
	lastRet int64
	// NACK sent → gap closed.
	nackAt  atomic.Int64
	repairs []int64
}

func newViewerConn(inner transport.PacketConn, p *participant.Participant, clock *tickClock, lossRate float64, lossSeed int64) *viewerConn {
	return &viewerConn{
		inner:     inner,
		p:         p,
		clock:     clock,
		track:     &stampTracker{},
		lossRate:  lossRate,
		rng:       rand.New(rand.NewSource(lossSeed)),
		joinStart: clock.now(),
		painted:   make(chan struct{}),
	}
}

// Recv implements transport.PacketConn.
func (v *viewerConn) Recv() ([]byte, error) {
	v.beforeBlock()
	for {
		pkt, err := v.inner.Recv()
		if err != nil {
			return nil, err
		}
		v.bytes += uint64(len(pkt))
		v.noteSeq(pkt)
		if v.traced.Load() {
			now := v.clock.now()
			if v.cur.pkts == 0 {
				v.cur.first = now
			}
			v.cur.pkts++
			v.cur.last = now
			v.lastRet = now
		}
		if v.lossOn.Load() && v.rng.Float64() < v.lossRate {
			continue
		}
		return pkt, nil
	}
}

// beforeBlock runs on the pump goroutine between two packets.
func (v *viewerConn) beforeBlock() {
	now := v.clock.now()
	traced := v.traced.Load()
	if v.lastRet != 0 {
		if traced {
			v.cur.busy += now - v.lastRet
		}
		v.lastRet = 0 // never carried across a stretch of untraced ticks
	}
	if v.joinedAt.Load() == 0 && v.isPainted() {
		v.joinedAt.Store(now)
		close(v.painted)
	}
	if traced {
		if at := v.nackAt.Load(); at != 0 && len(v.p.MissingSequences()) == 0 {
			v.nackAt.Store(0)
			v.mu.Lock()
			v.repairs = append(v.repairs, now-at)
			v.mu.Unlock()
		}
	}
	x, y, known := v.p.Pointer()
	if !known {
		return
	}
	k := stampOf(x, y)
	if n := v.track.observe(k, now, v.bytes, v.clock); n > 0 && traced {
		v.cur.tick, v.cur.end, v.cur.ticksReleased = k, now, n
		v.mu.Lock()
		v.deliver = append(v.deliver, v.cur)
		v.mu.Unlock()
		v.cur = deliverRec{}
	}
}

func (v *viewerConn) isPainted() bool {
	return len(v.p.Windows()) > 0 && !v.p.NeedsRefresh() && v.p.Applied(core.TypeRegionUpdate) > 0
}

// noteSeq tracks the RTP sequence span of the incoming stream.
func (v *viewerConn) noteSeq(pkt []byte) {
	if len(pkt) < 4 || (pkt[1] >= 200 && pkt[1] <= 207) {
		return
	}
	v.rtpPkts.Add(1)
	seq := int64(pkt[2])<<8 | int64(pkt[3])
	if !v.seqSeen.Load() {
		v.seqFirst.Store(seq)
		v.seqHigh.Store(seq)
		v.seqSeen.Store(true)
		return
	}
	// Extend the 16-bit number around the highest seen so far.
	high := v.seqHigh.Load()
	ext := high&^0xFFFF | seq
	switch {
	case ext < high-0x8000:
		ext += 0x10000
	case ext > high+0x8000:
		ext -= 0x10000
	}
	if ext > high {
		v.seqHigh.Store(ext)
	}
}

// missingOnWire is how many sequence numbers inside the span this viewer
// never received: datagrams the kernel dropped. Retransmissions arrive
// under their old numbers, so it is exact only on loss-free paths. Call
// it after the pump has stopped or the stream is quiet.
func (v *viewerConn) missingOnWire() int64 {
	if !v.seqSeen.Load() {
		return 0
	}
	return max(v.seqHigh.Load()-v.seqFirst.Load()+1-int64(v.rtpPkts.Load()), 0)
}

// Send implements transport.PacketConn; it counts the feedback the
// product's repair code sends (RFC 4585: 205 transport-layer feedback is
// the Generic NACK, 206 payload-specific feedback the PLI).
func (v *viewerConn) Send(pkt []byte) error {
	if len(pkt) >= 2 {
		switch pkt[1] {
		case 205:
			v.nacks.Add(1)
			if v.traced.Load() {
				v.nackAt.CompareAndSwap(0, v.clock.now())
			}
		case 206:
			v.plis.Add(1)
		}
	}
	return v.inner.Send(pkt)
}

// Close implements transport.PacketConn.
func (v *viewerConn) Close() error { return v.inner.Close() }

// sinkConn is one in-process viewer of the fan-out population: it accepts
// and discards, so the host's per-viewer stamp, copy and log cost is all
// that is left of a send. Its Recv announces the viewer with one PLI, as
// a UDP participant does, and then parks. The host calls Send and
// SendBatch under the owning shard's lock, so the counters have one
// writer at a time; the driver reads them between ticks.
type sinkConn struct {
	pli         []byte
	once        sync.Once
	park        chan struct{}
	calls, pkts uint64
	bytes       uint64
	countBytes  *atomic.Bool
}

func newSinkConn(pli []byte, countBytes *atomic.Bool) *sinkConn {
	return &sinkConn{pli: pli, park: make(chan struct{}), countBytes: countBytes}
}

func (s *sinkConn) Send(pkt []byte) error {
	s.calls++
	s.pkts++
	if s.countBytes.Load() {
		s.bytes += uint64(len(pkt))
	}
	return nil
}

// SendBatch implements transport.BatchSender.
func (s *sinkConn) SendBatch(pkts [][]byte) (int, error) {
	s.calls++
	s.pkts += uint64(len(pkts))
	if s.countBytes.Load() {
		for _, p := range pkts {
			s.bytes += uint64(len(p))
		}
	}
	return len(pkts), nil
}

func (s *sinkConn) Recv() ([]byte, error) {
	if pli := s.pli; pli != nil {
		s.pli = nil
		return pli, nil
	}
	<-s.park
	return nil, io.EOF
}

func (s *sinkConn) Close() error {
	s.once.Do(func() { close(s.park) })
	return nil
}

// streamConn times the writes the host makes on the origin→relay stream.
// The host writes through a queue drained by its own goroutine, so these
// writes run beside Host.Tick, not inside it.
type streamConn struct {
	io.ReadWriteCloser
	clock *tickClock

	mu      sync.Mutex
	perTick map[int]*streamRec
}

// streamRec aggregates one tick's writes.
type streamRec struct {
	first, last int64
	busy        int64
	writes      int
	bytes       int
}

func newStreamConn(rw io.ReadWriteCloser, clock *tickClock) *streamConn {
	return &streamConn{ReadWriteCloser: rw, clock: clock, perTick: make(map[int]*streamRec)}
}

func (s *streamConn) Write(p []byte) (int, error) {
	start := s.clock.now()
	n, err := s.ReadWriteCloser.Write(p)
	end := s.clock.now()
	// A write belongs to the newest issued tick: at the benchmark's tick
	// rate the queue is empty again before the next tick is due.
	k := int(s.clock.issued.Load())
	s.mu.Lock()
	rec := s.perTick[k]
	if rec == nil {
		rec = &streamRec{first: start}
		s.perTick[k] = rec
	}
	rec.last = end
	rec.busy += end - start
	rec.writes++
	rec.bytes += n
	s.mu.Unlock()
	return n, err
}

// take returns and forgets the records of ticks [from, to].
func (s *streamConn) take(from, to int) map[int]streamRec {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]streamRec)
	for k, rec := range s.perTick {
		if k >= from && k <= to {
			out[k] = *rec
		}
		if k <= to {
			delete(s.perTick, k)
		}
	}
	return out
}
