// Package transport provides the network substrates the experiments run
// on: an in-memory datagram link with configurable loss, reordering,
// delay and bandwidth (substituting for Internet paths), a multicast bus
// (substituting for IP multicast), and a rate-limited stream writer that
// exposes its send-queue backlog — the signal the draft's Implementation
// Notes (Section 7) tell an AH to monitor before sending screen data.
//
// Real UDP and TCP over loopback also work with the AH and participant
// (they accept net.Conn / net.PacketConn shaped endpoints); the simulated
// links exist so loss and bandwidth are controlled and reproducible.
package transport

import (
	"errors"
	"io"
	"sync"
	"time"
)

// ErrClosed is returned by operations on a closed endpoint.
var ErrClosed = errors.New("transport: closed")

// PacketConn is a message-oriented, unreliable, unordered channel — the
// shape of a UDP socket.
type PacketConn interface {
	// Send transmits one datagram. It never blocks for the network;
	// datagrams in excess of the link capacity are dropped, as UDP
	// would.
	//
	// Buffer ownership follows the io.Writer rule: Send must not modify
	// pkt, even temporarily, and must not retain it — an implementation
	// that needs the bytes after returning copies them. The send paths
	// stamp packets into memory they reuse for the next viewer as soon
	// as Send returns.
	Send(pkt []byte) error
	// Recv blocks until a datagram arrives or the conn closes (io.EOF).
	Recv() ([]byte, error)
	// Close releases the endpoint.
	Close() error
}

// BatchSender is the optional batched-send fast path of a PacketConn —
// the sendmmsg/writev analogue. SendBatch transmits a run of datagrams
// in one operation (for the simulated endpoint: one lock acquisition and
// one shaper pass for the whole run) and returns how many datagrams were
// accepted. Semantics per datagram are identical to Send — including
// buffer ownership: neither pkts nor any datagram in it may be modified
// or retained past the return — and callers that find the interface
// absent fall back to per-packet sends.
type BatchSender interface {
	SendBatch(pkts [][]byte) (int, error)
}

// Batched is a PacketConn that always offers SendBatch: through the
// conn's own BatchSender when it has one (resolved once, by Batch),
// through a Send loop otherwise. Either way the count returned is the
// prefix of pkts the conn accepted — never more than len(pkts) — and a
// caller's accounting must cover exactly that prefix.
type Batched struct {
	PacketConn
	batch BatchSender
}

// Batch wraps conn.
func Batch(conn PacketConn) Batched {
	bs, _ := conn.(BatchSender)
	return Batched{PacketConn: conn, batch: bs}
}

// SendBatch implements BatchSender.
func (b *Batched) SendBatch(pkts [][]byte) (int, error) {
	if b.batch != nil {
		n, err := b.batch.SendBatch(pkts)
		return min(n, len(pkts)), err
	}
	for i, p := range pkts {
		if err := b.Send(p); err != nil {
			return i, err
		}
	}
	return len(pkts), nil
}

// LinkConfig describes one direction of a simulated path. The zero
// value is a perfect link; each field degrades it independently, and a
// config that sets only the original fields (LossRate, ReorderRate,
// Delay) behaves exactly as it did before the richer impairments were
// added — same seed, same pattern.
type LinkConfig struct {
	// LossRate is the independent drop probability per datagram [0,1).
	LossRate float64
	// ReorderRate is the probability a datagram is held back and
	// delivered after its successor.
	ReorderRate float64
	// Delay is a fixed one-way latency applied to every datagram.
	Delay time.Duration
	// Seed makes the loss/reorder pattern reproducible. Zero seeds from
	// the clock.
	Seed int64
	// QueueLen bounds the receive queue (default 1024); overflow drops.
	QueueLen int

	// Jitter adds a uniform random [0, Jitter) to Delay per datagram.
	// With enough jitter relative to the send spacing, datagrams arrive
	// out of order — a second, latency-driven reordering mechanism on
	// top of ReorderRate.
	Jitter time.Duration
	// DuplicateRate is the probability a datagram is delivered twice.
	DuplicateRate float64
	// Burst, when non-nil, layers a Gilbert–Elliott two-state burst-loss
	// model on top of LossRate.
	Burst *BurstLoss
	// BytesPerSecond, when positive, polices the link to that rate with
	// a token bucket; datagrams beyond the budget are dropped, not
	// queued.
	BytesPerSecond int
	// BurstBytes is the policing bucket depth. Zero means one second's
	// worth of BytesPerSecond.
	BurstBytes int
}

type endpoint struct {
	mu     sync.Mutex
	shaper *Shaper
	cfg    LinkConfig
	peer   *endpoint
	inbox  chan []byte
	held   []byte // reorder hold slot
	closed bool
	// stats
	sent, dropped uint64
}

// Pipe returns two connected PacketConn endpoints. cfgAB shapes the a→b
// direction, cfgBA the b→a direction.
func Pipe(cfgAB, cfgBA LinkConfig) (a, b PacketConn) {
	ea := newEndpoint(cfgAB)
	eb := newEndpoint(cfgBA)
	ea.peer = eb
	eb.peer = ea
	return ea, eb
}

func newEndpoint(cfg LinkConfig) *endpoint {
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 1024
	}
	return &endpoint{
		shaper: NewShaper(cfg),
		cfg:    cfg,
		inbox:  make(chan []byte, cfg.QueueLen),
	}
}

// Send implements PacketConn. The datagram is copied, so the caller may
// reuse its buffer.
func (e *endpoint) Send(pkt []byte) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	e.sent++
	v := e.shaper.Shape(time.Now(), len(pkt), e.held == nil)
	if v.Drop {
		e.dropped++
		e.mu.Unlock()
		return nil // silently lost, like UDP
	}
	buf := append([]byte(nil), pkt...)
	var deliverFirst, deliverSecond []byte
	switch {
	case e.held != nil:
		// A previously held datagram goes out after this one.
		deliverFirst, deliverSecond = buf, e.held
		e.held = nil
	case v.Hold:
		e.held = buf
		if v.Duplicate {
			// The duplicate copy is not held; it ships now, so the two
			// copies themselves arrive out of order.
			deliverFirst = append([]byte(nil), buf...)
		}
	default:
		deliverFirst = buf
		if v.Duplicate {
			deliverSecond = append([]byte(nil), buf...)
		}
	}
	delay := v.Delay
	peer := e.peer
	e.mu.Unlock()

	deliver := func() {
		if deliverFirst != nil {
			peer.enqueue(deliverFirst)
		}
		if deliverSecond != nil {
			peer.enqueue(deliverSecond)
		}
	}
	if deliverFirst == nil && deliverSecond == nil {
		return nil
	}
	if delay > 0 {
		time.AfterFunc(delay, deliver)
	} else {
		deliver()
	}
	return nil
}

// SendBatch implements BatchSender: the whole run is shaped under ONE
// lock acquisition, then delivered outside it in order. Per-datagram
// behavior (loss, reorder holds, duplication, delay) is identical to
// len(pkts) Send calls.
func (e *endpoint) SendBatch(pkts [][]byte) (int, error) {
	type delivery struct {
		delay         time.Duration
		first, second []byte
	}
	var dels []delivery
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return 0, ErrClosed
	}
	now := time.Now()
	for _, pkt := range pkts {
		e.sent++
		v := e.shaper.Shape(now, len(pkt), e.held == nil)
		if v.Drop {
			e.dropped++
			continue
		}
		buf := append([]byte(nil), pkt...)
		var deliverFirst, deliverSecond []byte
		switch {
		case e.held != nil:
			deliverFirst, deliverSecond = buf, e.held
			e.held = nil
		case v.Hold:
			e.held = buf
			if v.Duplicate {
				deliverFirst = append([]byte(nil), buf...)
			}
		default:
			deliverFirst = buf
			if v.Duplicate {
				deliverSecond = append([]byte(nil), buf...)
			}
		}
		if deliverFirst != nil || deliverSecond != nil {
			dels = append(dels, delivery{delay: v.Delay, first: deliverFirst, second: deliverSecond})
		}
	}
	peer := e.peer
	e.mu.Unlock()

	for _, d := range dels {
		d := d
		deliver := func() {
			if d.first != nil {
				peer.enqueue(d.first)
			}
			if d.second != nil {
				peer.enqueue(d.second)
			}
		}
		if d.delay > 0 {
			time.AfterFunc(d.delay, deliver)
		} else {
			deliver()
		}
	}
	return len(pkts), nil
}

func (e *endpoint) enqueue(pkt []byte) {
	// The non-blocking send happens under the lock so it cannot race
	// with Close closing the channel.
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	select {
	case e.inbox <- pkt:
	default:
		e.dropped++
	}
}

// Recv implements PacketConn.
func (e *endpoint) Recv() ([]byte, error) {
	pkt, ok := <-e.inbox
	if !ok {
		return nil, io.EOF
	}
	return pkt, nil
}

// Close implements PacketConn. Closing an endpoint unblocks its readers;
// the peer remains usable for draining.
func (e *endpoint) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	// Flush any held reorder slot to the peer before closing.
	if e.held != nil {
		held := e.held
		e.held = nil
		go e.peer.enqueue(held)
	}
	close(e.inbox)
	return nil
}

// Stats reports datagrams sent and dropped by this endpoint's shaping.
func (e *endpoint) Stats() (sent, dropped uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sent, e.dropped
}
