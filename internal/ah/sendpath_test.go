package ah

import (
	"errors"
	"io"
	"testing"
	"time"

	"appshare/internal/display"
	"appshare/internal/region"
	"appshare/internal/stats"
	"appshare/internal/transport"
)

// faultConn is a PacketConn whose send path can be made to fail or
// short-count mid-batch. It records every packet actually accepted.
type faultConn struct {
	// acceptBatch, when >= 0, makes SendBatch accept only that many
	// packets and return nil error (the short-count defect shape).
	acceptBatch int
	// failAt, when >= 0, makes per-packet Send fail at that call index.
	failAt int
	calls  int
	sent   [][]byte
	dead   chan struct{}
	batch  bool // expose SendBatch?
}

func newFaultConn(batch bool) *faultConn {
	return &faultConn{acceptBatch: -1, failAt: -1, batch: batch, dead: make(chan struct{})}
}

var errPlanted = errors.New("planted send failure")

func (c *faultConn) Send(pkt []byte) error {
	if c.failAt >= 0 && c.calls == c.failAt {
		c.calls++
		return errPlanted
	}
	c.calls++
	c.sent = append(c.sent, append([]byte(nil), pkt...))
	return nil
}

// batchFaultConn adds the SendBatch fast path on top of faultConn.
type batchFaultConn struct{ *faultConn }

func (c *batchFaultConn) SendBatch(pkts [][]byte) (int, error) {
	n := len(pkts)
	if c.acceptBatch >= 0 && c.acceptBatch < n {
		n = c.acceptBatch
	}
	for _, p := range pkts[:n] {
		c.sent = append(c.sent, append([]byte(nil), p...))
	}
	if c.failAt >= 0 {
		return n, errPlanted
	}
	return n, nil
}

func (c *faultConn) Recv() ([]byte, error) {
	<-c.dead
	return nil, io.EOF
}

func (c *faultConn) Close() error {
	select {
	case <-c.dead:
	default:
		close(c.dead)
	}
	return nil
}

// attachFault attaches a faulting UDP remote to a fresh host and ships
// one clean tick so subsequent deltas are small, known batches.
func attachFault(t *testing.T, conn transport.PacketConn) (*Host, *display.Window, *Remote) {
	t.Helper()
	st := stats.NewCollector()
	h, w := newHost(t, Config{Stats: st, Retransmissions: true})
	t.Cleanup(func() { h.Close() })
	r, err := h.AttachPacketConn("fault", conn, PacketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.Fill(region.XYWH(0, 0, 64, 64), red)
	if tickErr := h.Tick(); tickErr != nil {
		t.Fatal(tickErr)
	}
	return h, w, r
}

func remoteCounters(r *Remote) (packets, octets uint64, logged int) {
	r.sh.mu.Lock()
	defer r.sh.mu.Unlock()
	return r.sentPackets, r.sentOctets, r.retrans.Len()
}

// TestSendBatchShortCountSurfacesError plants a BatchSender that
// accepts only a prefix of the batch without reporting an error, and
// verifies the send path surfaces the shortfall instead of silently
// dropping the remainder — and that the per-remote counters reconcile
// with what actually reached the wire.
func TestSendBatchShortCountSurfacesError(t *testing.T) {
	conn := &batchFaultConn{newFaultConn(true)}
	h, w, r := attachFault(t, conn)
	sent := func() [][]byte { return conn.sent }

	base, _, baseLogged := remoteCounters(r)
	wire := len(sent())
	if base != uint64(wire) {
		t.Fatalf("clean tick: counted %d packets, wire saw %d", base, wire)
	}

	// Short-count the next tick's batch at 1 packet (the damage below
	// fragments into several).
	conn.acceptBatch = 1
	w.Fill(region.XYWH(0, 0, 300, 400), blue)
	err := h.Tick()
	if err == nil {
		t.Fatal("short-count send reported no error")
	}
	if !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("error = %v, want io.ErrShortWrite wrapped", err)
	}

	packets, octets, logged := remoteCounters(r)
	wireNow := sent()
	if packets != base+1 {
		t.Fatalf("counted %d new packets, wire accepted 1", packets-base)
	}
	if int(packets) != len(wireNow) {
		t.Fatalf("counter/wire mismatch: counted %d, wire %d", packets, len(wireNow))
	}
	var wireOctets uint64
	for _, p := range wireNow {
		wireOctets += uint64(len(p))
	}
	if octets != wireOctets {
		t.Fatalf("octet counter %d != wire octets %d", octets, wireOctets)
	}
	if logged != baseLogged+1 {
		t.Fatalf("retransmission log grew by %d, want 1 (only accepted packets are resendable)", logged-baseLogged)
	}
}

// TestSendMidBatchErrorReconciles plants a per-packet send failure in
// the middle of a batch and verifies the error propagates out of Tick
// while the counters cover exactly the accepted prefix.
func TestSendMidBatchErrorReconciles(t *testing.T) {
	conn := newFaultConn(false)
	h, w, r := attachFault(t, conn)
	sent := func() [][]byte { return conn.sent }

	base, _, _ := remoteCounters(r)
	// Large damage fragments into several packets; fail the second send
	// of the coming tick.
	conn.failAt = conn.calls + 1
	w.Fill(region.XYWH(0, 0, 300, 400), blue)
	err := h.Tick()
	if !errors.Is(err, errPlanted) {
		t.Fatalf("Tick error = %v, want the planted failure", err)
	}
	packets, octets, _ := remoteCounters(r)
	wire := sent()
	if int(packets) != len(wire) {
		t.Fatalf("counted %d packets, wire saw %d", packets, len(wire))
	}
	if packets != base+1 {
		t.Fatalf("accepted prefix = %d packets, want 1 (failure at index 1)", packets-base)
	}
	var wireOctets uint64
	for _, p := range wire {
		wireOctets += uint64(len(p))
	}
	if octets != wireOctets {
		t.Fatalf("octet counter %d != wire octets %d", octets, wireOctets)
	}
}

// TestPacketSinkChargesOnlyAcceptedPackets verifies the rate budget is
// charged after the send, for the accepted prefix only — a short send
// must not debit tokens for packets that never left.
func TestPacketSinkChargesOnlyAcceptedPackets(t *testing.T) {
	conn := &batchFaultConn{newFaultConn(true)}
	conn.acceptBatch = 1
	now := time.Unix(1_700_000_000, 0)
	s := &packetSink{conn: conn, batch: conn, rate: 10_000, now: func() time.Time { return now }}

	pkts := [][]byte{make([]byte, 100), make([]byte, 200), make([]byte, 300)}
	n, err := s.shipBatch(pkts)
	if n != 1 || err != nil {
		t.Fatalf("shipBatch = (%d, %v), want (1, nil)", n, err)
	}
	want := float64(10_000) - 100 // full bucket minus the one accepted packet
	if s.tokens != want {
		t.Fatalf("tokens = %v, want %v (charged for accepted prefix only)", s.tokens, want)
	}

	// A send error after k accepted packets charges exactly those k.
	fresh := newFaultConn(false)
	fresh.failAt = 1
	s2 := &packetSink{conn: fresh, rate: 10_000, now: func() time.Time { return now }}
	n, err = s2.shipBatch(pkts)
	if n != 1 || !errors.Is(err, errPlanted) {
		t.Fatalf("shipBatch = (%d, %v), want (1, planted)", n, err)
	}
	if want := float64(10_000) - 100; s2.tokens != want {
		t.Fatalf("tokens = %v, want %v", s2.tokens, want)
	}
}
