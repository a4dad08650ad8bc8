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

// FaultConn is a PacketConn whose send path can be made to fail or
// short-count mid-batch. It records every packet actually accepted.
type FaultConn struct {
	// AcceptBatch, when >= 0, makes SendBatch accept only that many
	// packets and return nil error (the short-count defect shape).
	AcceptBatch int
	// FailAt, when >= 0, makes per-packet Send fail at that call index.
	FailAt int
	Calls  int
	Sent   [][]byte
	dead   chan struct{}
	batch  bool // expose SendBatch?
}

func NewFaultConn(batch bool) *FaultConn {
	return &FaultConn{AcceptBatch: -1, FailAt: -1, batch: batch, dead: make(chan struct{})}
}

var ErrPlanted = errors.New("planted send failure")

func (c *FaultConn) Send(pkt []byte) error {
	if c.FailAt >= 0 && c.Calls == c.FailAt {
		c.Calls++
		return ErrPlanted
	}
	c.Calls++
	c.Sent = append(c.Sent, append([]byte(nil), pkt...))
	return nil
}

// BatchFaultConn adds the SendBatch fast path on top of FaultConn.
type BatchFaultConn struct{ *FaultConn }

func (c *BatchFaultConn) SendBatch(pkts [][]byte) (int, error) {
	n := len(pkts)
	if c.AcceptBatch >= 0 && c.AcceptBatch < n {
		n = c.AcceptBatch
	}
	for _, p := range pkts[:n] {
		c.Sent = append(c.Sent, append([]byte(nil), p...))
	}
	if c.FailAt >= 0 {
		return n, ErrPlanted
	}
	return n, nil
}

func (c *FaultConn) Recv() ([]byte, error) {
	<-c.dead
	return nil, io.EOF
}

func (c *FaultConn) Close() error {
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

// TestPacketSinkChargesOnlyAcceptedPackets verifies the rate budget is
// charged after the send, for the accepted prefix only — a short send
// must not debit tokens for packets that never left.
func TestPacketSinkChargesOnlyAcceptedPackets(t *testing.T) {
	conn := &BatchFaultConn{NewFaultConn(true)}
	conn.AcceptBatch = 1
	now := time.Unix(1_700_000_000, 0)
	s := &packetSink{conn: transport.Batch(conn), rate: 10_000, now: func() time.Time { return now }}

	pkts := [][]byte{make([]byte, 100), make([]byte, 200), make([]byte, 300)}
	n, err := s.SendBatch(pkts)
	if n != 1 || err != nil {
		t.Fatalf("SendBatch = (%d, %v), want (1, nil)", n, err)
	}
	want := float64(10_000) - 100 // full bucket minus the one accepted packet
	if s.tokens != want {
		t.Fatalf("tokens = %v, want %v (charged for accepted prefix only)", s.tokens, want)
	}

	// A send error after k accepted packets charges exactly those k.
	fresh := NewFaultConn(false)
	fresh.FailAt = 1
	s2 := &packetSink{conn: transport.Batch(fresh), rate: 10_000, now: func() time.Time { return now }}
	n, err = s2.SendBatch(pkts)
	if n != 1 || !errors.Is(err, ErrPlanted) {
		t.Fatalf("SendBatch = (%d, %v), want (1, planted)", n, err)
	}
	if want := float64(10_000) - 100; s2.tokens != want {
		t.Fatalf("tokens = %v, want %v", s2.tokens, want)
	}
}
