package ah

import (
	"testing"

	"appshare/internal/region"
	"appshare/internal/rtcp"
	"appshare/internal/rtp"
)

// seqOf pulls the sequence number out of a raw RTP packet.
func seqOf(t *testing.T, pkt []byte) uint16 {
	t.Helper()
	var hdr rtp.Header
	if _, err := hdr.Unmarshal(pkt); err != nil {
		t.Fatal(err)
	}
	return hdr.SequenceNumber
}

// markEvicted reproduces sweepHealth's mark half of an eviction: the
// remote flagged closed and dropped from its shard map under the shard
// lock while sink teardown (finishEvictions) is still pending — the
// exact window feedback racing the sweep lands in.
func markEvicted(h *Host, r *Remote) {
	r.sh.Mu.Lock()
	if !r.closed {
		r.closed = true
		if _, ok := r.sh.remotes[r]; ok {
			delete(r.sh.remotes, r)
			r.sh.size.Add(-1)
			h.nRemotes.Add(-1)
		}
	}
	r.sh.Mu.Unlock()
}

func buildNACK(t *testing.T, r *Remote, seq uint16) []byte {
	t.Helper()
	pkt, err := rtcp.Marshal(&rtcp.NACK{
		SenderSSRC: 1,
		MediaSSRC:  r.SSRC(),
		Pairs:      rtcp.BuildNACKPairs([]uint16{seq}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

func buildPLI(t *testing.T, r *Remote) []byte {
	t.Helper()
	pkt, err := rtcp.Marshal(&rtcp.PLI{SenderSSRC: 1, MediaSSRC: r.SSRC()})
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// TestEvictedRemoteReceivesNoFeedbackService verifies the refresh-phase
// eviction race fix: feedback (NACK, PLI) and direct refresh requests
// landing between an eviction's mark and its sink teardown must produce
// no traffic toward — and no counters against — the evicted remote.
func TestEvictedRemoteReceivesNoFeedbackService(t *testing.T) {
	conn := NewFaultConn(false)
	h, w, r := attachFault(t, conn)

	seq := seqOf(t, conn.Sent[0])
	markEvicted(h, r)
	before := len(conn.Sent)

	// NACK in the race window: no retransmission.
	h.HandleFeedback(r, buildNACK(t, r, seq))
	if got := len(conn.Sent); got != before {
		t.Fatalf("NACK to evicted remote shipped %d packets", got-before)
	}

	// PLI in the race window: no refresh latched, so the next tick's
	// refresh phase sends nothing to it.
	h.HandleFeedback(r, buildPLI(t, r))
	w.Fill(region.XYWH(0, 0, 32, 32), blue)
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	if got := len(conn.Sent); got != before {
		t.Fatalf("evicted remote received %d packets after PLI+tick", got-before)
	}

	// Direct refresh request: absorbed.
	if err := h.RequestRefresh(r); err != nil {
		t.Fatal(err)
	}
	if got := len(conn.Sent); got != before {
		t.Fatalf("RequestRefresh on evicted remote shipped %d packets", got-before)
	}

	// A refresh latched before the eviction must not be served after it:
	// the mark wins regardless of which side latched first.
	r.sh.Mu.Lock()
	r.refreshRequested = true
	r.sh.Mu.Unlock()
	w.Fill(region.XYWH(0, 0, 16, 16), red)
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	if got := len(conn.Sent); got != before {
		t.Fatalf("refresh phase shipped %d packets to an evicted refresher", got-before)
	}
}

// TestEvictGateDebugKnobReplantsRace verifies DebugDisableEvictGates
// re-opens the fixed race — the knob the netsim mutation check uses to
// prove its oracle would catch a regression.
func TestEvictGateDebugKnobReplantsRace(t *testing.T) {
	conn := NewFaultConn(false)
	h, w := newHost(t, Config{Retransmissions: true, DebugDisableEvictGates: true})
	defer h.Close()
	r, err := h.AttachPacketConn("fault", conn, PacketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.Fill(region.XYWH(0, 0, 64, 64), red)
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	seq := seqOf(t, conn.Sent[0])
	markEvicted(h, r)
	before := len(conn.Sent)
	h.HandleFeedback(r, buildNACK(t, r, seq))
	if got := len(conn.Sent); got != before+1 {
		t.Fatalf("with gates disabled, NACK shipped %d packets, want 1 (race re-planted)", got-before)
	}
}
