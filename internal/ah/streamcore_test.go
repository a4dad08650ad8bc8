package ah_test

import (
	"bytes"
	"errors"
	"image/color"
	"io"
	"testing"

	"appshare/internal/ah"
	"appshare/internal/display"
	"appshare/internal/region"
	"appshare/internal/relay"
	"appshare/internal/rtcp"
	"appshare/internal/rtp"
	"appshare/internal/stats"
	"appshare/internal/transport"
)

// streamOwner is one of the two things that send on a fanout.Stream,
// reduced to what the send-fault tables need.
type streamOwner struct {
	// send ships one fresh batch of several packets toward the conn and
	// returns what the owner's send path reports.
	send func() error
	// counters reads the stream's fresh-send counters.
	counters func() (packets, octets uint64)
	// nack delivers a NACK for seqs on the owner's feedback path.
	nack func(seqs []uint16)
}

// streamOwners attach a conn as an ah.Remote and as a relay.Viewer: the
// same stream core behind both, so every row must behave alike.
var streamOwners = []struct {
	name   string
	attach func(t *testing.T, conn transport.PacketConn) streamOwner
}{
	{"ah.Remote", func(t *testing.T, conn transport.PacketConn) streamOwner {
		desk := display.NewDesktop(1280, 1024)
		w := desk.CreateWindow(1, region.XYWH(220, 150, 350, 450))
		h, err := ah.New(ah.Config{Desktop: desk, Stats: stats.NewCollector(), Retransmissions: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close() })
		r, err := h.AttachPacketConn("fault", conn, ah.PacketOptions{})
		if err != nil {
			t.Fatal(err)
		}
		shade := uint8(0)
		return streamOwner{
			send: func() error {
				// Fresh damage large enough to fragment into several packets.
				shade += 40
				w.Fill(region.XYWH(0, 0, 300, 400), color.RGBA{R: shade, B: 255 - shade, A: 255})
				return h.Tick()
			},
			counters: func() (uint64, uint64) {
				hs := r.Health()
				return hs.SentPackets, hs.SentOctets
			},
			nack: func(seqs []uint16) { h.HandleFeedback(r, buildNACK(t, r.SSRC(), seqs)) },
		}
	}},
	{"relay.Viewer", func(t *testing.T, conn transport.PacketConn) streamOwner {
		rl := relay.New(relay.Config{StreamID: 3, Stats: stats.NewCollector()})
		t.Cleanup(func() { rl.Close() })
		v, err := rl.AttachPacketConn("fault", conn)
		if err != nil {
			t.Fatal(err)
		}
		batch := []ah.PreparedPayload{
			{Payload: bytes.Repeat([]byte{1}, 40), Kind: "WindowManagerInfo"},
			{Payload: bytes.Repeat([]byte{2}, 1100), Kind: "RegionUpdate"},
			{Payload: bytes.Repeat([]byte{3}, 700), Marker: true, Kind: "RegionUpdate"},
		}
		return streamOwner{
			send:     func() error { return rl.ForwardBatch(3, batch) },
			counters: func() (uint64, uint64) { return v.SentPackets(), v.SentOctets() },
			nack:     func(seqs []uint16) { rl.HandleFeedback(v, buildNACK(t, v.SSRC(), seqs)) },
		}
	}},
}

func buildNACK(t *testing.T, ssrc uint32, seqs []uint16) []byte {
	t.Helper()
	pkt, err := rtcp.Marshal(&rtcp.NACK{SenderSSRC: 1, MediaSSRC: ssrc, Pairs: rtcp.BuildNACKPairs(seqs)})
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

func wireOctets(pkts [][]byte) (n uint64) {
	for _, p := range pkts {
		n += uint64(len(p))
	}
	return n
}

// TestSendBatchShortCountSurfacesError plants a BatchSender that
// accepts only a prefix of the batch without reporting an error, and
// verifies the send path surfaces the shortfall instead of silently
// dropping the remainder — and that the stream's counters and
// retransmission log reconcile with what actually reached the wire.
func TestSendBatchShortCountSurfacesError(t *testing.T) {
	for _, o := range streamOwners {
		t.Run(o.name, func(t *testing.T) {
			conn := &ah.BatchFaultConn{FaultConn: ah.NewFaultConn(true)}
			owner := o.attach(t, conn)
			if err := owner.send(); err != nil {
				t.Fatal(err)
			}
			base, _ := owner.counters()
			if base == 0 || base != uint64(len(conn.Sent)) {
				t.Fatalf("clean send: counted %d packets, wire saw %d", base, len(conn.Sent))
			}

			conn.AcceptBatch = 1
			err := owner.send()
			if !errors.Is(err, io.ErrShortWrite) {
				t.Fatalf("short-count send: error = %v, want io.ErrShortWrite wrapped", err)
			}
			packets, octets := owner.counters()
			if packets != base+1 || int(packets) != len(conn.Sent) {
				t.Fatalf("counted %d packets (%d before), wire saw %d: the batch sender accepted 1", packets, base, len(conn.Sent))
			}
			if want := wireOctets(conn.Sent); octets != want {
				t.Fatalf("octet counter %d != wire octets %d", octets, want)
			}

			// Only accepted packets are resendable: of the accepted one and
			// the two stamped after it, a NACK brings back just the first.
			accepted := conn.Sent[len(conn.Sent)-1]
			var hdr rtp.Header
			if _, err := hdr.Unmarshal(accepted); err != nil {
				t.Fatal(err)
			}
			seq := hdr.SequenceNumber
			owner.nack([]uint16{seq, seq + 1, seq + 2})
			if got := len(conn.Sent) - int(packets); got != 1 {
				t.Fatalf("NACK of one accepted and two refused packets shipped %d retransmissions, want 1", got)
			}
			if !bytes.Equal(conn.Sent[len(conn.Sent)-1], accepted) {
				t.Fatal("retransmission differs from the datagram first sent")
			}
		})
	}
}

// TestSendMidBatchErrorReconciles plants a per-packet send failure in
// the middle of a batch and verifies the error propagates out of the
// send path while the counters cover exactly the accepted prefix.
func TestSendMidBatchErrorReconciles(t *testing.T) {
	for _, o := range streamOwners {
		t.Run(o.name, func(t *testing.T) {
			conn := ah.NewFaultConn(false)
			owner := o.attach(t, conn)
			if err := owner.send(); err != nil {
				t.Fatal(err)
			}
			base, _ := owner.counters()

			// Fail the second send of the coming batch.
			conn.FailAt = conn.Calls + 1
			if err := owner.send(); !errors.Is(err, ah.ErrPlanted) {
				t.Fatalf("send error = %v, want the planted failure", err)
			}
			packets, octets := owner.counters()
			if packets != base+1 || int(packets) != len(conn.Sent) {
				t.Fatalf("counted %d packets (%d before), wire saw %d: the failure was at index 1", packets, base, len(conn.Sent))
			}
			if want := wireOctets(conn.Sent); octets != want {
				t.Fatalf("octet counter %d != wire octets %d", octets, want)
			}
		})
	}
}
