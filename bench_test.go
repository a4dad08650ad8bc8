// Benchmarks for every experiment in DESIGN.md's per-experiment index.
// Each BenchmarkEnn target measures the hot path behind the
// corresponding table/figure reproduction.
package appshare_test

import (
	"bytes"
	"testing"
	"time"

	"appshare"
	"appshare/internal/benchsuite"
	"appshare/internal/bfcp"
	"appshare/internal/core"
	"appshare/internal/framing"
	"appshare/internal/hip"
	"appshare/internal/keycodes"
	"appshare/internal/region"
	"appshare/internal/remoting"
	"appshare/internal/rtcp"
	"appshare/internal/rtp"
	"appshare/internal/sdp"
	"appshare/internal/wire"
)

// BenchmarkE01HeaderCodec measures the common remoting/HIP header
// (Figure 7) encode+decode path every packet traverses.
func BenchmarkE01HeaderCodec(b *testing.B) {
	w := wire.NewWriter(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := wire.NewWriter(4)
		core.Header{Type: core.TypeRegionUpdate, Parameter: 0x85, WindowID: 3}.AppendTo(w)
		if _, _, err := core.ParseHeader(w.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
	_ = w
}

// BenchmarkE02WMInfoCodec measures WindowManagerInfo (Figures 8/9)
// marshal + decode for a 10-window desktop.
func BenchmarkE02WMInfoCodec(b *testing.B) {
	msg := &remoting.WindowManagerInfo{}
	for i := 0; i < 10; i++ {
		msg.Windows = append(msg.Windows, remoting.WindowRecord{
			WindowID: uint16(i + 1),
			GroupID:  uint8(i % 3),
			Bounds:   region.XYWH(i*50, i*40, 400, 300),
		})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, err := msg.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := remoting.DecodePayload(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE07HIPCodec measures HIP event (Table 3) marshal+unmarshal.
func BenchmarkE07HIPCodec(b *testing.B) {
	events := []hip.Event{
		&hip.MousePressed{WindowID: 1, Button: 1, Left: 640, Top: 480},
		&hip.MouseMoved{WindowID: 1, Left: 641, Top: 481},
		&hip.MouseWheelMoved{WindowID: 1, Left: 641, Top: 481, Distance: -120},
		&hip.KeyPressed{WindowID: 1, KeyCode: keycodes.VKF1},
		&hip.KeyTyped{WindowID: 1, Text: "hello"},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := events[i%len(events)]
		buf, err := hip.Marshal(e)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := hip.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE09NACKRecovery measures NACK construction + pair expansion +
// retransmit log lookups for a 10%-loss pattern over 1000 packets.
func BenchmarkE09NACKRecovery(b *testing.B) {
	var lost []uint16
	for s := uint16(0); s < 1000; s++ {
		if s%10 == 3 {
			lost = append(lost, s)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pairs := rtcp.BuildNACKPairs(lost)
		n := &rtcp.NACK{SenderSSRC: 1, MediaSSRC: 2, Pairs: pairs}
		buf, err := rtcp.Marshal(n)
		if err != nil {
			b.Fatal(err)
		}
		pkts, err := rtcp.Unmarshal(buf)
		if err != nil {
			b.Fatal(err)
		}
		if got := pkts[0].(*rtcp.NACK).Lost(); len(got) != len(lost) {
			b.Fatalf("lost %d != %d", len(got), len(lost))
		}
	}
}

// BenchmarkE13Registry measures message type registry classification
// (Tables 1/3/4/5).
func BenchmarkE13Registry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for t := core.MessageType(0); t < 130; t++ {
			_ = t.IsRemoting()
			_ = t.IsHIP()
		}
	}
}

// BenchmarkE14SDP measures offer generation + parsing (Section 10).
func BenchmarkE14SDP(b *testing.B) {
	cfg := sdp.OfferConfig{
		RemotingPort: 6000, RemotingPT: 99, OfferUDP: true, OfferTCP: true,
		Retransmissions: true, HIPPort: 6006, HIPPT: 100, BFCPPort: 50000, HIPStream: 10,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := sdp.BuildOffer(cfg)
		if err != nil {
			b.Fatal(err)
		}
		parsed, err := sdp.Parse(d.Marshal())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sdp.ParseOffer(parsed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE15Floor measures a full request-grant-release floor cycle
// with one queued waiter (Appendix A).
func BenchmarkE15Floor(b *testing.B) {
	floor := bfcp.NewFloor(1, func(uint16, *bfcp.Message) {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := floor.Request(1); err != nil {
			b.Fatal(err)
		}
		if err := floor.Request(2); err != nil {
			b.Fatal(err)
		}
		if err := floor.Release(1); err != nil {
			b.Fatal(err)
		}
		if err := floor.Release(2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE16RTPHeader measures RTP header marshal+unmarshal
// (Section 5.1.1 usage rules ride on this path).
func BenchmarkE16RTPHeader(b *testing.B) {
	pz := rtp.NewPacketizer(1234, 99, time.Now())
	payload := bytes.Repeat([]byte{1}, 1000)
	now := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pkt := pz.Packetize(payload, i%5 == 0, now)
		raw, err := pkt.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		var back rtp.Packet
		if err := back.Unmarshal(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE17Framing measures RFC 4571 framing throughput for
// MTU-sized packets.
func BenchmarkE17Framing(b *testing.B) {
	var buf bytes.Buffer
	w := framing.NewWriter(&buf)
	pkt := bytes.Repeat([]byte{7}, 1200)
	b.SetBytes(int64(len(pkt)))
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := w.WriteFrame(pkt); err != nil {
			b.Fatal(err)
		}
		r := framing.NewReader(&buf)
		if _, err := r.ReadFrame(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE18Validate measures the Section 4.1 HIP legitimacy check
// against a 10-window shared set.
func BenchmarkE18Validate(b *testing.B) {
	desk := appshare.NewDesktop(1280, 1024)
	for i := 0; i < 10; i++ {
		desk.CreateWindow(1, appshare.XYWH(i*100, i*60, 300, 200))
	}
	host, err := appshare.NewHost(appshare.HostConfig{Desktop: desk})
	if err != nil {
		b.Fatal(err)
	}
	defer host.Close()
	hostSide, partSide := appshare.SimulatedLink(appshare.LinkConfig{Seed: 1}, appshare.LinkConfig{Seed: 2})
	remote, err := host.AttachPacketConn("p", hostSide, appshare.PacketOptions{})
	if err != nil {
		b.Fatal(err)
	}
	go func() {
		for {
			if _, err := partSide.Recv(); err != nil {
				return
			}
		}
	}()
	ev := &hip.MouseMoved{WindowID: 10, Left: 950, Top: 600}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := host.InjectEvent(remote, ev); err != nil {
			b.Fatal(err)
		}
	}
}

// The benchmarks cmd/ads-bench records in BENCH_baseline.json and gates
// CI on live in internal/benchsuite, sub-benchmark names included
// (mtu-1200, rects-8/parallel, ...), so both entry points run the same
// bodies.

func BenchmarkE03Fragmentation(b *testing.B)  { benchsuite.RunGroup(b, "E03Fragmentation") }
func BenchmarkE04Scroll(b *testing.B)         { benchsuite.RunGroup(b, "E04Scroll") }
func BenchmarkE08LateJoin(b *testing.B)       { benchsuite.RunGroup(b, "E08LateJoin") }
func BenchmarkE10Codecs(b *testing.B)         { benchsuite.RunGroup(b, "E10Codecs") }
func BenchmarkE11Backlog(b *testing.B)        { benchsuite.RunGroup(b, "E11Backlog") }
func BenchmarkE19ParallelEncode(b *testing.B) { benchsuite.RunGroup(b, "E19ParallelEncode") }
func BenchmarkE20RefreshCache(b *testing.B)   { benchsuite.RunGroup(b, "E20RefreshCache") }
func BenchmarkE21LadderTiers(b *testing.B)    { benchsuite.RunGroup(b, "E21LadderTiers") }
func BenchmarkE22ShardedFanout(b *testing.B)  { benchsuite.RunGroup(b, "E22ShardedFanout") }
