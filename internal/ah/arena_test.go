package ah

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"appshare/internal/display"
	"appshare/internal/region"
	"appshare/internal/rtcp"
	"appshare/internal/rtp"
	"appshare/internal/transport"
	"appshare/internal/workload"
)

// parkedConn is the receive half shared by the test conns below: the
// viewer never speaks, so the host's feedback pump parks until Close.
type parkedConn struct {
	once sync.Once
	dead chan struct{}
}

func newParkedConn() parkedConn { return parkedConn{dead: make(chan struct{})} }

func (c *parkedConn) Recv() ([]byte, error) {
	<-c.dead
	return nil, io.EOF
}

func (c *parkedConn) Close() error {
	c.once.Do(func() { close(c.dead) })
	return nil
}

// discardConn accepts and drops: all that is left of a send is the
// host's own per-viewer work.
type discardConn struct{ parkedConn }

func (c *discardConn) Send([]byte) error                    { return nil }
func (c *discardConn) SendBatch(pkts [][]byte) (int, error) { return len(pkts), nil }

// scribbleConn "sends" a datagram and then overwrites every byte of it —
// what the arena holds once a send has returned is garbage. It breaks
// the PacketConn buffer contract on purpose: whatever one viewer's send
// leaves behind must never show up in another viewer's datagram.
type scribbleConn struct{ parkedConn }

func (c *scribbleConn) Send(pkt []byte) error {
	for i := range pkt {
		pkt[i] = 0xEE
	}
	return nil
}

func (c *scribbleConn) SendBatch(pkts [][]byte) (int, error) {
	for i, pkt := range pkts {
		_ = c.Send(pkt)
		pkts[i] = nil
	}
	return len(pkts), nil
}

// transcriptConn records every datagram it is handed, copied, in order.
type transcriptConn struct {
	parkedConn
	pkts [][]byte
}

func (c *transcriptConn) Send(pkt []byte) error {
	c.pkts = append(c.pkts, append([]byte(nil), pkt...))
	return nil
}

func (c *transcriptConn) SendBatch(pkts [][]byte) (int, error) {
	for _, pkt := range pkts {
		_ = c.Send(pkt)
	}
	return len(pkts), nil
}

// runArenaSession drives one deterministic session on a single shard —
// three neighbours built by mkNeighbour plus one recording remote, in a
// fixed attach order — through ticks, an extension broadcast and a NACK
// for the recorder's first packets, and returns the recorder's
// transcript.
func runArenaSession(t *testing.T, mkNeighbour func() transport.PacketConn) [][]byte {
	t.Helper()
	clock := newFakeClock()
	seed := uint32(0x9E3779B9)
	entropy := func() uint32 {
		seed = seed*1664525 + 1013904223
		return seed
	}
	desk := display.NewDesktop(320, 240)
	win := desk.CreateWindow(1, region.XYWH(10, 10, 220, 160))
	h, err := New(Config{
		Desktop:         desk,
		Now:             clock.Now,
		Entropy:         entropy,
		SendShards:      1,
		Retransmissions: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	rec := &transcriptConn{parkedConn: newParkedConn()}
	var recorder *Remote
	for i := 0; i < 4; i++ {
		conn := transport.PacketConn(rec)
		if i != 2 {
			conn = mkNeighbour()
		}
		r, err := h.AttachPacketConn(fmt.Sprintf("v%d", i), conn, PacketOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			recorder = r
		}
		if err := h.RequestRefresh(r); err != nil {
			t.Fatal(err)
		}
	}

	ty := workload.NewTyping(win, 96, 11)
	for step := 0; step < 8; step++ {
		ty.Step()
		clock.Advance(100 * time.Millisecond)
		if err := h.Tick(); err != nil {
			t.Fatal(err)
		}
		if step == 3 {
			if err := h.BroadcastExtension([]byte{0x7F, 0, 0, 0, 'e', 'x', 't'}); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The shard lock orders the test's reads after the host's sends.
	recorder.sh.Mu.Lock()
	sent := len(rec.pkts)
	var lost []uint16
	for _, pkt := range rec.pkts[:3] {
		var hdr rtp.Header
		if _, err := hdr.Unmarshal(pkt); err != nil {
			t.Fatal(err)
		}
		lost = append(lost, hdr.SequenceNumber)
	}
	recorder.sh.Mu.Unlock()
	nack, err := rtcp.Marshal(&rtcp.NACK{SenderSSRC: 7, MediaSSRC: recorder.SSRC(), Pairs: rtcp.BuildNACKPairs(lost)})
	if err != nil {
		t.Fatal(err)
	}
	h.HandleFeedback(recorder, nack)

	recorder.sh.Mu.Lock()
	defer recorder.sh.Mu.Unlock()
	if got := len(rec.pkts) - sent; got != len(lost) {
		t.Fatalf("NACK for %d logged packets was answered with %d", len(lost), got)
	}
	for i, re := range rec.pkts[sent:] {
		if !bytes.Equal(re, rec.pkts[i]) {
			t.Fatalf("retransmission of seq %d differs from the datagram first sent\n got %x\nwant %x", lost[i], re, rec.pkts[i])
		}
	}
	return rec.pkts
}

// TestArenaIsolationScribblingNeighbours: every send on a shard is
// stamped into one reused arena. Neighbours whose conns trash their
// datagrams after "sending" them must leave a recording remote on the
// same shard with exactly the transcript it gets beside well-behaved
// neighbours — no header or payload byte of one viewer's batch survives
// into another's, on the tick, broadcast, refresh or NACK path.
func TestArenaIsolationScribblingNeighbours(t *testing.T) {
	clean := runArenaSession(t, func() transport.PacketConn { return &discardConn{newParkedConn()} })
	dirty := runArenaSession(t, func() transport.PacketConn { return &scribbleConn{newParkedConn()} })
	if len(clean) == 0 {
		t.Fatal("control session sent the recorder nothing")
	}
	if len(clean) != len(dirty) {
		t.Fatalf("recorder got %d datagrams beside scribbling neighbours, %d beside clean ones", len(dirty), len(clean))
	}
	for i := range clean {
		if !bytes.Equal(clean[i], dirty[i]) {
			t.Fatalf("datagram %d differs beside scribbling neighbours\n got %x\nwant %x", i, dirty[i], clean[i])
		}
	}
}

// fanoutAllocsPerTick reports the allocations one Tick of a small typing
// step costs with the given number of discard viewers attached.
func fanoutAllocsPerTick(t *testing.T, viewers int, cfg Config) float64 {
	t.Helper()
	desk := display.NewDesktop(320, 240)
	win := desk.CreateWindow(1, region.XYWH(10, 10, 220, 160))
	cfg.Desktop = desk
	cfg.SendShards = 1 // inline fan-out: the count excludes goroutine handoff noise
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for i := 0; i < viewers; i++ {
		r, err := h.AttachPacketConn(fmt.Sprintf("v%d", i), &discardConn{newParkedConn()}, PacketOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.RequestRefresh(r); err != nil {
			t.Fatal(err)
		}
	}
	ty := workload.NewTyping(win, 96, 11)
	step := func() {
		ty.Step()
		if err := h.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: the arena reaches the batch size and every retransmission
	// ring its bound.
	for i := 0; i < 40; i++ {
		step()
	}
	return testing.AllocsPerRun(50, step)
}

// TestFanoutAllocatesNothingPerViewer is the regression gate of the
// allocation-free send path: what a tick allocates must not depend on
// how many viewers it fans out to. With retransmissions on, the ring at
// its bound logs payload references — still nothing per packet.
func TestFanoutAllocatesNothingPerViewer(t *testing.T) {
	const viewers = 256
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"retransmissions off", Config{}},
		{"retransmissions on", Config{Retransmissions: true, RetransLog: 16}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			one := fanoutAllocsPerTick(t, 1, tc.cfg)
			many := fanoutAllocsPerTick(t, viewers, tc.cfg)
			perViewer := (many - one) / (viewers - 1)
			t.Logf("allocs/tick: %.1f with 1 viewer, %.1f with %d: %.3f per viewer", one, many, viewers, perViewer)
			// Exactly 0 in a plain build; the race detector's own
			// bookkeeping shows up as a few allocations per tick.
			if perViewer > 0.1 {
				t.Fatalf("a tick allocates %.3f times per viewer, want 0", perViewer)
			}
		})
	}
}

// sameSliceForwarder checks that what it is handed is the prepared
// batch's own slice.
type sameSliceForwarder struct {
	t    *testing.T
	want []PreparedPayload
}

func (f sameSliceForwarder) ForwardBatch(_ uint32, msgs []PreparedPayload) error {
	if len(msgs) != len(f.want) || &msgs[0] != &f.want[0] {
		f.t.Error("forwarder was handed a copy of the prepared batch")
	}
	return nil
}

func (f sameSliceForwarder) ForwardRefresh(id uint32, msgs []PreparedPayload) error {
	return f.ForwardBatch(id, msgs)
}

// TestForwardersGetThePreparedBatchItself: publishing a tick or a
// refresh to forwarders hands over the slice the local fan-out used,
// without allocating. (Measured on the publish step: the encode pool
// makes a whole Tick's count vary by an allocation or two run to run,
// and what a subscribed Tick adds on top is its one snapshot of the
// forwarder set.)
func TestForwardersGetThePreparedBatchItself(t *testing.T) {
	h, _ := newHost(t, Config{})
	defer h.Close()
	prep := &preparedBatch{msgs: []PreparedPayload{
		{Payload: []byte{1, 2, 3, 4}, Kind: "WindowManagerInfo"},
		{Payload: bytes.Repeat([]byte{2}, 900), Marker: true, Kind: "RegionUpdate"},
	}}
	fwds := []Forwarder{sameSliceForwarder{t, prep.msgs}, sameSliceForwarder{t, prep.msgs}}
	allocs := testing.AllocsPerRun(100, func() {
		if err := h.forwardBatch(fwds, prep); err != nil {
			t.Fatal(err)
		}
		if err := h.forwardRefresh(fwds, prep); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("publishing a batch and a refresh to two forwarders allocates %.1f times, want 0", allocs)
	}
}

// TestSnapshotRestoreNACKIdentity: the retransmission log holds payload
// references and header fields, the snapshot carries whole datagrams, and
// a restored host parses them back. Every datagram the original host
// sent and still logged must come back byte-equal from a NACK served by
// the restored host — through the serialized form, so the entry format
// is pinned too.
func TestSnapshotRestoreNACKIdentity(t *testing.T) {
	clock := newFakeClock()
	seed := uint32(42)
	entropy := func() uint32 {
		seed = seed*1664525 + 1013904223
		return seed
	}
	mkHost := func(ent func() uint32) (*Host, *display.Window) {
		desk := display.NewDesktop(320, 240)
		win := desk.CreateWindow(1, region.XYWH(10, 10, 220, 160))
		h, err := New(Config{Desktop: desk, Now: clock.Now, Entropy: ent, Retransmissions: true, RetransLog: 32})
		if err != nil {
			t.Fatal(err)
		}
		return h, win
	}
	hostA, win := mkHost(entropy)
	defer hostA.Close()
	recA := &transcriptConn{parkedConn: newParkedConn()}
	rA, err := hostA.AttachPacketConn("v", recA, PacketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := hostA.RequestRefresh(rA); err != nil {
		t.Fatal(err)
	}
	ty := workload.NewTyping(win, 96, 5)
	for i := 0; i < 12; i++ {
		ty.Step()
		clock.Advance(33 * time.Millisecond)
		if err := hostA.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	rA.sh.Mu.Lock()
	sent := recA.pkts
	rA.sh.Mu.Unlock()
	if len(sent) <= 32 {
		t.Fatalf("session sent %d packets; the test needs more than the log's 32 to see eviction", len(sent))
	}

	snap, err := hostA.SnapshotSession()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := snap.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := UnmarshalSessionSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	logged := decoded.Remotes[0].Retrans
	if len(logged) != 32 {
		t.Fatalf("snapshot carries %d log entries, want the bound of 32", len(logged))
	}
	for i, e := range logged {
		if want := sent[len(sent)-32+i]; !bytes.Equal(e.Pkt, want) {
			t.Fatalf("snapshot log entry %d (seq %d) is not the datagram sent\n got %x\nwant %x", i, e.Seq, e.Pkt, want)
		}
	}

	hostB, _ := mkHost(func() uint32 { panic("restored host drew entropy") })
	defer hostB.Close()
	if err := hostB.RestoreSession(decoded); err != nil {
		t.Fatal(err)
	}
	recB := &transcriptConn{parkedConn: newParkedConn()}
	rB, err := hostB.ResumePacketConn("v", recB, PacketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint16
	for _, e := range logged {
		seqs = append(seqs, e.Seq)
	}
	// One evicted sequence rides along: it must be skipped, not invented.
	var evicted rtp.Header
	if _, err := evicted.Unmarshal(sent[0]); err != nil {
		t.Fatal(err)
	}
	for len(seqs) > 0 {
		n := min(len(seqs), 8)
		nack, err := rtcp.Marshal(&rtcp.NACK{
			SenderSSRC: 7, MediaSSRC: rB.SSRC(),
			Pairs: rtcp.BuildNACKPairs(append([]uint16{evicted.SequenceNumber}, seqs[:n]...)),
		})
		if err != nil {
			t.Fatal(err)
		}
		hostB.HandleFeedback(rB, nack)
		seqs = seqs[n:]
	}
	rB.sh.Mu.Lock()
	defer rB.sh.Mu.Unlock()
	if len(recB.pkts) != len(logged) {
		t.Fatalf("restored host answered with %d retransmissions, want %d", len(recB.pkts), len(logged))
	}
	for i, got := range recB.pkts {
		if !bytes.Equal(got, logged[i].Pkt) {
			t.Fatalf("retransmission %d (seq %d) from the restored host differs\n got %x\nwant %x", i, logged[i].Seq, got, logged[i].Pkt)
		}
	}
}
