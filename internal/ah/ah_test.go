package ah

import (
	"image/color"
	"io"
	"testing"
	"time"

	"appshare/internal/bfcp"
	"appshare/internal/display"
	"appshare/internal/framing"
	"appshare/internal/participant"
	"appshare/internal/region"
	"appshare/internal/stats"
	"appshare/internal/transport"
)

var (
	red  = color.RGBA{0xFF, 0, 0, 0xFF}
	blue = color.RGBA{0, 0, 0xFF, 0xFF}
)

// duplex glues two io.Pipes into a ReadWriteCloser pair.
type duplex struct {
	io.Reader
	io.Writer
	closeR func() error
	closeW func() error
}

func (d *duplex) Close() error {
	_ = d.closeW()
	return d.closeR()
}

// streamPair returns two connected in-memory stream endpoints.
func streamPair() (a, b io.ReadWriteCloser) {
	ar, bw := io.Pipe()
	br, aw := io.Pipe()
	a = &duplex{Reader: ar, Writer: aw, closeR: func() error { return ar.Close() }, closeW: func() error { return aw.Close() }}
	b = &duplex{Reader: br, Writer: bw, closeR: func() error { return br.Close() }, closeW: func() error { return bw.Close() }}
	return a, b
}

func newHost(t *testing.T, cfg Config) (*Host, *display.Window) {
	t.Helper()
	if cfg.Desktop == nil {
		cfg.Desktop = display.NewDesktop(1280, 1024)
	}
	w := cfg.Desktop.CreateWindow(1, region.XYWH(220, 150, 350, 450))
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h, w
}

// pump reads framed packets from a stream endpoint into a participant
// until EOF.
func pump(t *testing.T, p *participant.Participant, src io.Reader) <-chan struct{} {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fr := framing.NewReader(src)
		for {
			pkt, err := fr.ReadFrame()
			if err != nil {
				return
			}
			if err := p.HandlePacket(pkt); err != nil {
				t.Errorf("participant: %v", err)
			}
		}
	}()
	return done
}

// settle gives async pipes a moment to drain.
func settle() { time.Sleep(30 * time.Millisecond) }

func TestTCPSessionEndToEnd(t *testing.T) {
	h, w := newHost(t, Config{})
	defer h.Close()
	hostEnd, partEnd := streamPair()

	p := participant.New(participant.Config{})
	pumpDone := pump(t, p, partEnd)

	remote, err := h.AttachStream("p1", hostEnd, StreamOptions{UserID: 1})
	if err != nil {
		t.Fatal(err)
	}
	settle()

	// Initial state arrived: window exists with correct placement.
	if got := p.Windows(); len(got) != 1 || got[0] != w.ID() {
		t.Fatalf("participant windows = %v", got)
	}

	// Draw and tick: the region update must reach the participant's
	// window image at the right local position.
	w.Fill(region.XYWH(10, 20, 50, 40), red)
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	settle()
	img := p.WindowImage(w.ID())
	if img == nil {
		t.Fatal("no window image")
	}
	if got := img.RGBAAt(15, 25); got != red {
		t.Fatalf("pixel = %v, want red", got)
	}
	// White background from the initial refresh outside the fill.
	if got := img.RGBAAt(200, 400); got != (color.RGBA{0xFF, 0xFF, 0xFF, 0xFF}) {
		t.Fatalf("background pixel = %v", got)
	}

	// HIP path: participant clicks inside the window; the AH validates
	// and regenerates it (cursor moves, window raises).
	click, err := p.MousePress(w.ID(), 230, 160, 1)
	if err != nil {
		t.Fatal(err)
	}
	fw := framing.NewWriter(partEnd)
	if err := fw.WriteFrame(click); err != nil {
		t.Fatal(err)
	}
	settle()
	if err := h.Tick(); err != nil { // queued input drains at the tick
		t.Fatal(err)
	}
	cur := h.Desktop().Cursor()
	if cur.X != 230 || cur.Y != 160 {
		t.Fatalf("AH cursor = (%d,%d), want (230,160)", cur.X, cur.Y)
	}
	if h.HIPErrors() != 0 {
		t.Fatalf("HIP errors = %d", h.HIPErrors())
	}

	// Illegitimate event (outside the window) is rejected (Section 4.1).
	bad, err := p.MousePress(w.ID(), 10, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteFrame(bad); err != nil {
		t.Fatal(err)
	}
	settle()
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	if h.HIPErrors() != 1 {
		t.Fatalf("HIP errors = %d, want 1", h.HIPErrors())
	}

	_ = remote.Close()
	_ = partEnd.Close()
	<-pumpDone
}

func TestScrollTravelsAsMoveRectangle(t *testing.T) {
	col := stats.NewCollector()
	h, w := newHost(t, Config{Stats: col})
	defer h.Close()
	hostEnd, partEnd := streamPair()
	p := participant.New(participant.Config{})
	pump(t, p, partEnd)
	if _, err := h.AttachStream("p1", hostEnd, StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	settle()

	// Paint a stripe, let it propagate.
	w.Fill(region.XYWH(0, 100, 350, 10), blue)
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	settle()
	// Scroll up 50px.
	w.Scroll(region.XYWH(0, 0, 350, 450), -50, color.RGBA{0xFF, 0xFF, 0xFF, 0xFF})
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	settle()

	if got := col.Get("MoveRectangle"); got.Messages != 1 {
		t.Fatalf("MoveRectangle messages = %d, want 1", got.Messages)
	}
	img := p.WindowImage(w.ID())
	if got := img.RGBAAt(100, 55); got != blue {
		t.Fatalf("stripe after scroll = %v at y=55, want blue", got)
	}
}

// TestPLILateJoin covers the Section 4.3 UDP joining flow (E08).
func TestPLILateJoin(t *testing.T) {
	h, w := newHost(t, Config{})
	defer h.Close()

	// Activity before the participant joins.
	w.Fill(region.XYWH(0, 0, 100, 100), red)
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}

	hostConn, partConn := transport.Pipe(transport.LinkConfig{Seed: 1}, transport.LinkConfig{Seed: 2})
	p := participant.New(participant.Config{})
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for {
			pkt, err := partConn.Recv()
			if err != nil {
				return
			}
			_ = p.HandlePacket(pkt)
		}
	}()
	if _, err := h.AttachPacketConn("u1", hostConn, PacketOptions{UserID: 2}); err != nil {
		t.Fatal(err)
	}

	// No state pushed yet: UDP joiners must PLI first.
	settle()
	if len(p.Windows()) != 0 {
		t.Fatal("UDP participant should have nothing before PLI")
	}

	pli, err := p.BuildPLI()
	if err != nil {
		t.Fatal(err)
	}
	if err := partConn.Send(pli); err != nil {
		t.Fatal(err)
	}
	settle()
	if err := h.Tick(); err != nil { // refresh is served on the next tick
		t.Fatal(err)
	}
	// The pointer is the refresh's last message.
	waitFor(t, "the refresh to land", func() bool { _, _, known := p.Pointer(); return known })

	// Full state arrived: WindowManagerInfo + full screen + pointer.
	if got := p.Windows(); len(got) != 1 || got[0] != w.ID() {
		t.Fatalf("windows after PLI = %v", got)
	}
	img := p.WindowImage(w.ID())
	if got := img.RGBAAt(50, 50); got != red {
		t.Fatalf("pre-join content = %v, want red", got)
	}
	if _, _, known := p.Pointer(); !known {
		t.Fatal("late joiner must learn the pointer state")
	}
	partConn.Close()
	<-recvDone
}

// TestNACKRecovery covers Section 5.3.2 (E09): losses repaired by
// retransmission.
func TestNACKRecovery(t *testing.T) {
	h, w := newHost(t, Config{Retransmissions: true})
	defer h.Close()

	// 20% loss toward the participant; clean return path.
	hostConn, partConn := transport.Pipe(transport.LinkConfig{LossRate: 0.2, Seed: 99}, transport.LinkConfig{Seed: 2})
	p := participant.New(participant.Config{})
	go func() {
		for {
			pkt, err := partConn.Recv()
			if err != nil {
				return
			}
			_ = p.HandlePacket(pkt)
		}
	}()
	if _, err := h.AttachPacketConn("u1", hostConn, PacketOptions{}); err != nil {
		t.Fatal(err)
	}
	pli, err := p.BuildPLI()
	if err != nil {
		t.Fatal(err)
	}
	if err := partConn.Send(pli); err != nil {
		t.Fatal(err)
	}
	settle()
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	settle()

	// Generate traffic with losses.
	for i := 0; i < 30; i++ {
		w.Fill(region.XYWH(i*10, i*10, 30, 30), red)
		if err := h.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	settle()

	// NACK until the gap set drains (a couple of rounds may be needed
	// since retransmissions themselves can be lost).
	for round := 0; round < 20; round++ {
		nack, err := p.BuildNACK()
		if err != nil {
			t.Fatal(err)
		}
		if nack == nil {
			break
		}
		if err := partConn.Send(nack); err != nil {
			t.Fatal(err)
		}
		settle()
	}
	if missing := p.MissingSequences(); len(missing) != 0 {
		t.Fatalf("still missing %v after NACK rounds", missing)
	}
	partConn.Close()
}

// TestBacklogCoalescing covers the Section 7 implementation note (E11).
func TestBacklogCoalescing(t *testing.T) {
	h, w := newHost(t, Config{BacklogLimit: 2 << 10})
	defer h.Close()
	hostEnd, partEnd := streamPair()
	p := participant.New(participant.Config{})
	pump(t, p, partEnd)

	// 40 KB/s link: a full-window PNG refresh plus updates backlogs it.
	remote, err := h.AttachStream("slow", hostEnd, StreamOptions{BytesPerSecond: 40 << 10})
	if err != nil {
		t.Fatal(err)
	}

	// Rapidly-changing content: 30 ticks of alternating full-window
	// fills. A naive sender would queue every frame.
	colors := []color.RGBA{red, blue}
	for i := 0; i < 30; i++ {
		w.Fill(region.XYWH(0, 0, 350, 450), colors[i%2])
		if err := h.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if remote.Deferrals() == 0 {
		t.Fatal("slow link should have deferred some frames")
	}

	// Let the link drain and deliver the deferred final state.
	deadline := time.Now().Add(10 * time.Second)
	var got color.RGBA
	want := colors[1] // last fill color (i=29 odd → blue)
	for time.Now().Before(deadline) {
		if err := h.Tick(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond)
		img := p.WindowImage(w.ID())
		if img != nil {
			got = img.RGBAAt(175, 225)
			if got == want {
				break
			}
		}
	}
	if got != want {
		t.Fatalf("final pixel = %v, want %v (coalesced final state)", got, want)
	}
}

// TestMixedTransportFanout covers Section 4.2 (E12): TCP, UDP and
// multicast participants in one session.
func TestMixedTransportFanout(t *testing.T) {
	h, w := newHost(t, Config{})
	defer h.Close()

	// TCP participant.
	hostEnd, partEnd := streamPair()
	tcpP := participant.New(participant.Config{})
	pump(t, tcpP, partEnd)
	if _, err := h.AttachStream("tcp", hostEnd, StreamOptions{}); err != nil {
		t.Fatal(err)
	}

	// UDP participant.
	hostConn, partConn := transport.Pipe(transport.LinkConfig{Seed: 1}, transport.LinkConfig{Seed: 2})
	udpP := participant.New(participant.Config{})
	go func() {
		for {
			pkt, err := partConn.Recv()
			if err != nil {
				return
			}
			_ = udpP.HandlePacket(pkt)
		}
	}()
	if _, err := h.AttachPacketConn("udp", hostConn, PacketOptions{}); err != nil {
		t.Fatal(err)
	}

	// Two multicast group members.
	bus := transport.NewBus()
	var mcastPs []*participant.Participant
	for i := 0; i < 2; i++ {
		sub := bus.Subscribe(transport.LinkConfig{Seed: int64(i + 5)})
		mp := participant.New(participant.Config{})
		mcastPs = append(mcastPs, mp)
		go func() {
			for {
				pkt, err := sub.Recv()
				if err != nil {
					return
				}
				_ = mp.HandlePacket(pkt)
			}
		}()
	}
	mcastRemote, err := h.AttachMulticast("mcast", bus)
	if err != nil {
		t.Fatal(err)
	}

	// Kick everyone to full state: UDP PLI; multicast refresh via the
	// out-of-band path.
	pli, err := udpP.BuildPLI()
	if err != nil {
		t.Fatal(err)
	}
	if err := partConn.Send(pli); err != nil {
		t.Fatal(err)
	}
	if err := h.RequestRefresh(mcastRemote); err != nil {
		t.Fatal(err)
	}
	settle()
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	settle()

	w.Fill(region.XYWH(5, 5, 20, 20), blue)
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}

	for i, pp := range append([]*participant.Participant{tcpP, udpP}, mcastPs...) {
		// Poll: stream delivery is asynchronous and slower under -race.
		deadline := time.Now().Add(5 * time.Second)
		for {
			img := pp.WindowImage(w.ID())
			if img != nil && img.RGBAAt(10, 10) == blue {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("participant %d never saw the blue fill", i)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if h.Participants() != 3 {
		t.Fatalf("participants = %d, want 3 (mcast counts once)", h.Participants())
	}
}

// TestFloorControlGatesHIP covers Appendix A (E15): only the floor
// holder's events are regenerated.
func TestFloorControlGatesHIP(t *testing.T) {
	floor := bfcp.NewFloor(1, nil)
	h, w := newHost(t, Config{Floor: floor})
	defer h.Close()

	aEnd, aPart := streamPair()
	bEnd, bPart := streamPair()
	pa := participant.New(participant.Config{})
	pb := participant.New(participant.Config{})
	pump(t, pa, aPart)
	pump(t, pb, bPart)
	ra, err := h.AttachStream("a", aEnd, StreamOptions{UserID: 10})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := h.AttachStream("b", bEnd, StreamOptions{UserID: 11})
	if err != nil {
		t.Fatal(err)
	}
	settle()

	if err := floor.Request(10); err != nil { // user A holds the floor
		t.Fatal(err)
	}

	click, err := pa.MousePress(w.ID(), 230, 160, 1)
	if err != nil {
		t.Fatal(err)
	}
	fwA := framing.NewWriter(aPart)
	if err := fwA.WriteFrame(click); err != nil {
		t.Fatal(err)
	}
	settle()
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	if h.HIPErrors() != 0 {
		t.Fatalf("holder's event rejected: %d errors", h.HIPErrors())
	}

	// Non-holder B is rejected.
	click2, err := pb.MousePress(w.ID(), 230, 160, 1)
	if err != nil {
		t.Fatal(err)
	}
	fwB := framing.NewWriter(bPart)
	if err := fwB.WriteFrame(click2); err != nil {
		t.Fatal(err)
	}
	settle()
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	if h.HIPErrors() != 1 {
		t.Fatalf("non-holder event should be rejected: %d errors", h.HIPErrors())
	}

	// Keyboard blocked without revocation: holder types, gets rejected.
	floor.SetHIDStatus(bfcp.StateMouseAllowed)
	keys, err := pa.TypeText(w.ID(), "hello", 1200)
	if err != nil {
		t.Fatal(err)
	}
	if err := fwA.WriteFrame(keys[0]); err != nil {
		t.Fatal(err)
	}
	settle()
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	if h.HIPErrors() != 2 {
		t.Fatalf("blocked keyboard should be rejected: %d errors", h.HIPErrors())
	}

	// Closing the holder's connection releases the floor to nobody and
	// dequeues it.
	_ = ra.Close()
	settle()
	if holder, ok := floor.Holder(); ok {
		t.Fatalf("floor still held by %d after disconnect", holder)
	}
	_ = rb.Close()
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing desktop should fail")
	}
	d := display.NewDesktop(10, 10)
	if _, err := New(Config{Desktop: d, MTU: 5}); err == nil {
		t.Error("tiny MTU should fail")
	}
	if _, err := New(Config{Desktop: d, RemotingPT: 0xFF}); err == nil {
		t.Error("8-bit PT should fail")
	}
}
