package appshare_test

import (
	"bytes"
	"image/color"
	"net"
	"strings"
	"testing"
	"time"

	"appshare"
	"appshare/internal/apps"
)

func settle() { time.Sleep(50 * time.Millisecond) }

// waitFor polls until cond returns true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestRealTCPLoopback runs a full session over a real TCP socket:
// share, draw, receive, click back, observe the application react.
func TestRealTCPLoopback(t *testing.T) {
	desk := appshare.NewDesktop(1024, 768)
	win := desk.CreateWindow(1, appshare.XYWH(100, 100, 400, 300))
	button := apps.NewButton(win, appshare.XYWH(20, 20, 140, 40), "Record")

	host, err := appshare.NewHost(appshare.HostConfig{Desktop: desk})
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = appshare.ServeTCP(host, ln, appshare.StreamOptions{UserID: 1}) }()

	p := appshare.NewParticipant(appshare.ParticipantConfig{})
	conn, err := appshare.DialTCP(p, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	waitFor(t, "initial window state", func() bool { return len(p.Windows()) == 1 })

	// The button's OFF color must have arrived with the initial state.
	waitFor(t, "initial pixels", func() bool {
		img := p.WindowImage(win.ID())
		return img != nil && img.RGBAAt(25, 25) == (color.RGBA{0xC8, 0x30, 0x30, 0xFF})
	})

	// Click the button (desktop coords: window at 100,100 + local 30,30).
	if err := conn.Click(win.ID(), 130, 130, appshare.ButtonLeft); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "button toggle", func() bool {
		if err := host.Tick(); err != nil { // input drains at ticks
			t.Fatal(err)
		}
		return button.On()
	})

	// The repaint flows back on the next tick.
	if err := host.Tick(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "toggled pixels", func() bool {
		img := p.WindowImage(win.ID())
		return img != nil && img.RGBAAt(25, 25) == (color.RGBA{0x30, 0xC8, 0x30, 0xFF})
	})
}

// TestRealUDPLoopback runs the Section 4.3 joining flow over real UDP.
func TestRealUDPLoopback(t *testing.T) {
	desk := appshare.NewDesktop(800, 600)
	win := desk.CreateWindow(1, appshare.XYWH(50, 50, 300, 200))
	editor := apps.NewEditor(win)

	host, err := appshare.NewHost(appshare.HostConfig{Desktop: desk, Retransmissions: true})
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()

	laddr, err := net.ResolveUDPAddr("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sock, err := net.ListenUDP("udp", laddr)
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	go func() { _ = appshare.ServeUDP(host, sock, appshare.PacketOptions{UserID: 2}) }()

	p := appshare.NewParticipant(appshare.ParticipantConfig{})
	conn, err := appshare.DialUDP(p, sock.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Join via PLI; the refresh is served on the next host tick.
	if err := conn.SendPLI(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "window state after PLI", func() bool {
		if err := host.Tick(); err != nil {
			t.Fatal(err)
		}
		return len(p.Windows()) == 1
	})

	// Type through HIP; the editor receives it.
	if err := conn.Type(win.ID(), "udp works"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "typed text", func() bool {
		if err := host.Tick(); err != nil {
			t.Fatal(err)
		}
		return editor.Text() == "udp works"
	})

	// Updates flow.
	if err := host.Tick(); err != nil {
		t.Fatal(err)
	}
	settle()
	if img := p.WindowImage(win.ID()); img == nil {
		t.Fatal("no window image over UDP")
	}
}

// TestSDPFacadeRoundtrip exercises the SDP helpers end to end.
func TestSDPFacadeRoundtrip(t *testing.T) {
	offer, err := appshare.BuildSDPOffer(appshare.SDPOffer{
		Address:         "127.0.0.1",
		RemotingPort:    6000,
		RemotingPT:      99,
		OfferUDP:        true,
		OfferTCP:        true,
		Retransmissions: true,
		HIPPort:         6006,
		HIPPT:           100,
		BFCPPort:        50000,
		HIPStream:       10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(offer, "remoting/90000") || !strings.Contains(offer, "hip/90000") {
		t.Fatalf("offer missing media:\n%s", offer)
	}
	sess, err := appshare.ParseSDPOffer(offer)
	if err != nil {
		t.Fatal(err)
	}
	if sess.RemotingUDPPort != 6000 || sess.HIPPort != 6006 || !sess.Retransmissions {
		t.Fatalf("session = %+v", sess)
	}
}

// TestSimulatedLinkFacade smoke-tests the simulated path helpers.
func TestSimulatedLinkFacade(t *testing.T) {
	desk := appshare.NewDesktop(640, 480)
	desk.CreateWindow(1, appshare.XYWH(10, 10, 200, 150))
	host, err := appshare.NewHost(appshare.HostConfig{Desktop: desk})
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()

	hostSide, partSide := appshare.SimulatedLink(appshare.LinkConfig{Seed: 1}, appshare.LinkConfig{Seed: 2})
	if _, err := host.AttachPacketConn("sim", hostSide, appshare.PacketOptions{}); err != nil {
		t.Fatal(err)
	}
	p := appshare.NewParticipant(appshare.ParticipantConfig{})
	conn := appshare.ConnectPacket(p, partSide)
	defer conn.Close()
	if err := conn.SendPLI(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "simulated link state", func() bool {
		if err := host.Tick(); err != nil {
			t.Fatal(err)
		}
		return len(p.Windows()) == 1
	})
}

// TestUDPAdapterRecvReturnsRetainableCopies: Recv reads every datagram
// into the adapter's one buffer, so what it returns must be a copy the
// caller can keep across later Recvs — and sized to the datagram, not
// to the 64 KiB read buffer.
func TestUDPAdapterRecvReturnsRetainableCopies(t *testing.T) {
	rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := net.DialUDP("udp", nil, rx.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	send := &appshare.UDPAdapter{Conn: tx}
	recv := &appshare.UDPAdapter{Conn: rx}
	first, second := bytes.Repeat([]byte{0xAA}, 900), bytes.Repeat([]byte{0x55}, 1100)
	if err := send.Send(first); err != nil {
		t.Fatal(err)
	}
	_ = rx.SetReadDeadline(time.Now().Add(5 * time.Second))
	got1, err := recv.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := send.Send(second); err != nil {
		t.Fatal(err)
	}
	got2, err := recv.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got1, first) {
		t.Fatal("first datagram was overwritten by the second Recv")
	}
	if !bytes.Equal(got2, second) {
		t.Fatal("second datagram corrupted")
	}
	if cap(got1) > 2*len(first) {
		t.Fatalf("a %d-byte datagram came back in a %d-byte allocation", len(first), cap(got1))
	}
}
