package ah

import (
	"bytes"
	"image"
	"testing"
	"time"

	"appshare/internal/participant"
	"appshare/internal/region"
)

// TestPinnedScaledLateJoinerInitialPushIsDegraded attaches a remote
// pinned to TierScaled after content exists and verifies the initial
// push is tier-coherent: the joiner sees block-uniform pixels, not the
// full-resolution stripes a TierFull joiner gets from the same desktop.
func TestPinnedScaledLateJoinerInitialPushIsDegraded(t *testing.T) {
	h, w := newHost(t, Config{})
	defer h.Close()

	// Content BEFORE any remote joins: 1px stripes.
	for i := 0; i < 16; i++ {
		c := red
		if i%2 == 1 {
			c = blue
		}
		w.Fill(region.XYWH(16+i, 16, 1, 16), c)
	}
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	host := w.Snapshot()
	if host.RGBAAt(16, 16) == host.RGBAAt(17, 16) {
		t.Fatal("test bug: stripes did not render")
	}

	// Full-tier late joiner: byte-exact pixels.
	fullEnd, fullPart := streamPair()
	pf := participant.New(participant.Config{})
	pump(t, pf, fullPart)
	if _, err := h.AttachStream("full", fullEnd, StreamOptions{}); err != nil {
		t.Fatal(err)
	}

	// Pinned-scaled late joiner: the initial push must re-encode through
	// the degraded path, not hand out the full-resolution refresh.
	scaledEnd, scaledPart := streamPair()
	ps := participant.New(participant.Config{})
	pump(t, ps, scaledPart)
	rs, err := h.AttachStream("scaled", scaledEnd, StreamOptions{PinTier: TierScaled})
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.QualityTier(); got != TierScaled {
		t.Fatalf("attached tier = %v, want TierScaled", got)
	}

	deadline := time.Now().Add(5 * time.Second)
	var fimg, simg *image.RGBA
	for time.Now().Before(deadline) {
		fimg, simg = pf.WindowImage(w.ID()), ps.WindowImage(w.ID())
		// The scaled block's corner takes the host's top-left pixel, so
		// (16,16) lands as red on both tiers once the push applies.
		if fimg != nil && simg != nil && fimg.RGBAAt(17, 16) == host.RGBAAt(17, 16) &&
			simg.RGBAAt(16, 16) == host.RGBAAt(16, 16) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if fimg == nil || simg == nil {
		t.Fatal("initial pushes never landed")
	}
	// Full joiner preserved the stripes.
	if fimg.RGBAAt(16, 16) == fimg.RGBAAt(17, 16) {
		t.Fatal("full-tier joiner lost the stripes")
	}
	// Scaled joiner got pixelated blocks: uniform within the block, and
	// not byte-identical to the host framebuffer.
	for _, x := range []int{17, 18, 19} {
		if got := simg.RGBAAt(x, 16); got != simg.RGBAAt(16, 16) {
			t.Fatalf("pinned joiner not block-uniform: (%d,16)=%v vs (16,16)=%v", x, got, simg.RGBAAt(16, 16))
		}
	}
	if bytes.Equal(simg.Pix, host.Pix) {
		t.Fatal("pinned TierScaled joiner received full-fidelity pixels")
	}
	if bytes.Equal(simg.Pix, fimg.Pix) {
		t.Fatal("pinned joiner's push is identical to the full-tier push")
	}
}

// TestPinnedScaledRefreshPhaseIsDegraded verifies the PLI-triggered
// refresh (served in the tick's refresh phase) stays tier-coherent for
// a pinned remote: the served snapshot is the degraded encode.
func TestPinnedScaledRefreshPhaseIsDegraded(t *testing.T) {
	h, w := newHost(t, Config{})
	defer h.Close()

	conn := NewFaultConn(false)
	r, err := h.AttachPacketConn("scaled-udp", conn, PacketOptions{PinTier: TierScaled})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		c := red
		if i%2 == 1 {
			c = blue
		}
		w.Fill(region.XYWH(16+i, 16, 1, 16), c)
	}
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}

	// Latch the refresh (the PLI action) and serve it next tick.
	r.sh.Mu.Lock()
	r.refreshRequested = true
	r.sh.Mu.Unlock()
	before := len(conn.Sent)
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	if len(conn.Sent) == before {
		t.Fatal("refresh phase served nothing")
	}

	// Feed the refresh packets to a participant; the result must be
	// block-uniform where the host has stripes.
	p := participant.New(participant.Config{})
	for _, pkt := range conn.Sent {
		_ = p.HandlePacket(pkt)
	}
	img := p.WindowImage(w.ID())
	if img == nil {
		t.Fatal("no window image from refresh")
	}
	host := w.Snapshot()
	for _, x := range []int{17, 18, 19} {
		if got := img.RGBAAt(x, 16); got != img.RGBAAt(16, 16) {
			t.Fatalf("refresh not block-uniform: (%d,16)=%v vs (16,16)=%v", x, got, img.RGBAAt(16, 16))
		}
	}
	if bytes.Equal(img.Pix, host.Pix) {
		t.Fatal("pinned remote's refresh delivered full-fidelity pixels")
	}
}
