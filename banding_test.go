package appshare_test

import (
	"bytes"
	"image"
	"testing"
	"time"

	"appshare"
	"appshare/internal/core"
	"appshare/internal/workload"
)

// TestBandedPhotoConvergesOverLoss streams video_relay-sized photo
// frames (341×256 px, each split into bands, each band deflated at
// BestSpeed) over a 5%-loss link with NACK/PLI repair and the tile
// store on. Frames recur, so some bands travel as tile references. Once
// the painting stops the viewer's window must equal the host's byte for
// byte.
func TestBandedPhotoConvergesOverLoss(t *testing.T) {
	desk := appshare.NewDesktop(800, 600)
	win := desk.CreateWindow(1, appshare.XYWH(50, 40, 400, 300))
	st := appshare.NewStats()
	host, err := appshare.NewHost(appshare.HostConfig{
		Desktop:         desk,
		Stats:           st,
		Retransmissions: true,
		TileStore:       &appshare.TileStoreConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	hostSide, partSide := appshare.SimulatedLink(
		appshare.LinkConfig{LossRate: 0.05, Seed: 43},
		appshare.LinkConfig{Seed: 44},
	)
	if _, err := host.AttachPacketConn("lossy", hostSide, appshare.PacketOptions{TileStore: true}); err != nil {
		t.Fatal(err)
	}
	p := appshare.NewParticipant(appshare.ParticipantConfig{TileStore: true})
	conn := appshare.ConnectPacket(p, partSide)
	defer conn.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() { _ = conn.RepairLoop(stop, 20*time.Millisecond, 5*time.Millisecond) }()
	if err := conn.SendPLI(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "join", func() bool {
		if err := host.Tick(); err != nil {
			t.Fatal(err)
		}
		return p.WindowImage(win.ID()) != nil
	})

	frames := make([]*image.RGBA, 4)
	for i := range frames {
		frames[i] = workload.Photo(341, 256, int64(i))
	}
	for i := 0; i < 16; i++ {
		win.Blit(frames[i%len(frames)], 30, 20)
		if err := host.Tick(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitFor(t, "byte-exact convergence", func() bool {
		if err := host.Tick(); err != nil {
			t.Fatal(err)
		}
		got := p.WindowImage(win.ID())
		return got != nil && len(p.MissingSequences()) == 0 && !p.NeedsRefresh() &&
			bytes.Equal(got.Pix, win.Snapshot().Pix)
	})
	if p.Applied(core.TypeTileReference) == 0 {
		t.Fatal("no recurring band travelled as a tile reference: the tile store was not exercised")
	}
	if st.Get("NACK-handled").Messages == 0 {
		t.Fatal("no NACK reached the host: the link lost nothing that needed repair")
	}
}
