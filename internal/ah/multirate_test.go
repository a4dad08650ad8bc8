package ah

import (
	"testing"
	"time"

	"appshare/internal/participant"
	"appshare/internal/region"
	"appshare/internal/transport"
	"appshare/internal/workload"
)

// TestMulticastRateTiers reproduces the Section 4.3 deployment: the AH
// runs two multicast sessions with different transmission rates. The
// fast tier receives (roughly) every frame; the slow tier gets deferred,
// coalesced final states — and both converge to the current screen.
func TestMulticastRateTiers(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	h, w := newHost(t, Config{Now: clock})
	defer h.Close()

	attach := func(rate int) (*Remote, *participant.Participant) {
		bus := transport.NewBus()
		sub := bus.Subscribe(transport.LinkConfig{Seed: int64(rate + 1)})
		p := participant.New(participant.Config{})
		go func() {
			for {
				pkt, err := sub.Recv()
				if err != nil {
					return
				}
				_ = p.HandlePacket(pkt)
			}
		}()
		r, err := h.AttachMulticast("tier", bus, MulticastOptions{BytesPerSecond: rate})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.RequestRefresh(r); err != nil {
			t.Fatal(err)
		}
		return r, p
	}
	fastR, fastP := attach(0)        // unlimited
	slowR, slowP := attach(10 << 10) // 10 KB/s

	vid := workload.NewVideoRegion(w, region.XYWH(0, 0, 200, 150), 5)
	for i := 0; i < 20; i++ {
		vid.Step()
		now = now.Add(50 * time.Millisecond) // 20 fps virtual time
		if err := h.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if fastR.Deferrals() != 0 {
		t.Fatalf("fast tier deferred %d frames", fastR.Deferrals())
	}
	if slowR.Deferrals() == 0 {
		t.Fatal("slow tier never deferred; rate budget not applied")
	}

	// Let the slow tier's budget refill and flush the final state.
	for i := 0; i < 50; i++ {
		now = now.Add(time.Second)
		if err := h.Tick(); err != nil {
			t.Fatal(err)
		}
		if slowR.pendingEmpty() {
			break
		}
	}
	settle()
	want := w.Snapshot()
	for name, p := range map[string]*participant.Participant{"fast": fastP, "slow": slowP} {
		got := p.WindowImage(w.ID())
		if got == nil {
			t.Fatalf("%s tier missing window", name)
		}
		match := 0
		for i := range want.Pix {
			if got.Pix[i] == want.Pix[i] {
				match++
			}
		}
		if match != len(want.Pix) {
			t.Fatalf("%s tier did not converge: %d/%d bytes match", name, match, len(want.Pix))
		}
	}
}

// pendingEmpty reports whether the remote has no deferred regions.
func (r *Remote) pendingEmpty() bool {
	r.sh.Mu.Lock()
	defer r.sh.Mu.Unlock()
	return r.pending.Empty() && !r.pendingPointer
}
