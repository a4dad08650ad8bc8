package ah

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"appshare/internal/display"
	"appshare/internal/participant"
	"appshare/internal/region"
	"appshare/internal/stats"
	"appshare/internal/transport"
	"appshare/internal/windows"
	"appshare/internal/workload"
)

// TestScreenConvergence is the system's central invariant: over a
// lossless transport with the lossless (PNG) codec, after any sequence
// of desktop activity and a final quiescent tick, every participant's
// per-window image equals the AH's window buffer pixel-for-pixel.
//
// The test drives randomized workload mixes (seeded) through the full
// stack: capture → fragmentation → RTP → link → reorder → reassembly →
// decode → apply.
func TestScreenConvergence(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			d := display.NewDesktop(1024, 768)
			w1 := d.CreateWindow(1, region.XYWH(50, 40, 400, 300))
			w2 := d.CreateWindow(2, region.XYWH(300, 200, 350, 260))

			h, err := New(Config{Desktop: d})
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()

			hostConn, partConn := transport.Pipe(
				transport.LinkConfig{Seed: seed}, // lossless
				transport.LinkConfig{Seed: seed + 100},
			)
			p := participant.New(participant.Config{})
			var handled atomic.Uint64
			go func() {
				for {
					pkt, err := partConn.Recv()
					if err != nil {
						return
					}
					_ = p.HandlePacket(pkt)
					handled.Add(1)
				}
			}()
			if _, err := h.AttachPacketConn("conv", hostConn, PacketOptions{}); err != nil {
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

			gens := []workload.Workload{
				workload.NewTyping(w1, 32, seed),
				workload.NewScrolling(w2, 1, seed+1),
				workload.NewVideoRegion(w1, region.XYWH(250, 200, 100, 80), seed+2),
			}
			for step := 0; step < 60; step++ {
				gens[rng.Intn(len(gens))].Step()
				switch rng.Intn(10) {
				case 0:
					_ = d.MoveWindow(w2.ID(), rng.Intn(600), rng.Intn(400))
				case 1:
					_ = d.RaiseWindow(uint16(1 + rng.Intn(2)))
				}
				if err := h.Tick(); err != nil {
					t.Fatal(err)
				}
			}
			// Final quiescent tick, then wait until the pump has handled
			// every datagram the lossless link carried.
			if err := h.Tick(); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "receive pump to drain the link", func() bool {
				return handled.Load() == delivered(hostConn, partConn)
			})

			for _, win := range []*display.Window{w1, w2} {
				want := win.Snapshot()
				got := p.WindowImage(win.ID())
				if got == nil {
					t.Fatalf("window %d missing at participant", win.ID())
				}
				if got.Bounds() != want.Bounds() {
					t.Fatalf("window %d bounds: got %v want %v", win.ID(), got.Bounds(), want.Bounds())
				}
				if !bytes.Equal(got.Pix, want.Pix) {
					diff := 0
					for i := range got.Pix {
						if got.Pix[i] != want.Pix[i] {
							diff++
						}
					}
					t.Fatalf("window %d: %d/%d pixel bytes differ", win.ID(), diff, len(want.Pix))
				}
			}
			// The WM state matches too.
			recs := windows.SnapshotRecords(d)
			ids := p.Windows()
			if len(recs) != len(ids) {
				t.Fatalf("window count: AH %d, participant %d", len(recs), len(ids))
			}
			for i := range recs {
				if recs[i].WindowID != ids[i] {
					t.Fatalf("z-order mismatch at %d: %d vs %d", i, recs[i].WindowID, ids[i])
				}
			}
		})
	}
}

// TestScreenConvergenceUnderLossWithRepair repeats the invariant over a
// lossy link with NACK repair: after repair rounds and a final tick, the
// screens still converge.
//
// Every read of the participant's loss state sits behind an explicit
// barrier instead of a sleep. Downstream, drain waits until the receive
// pump has handled exactly the datagrams the link delivered (sent −
// dropped on the host-side endpoint, minus receive-queue overflow counted
// on the participant side). Upstream, a NACK or PLI is followed by a wait
// for the host's own NACK-handled / PLI-handled count, which the host
// records only after it has shipped the retransmissions or latched the
// refresh. Without the barrier the repair loop could read "no gaps"
// before the pump had drained the burst that contained them.
func TestScreenConvergenceUnderLossWithRepair(t *testing.T) {
	d := display.NewDesktop(800, 600)
	win := d.CreateWindow(1, region.XYWH(50, 40, 400, 300))
	st := stats.NewCollector()
	// PLI rate limiting off: the endgame below may need several refresh
	// rounds inside what would be one MinRefreshInterval window.
	h, err := New(Config{Retransmissions: true, MinRefreshInterval: -1, Desktop: d, Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	hostConn, partConn := transport.Pipe(
		transport.LinkConfig{LossRate: 0.15, Seed: 77},
		transport.LinkConfig{Seed: 78},
	)
	p := participant.New(participant.Config{})
	var handled atomic.Uint64
	go func() {
		for {
			pkt, err := partConn.Recv()
			if err != nil {
				return
			}
			_ = p.HandlePacket(pkt)
			handled.Add(1)
		}
	}()
	drain := func() {
		t.Helper()
		waitFor(t, "receive pump to drain the link", func() bool {
			return handled.Load() == delivered(hostConn, partConn)
		})
	}
	// feedback sends one RTCP packet upstream (that direction is
	// lossless) and waits until the host has acted on it.
	var nacks, plis uint64
	feedback := func(pkt []byte, kind string, count *uint64) {
		t.Helper()
		if err := partConn.Send(pkt); err != nil {
			t.Fatal(err)
		}
		*count++
		waitFor(t, kind, func() bool { return st.Get(kind).Messages == *count })
	}
	// repair NACKs the gaps visible right now, if any, and waits for the
	// retransmissions to land.
	repair := func() {
		t.Helper()
		drain()
		if nack, err := p.BuildNACK(); err == nil && nack != nil {
			feedback(nack, "NACK-handled", &nacks)
			drain()
		}
	}

	if _, err := h.AttachPacketConn("lossy", hostConn, PacketOptions{}); err != nil {
		t.Fatal(err)
	}
	feedback(mustPLI(t, p), "PLI-handled", &plis)
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}

	ty := workload.NewTyping(win, 48, 3)
	for step := 0; step < 40; step++ {
		ty.Step()
		if err := h.Tick(); err != nil {
			t.Fatal(err)
		}
		repair()
	}
	// Repair until clean (retransmissions can be lost too).
	for round := 0; round < 60 && len(p.MissingSequences()) > 0; round++ {
		repair()
	}
	if missing := p.MissingSequences(); len(missing) != 0 {
		t.Fatalf("unrepaired gaps: %v", missing)
	}
	// NACKs can only repair gaps the participant can SEE. Two loss modes
	// escape them: a fragment start lost before its retransmission
	// arrived (the reassembler dropped the message and latched
	// NeedsRefresh), and a TAIL loss — the last fragments of the final
	// tick dropped with no later packet to reveal the gap, so the
	// receiver's sequence view looks complete while its pixels are
	// stale. A live session closes the second mode with the continuous
	// tick stream; this one has gone quiescent, so the participant's
	// recourse is a PLI-triggered full refresh — which travels the same
	// 15%-lossy link and may itself need repair, hence bounded rounds
	// rather than one shot.
	converged := func() bool {
		want := win.Snapshot()
		got := p.WindowImage(win.ID())
		return got != nil && got.Bounds() == want.Bounds() && bytes.Equal(got.Pix, want.Pix)
	}
	for round := 0; round < 8 && (p.NeedsRefresh() || !converged()); round++ {
		feedback(mustPLI(t, p), "PLI-handled", &plis)
		if err := h.Tick(); err != nil { // refresh serves at the tick
			t.Fatal(err)
		}
		// Repair any visible gaps the lossy refresh itself opened.
		repair()
		for r := 0; r < 60 && len(p.MissingSequences()) > 0; r++ {
			repair()
		}
	}
	if missing := p.MissingSequences(); len(missing) != 0 {
		t.Fatalf("unrepaired gaps after refresh rounds: %v", missing)
	}
	want := win.Snapshot()
	got := p.WindowImage(win.ID())
	if got == nil || !bytes.Equal(got.Pix, want.Pix) {
		t.Fatal("screens did not converge after loss repair")
	}
}

// delivered is how many datagrams a transport.Pipe has handed (or will
// hand) to the receiving end: sent minus dropped on the host-side
// endpoint, minus receive-queue overflow counted on the participant side.
func delivered(hostConn, partConn transport.PacketConn) uint64 {
	type linkStats interface{ Stats() (sent, dropped uint64) }
	sent, lost := hostConn.(linkStats).Stats()
	_, overflowed := partConn.(linkStats).Stats()
	return sent - lost - overflowed
}

// waitFor polls cond until it holds; the test fails if it has not within
// ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		runtime.Gosched()
	}
}

func mustPLI(t *testing.T, p *participant.Participant) []byte {
	t.Helper()
	pli, err := p.BuildPLI()
	if err != nil {
		t.Fatal(err)
	}
	return pli
}
