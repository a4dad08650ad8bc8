package ah

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"appshare/internal/display"
	"appshare/internal/region"
	"appshare/internal/transport"
	"appshare/internal/workload"
)

// TestShardChurnFlashCrowd is the sharded send path's churn gate, run
// in CI under -race -cpu 1,4: a flash crowd of UDP joiners attaches
// from several goroutines while the desktop owner ticks at full speed,
// a fraction detaches immediately, and then a liveness sweep evicts
// every silent survivor while the tick loop keeps running. At each
// quiescent point the three participant counters must reconcile:
//
//	Participants() == live RemoteHealth entries == attached − closed − evicted
//
// Forcing SendShards past GOMAXPROCS keeps the sender goroutines and
// the publish barrier in play even on a single-proc runner.
func TestShardChurnFlashCrowd(t *testing.T) {
	const (
		attachers   = 4
		perAttacher = 40
	)
	clock := newFakeClock()
	var (
		attached, closed, evicted atomic.Int64
	)
	desk := display.NewDesktop(640, 480)
	win := desk.CreateWindow(1, region.XYWH(20, 20, 300, 220))
	h, err := New(Config{
		Desktop:       desk,
		Now:           clock.Now,
		SendShards:    4,
		RemoteTimeout: 2 * time.Second,
		OnEvict:       func(RemoteHealth) { evicted.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	// Desktop owner: paint + Tick continuously. Only this goroutine
	// touches window pixels (UDP attach pushes no initial state, so the
	// flash crowd is safe against concurrent paint by design).
	stopTick := make(chan struct{})
	var tickWG sync.WaitGroup
	tickWG.Add(1)
	go func() {
		defer tickWG.Done()
		ty := workload.NewTyping(win, 48, 5)
		for {
			select {
			case <-stopTick:
				return
			default:
			}
			ty.Step()
			if err := h.Tick(); err != nil {
				return
			}
		}
	}()

	// Flash crowd: every attacher dumps its whole population as fast as
	// it can, closing every third remote right after it lands.
	var churnWG sync.WaitGroup
	for g := 0; g < attachers; g++ {
		churnWG.Add(1)
		go func(g int) {
			defer churnWG.Done()
			for i := 0; i < perAttacher; i++ {
				a, b := transport.Pipe(transport.LinkConfig{}, transport.LinkConfig{})
				r, err := h.AttachPacketConn(fmt.Sprintf("crowd-%d-%d", g, i), a, PacketOptions{})
				if err != nil {
					t.Errorf("attach: %v", err)
					return
				}
				attached.Add(1)
				if i%3 == 0 {
					if err := r.Close(); err != nil {
						t.Errorf("close: %v", err)
					}
					_ = b.Close()
					closed.Add(1)
				}
			}
		}(g)
	}
	churnWG.Wait()

	// Quiescent point one: churn done, clock frozen (no evictions yet),
	// tick loop still running. The counters must already agree.
	wantLive := attached.Load() - closed.Load()
	if got := int64(h.Participants()); got != wantLive {
		t.Fatalf("Participants() = %d after churn, want attached−closed = %d", got, wantLive)
	}
	live := 0
	for _, hs := range h.RemoteHealth() {
		if hs.State != HealthEvicted {
			live++
		}
	}
	if int64(live) != wantLive {
		t.Fatalf("RemoteHealth reports %d live remotes, want %d", live, wantLive)
	}

	// Liveness phase: every surviving remote has been silent since
	// attach, so advancing the clock past RemoteTimeout makes the sweep
	// evict all of them — concurrent with the still-running tick loop.
	clock.Advance(3 * time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for h.Participants() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sweep left %d participants past the liveness timeout", h.Participants())
		}
		time.Sleep(time.Millisecond)
	}
	close(stopTick)
	tickWG.Wait()

	// Final reconciliation: everyone is accounted for exactly once.
	if got, want := evicted.Load(), attached.Load()-closed.Load(); got != want {
		t.Fatalf("evicted %d remotes, want attached−closed = %d", got, want)
	}
	if got := h.Participants(); got != 0 {
		t.Fatalf("Participants() = %d after sweep, want 0", got)
	}
	for _, hs := range h.RemoteHealth() {
		if hs.State != HealthEvicted {
			t.Fatalf("post-sweep RemoteHealth still lists %q in state %v", hs.ID, hs.State)
		}
	}
}

// recordSink is a captureSink that concatenates everything shipped, in
// order — the per-remote wire transcript for the parity test. Each
// remote owns one sink and only its shard's sender goroutine ships to
// it; the Tick barrier orders those writes before the test's reads.
type recordSink struct{ buf bytes.Buffer }

func (c *recordSink) Send(p []byte) error { c.buf.Write(p); return nil }
func (c *recordSink) SendBatch(ps [][]byte) (int, error) {
	for _, p := range ps {
		c.buf.Write(p)
	}
	return len(ps), nil
}
func (c *recordSink) backlogged(int) bool        { return false }
func (c *recordSink) queued() int                { return 0 }
func (c *recordSink) stalled() time.Duration     { return 0 }
func (c *recordSink) drainStats() (int64, int64) { return 0, 0 }
func (c *recordSink) close() error               { return nil }

// runShardParity drives one deterministic session — seeded entropy,
// virtual clock, fixed attach order, two mid-session leavers — and
// returns each survivor's full wire transcript.
func runShardParity(t *testing.T, shards int) map[string][]byte {
	t.Helper()
	clock := newFakeClock()
	seed := uint32(0x2545F491)
	entropy := func() uint32 {
		seed = seed*1664525 + 1013904223
		return seed
	}
	desk := display.NewDesktop(320, 240)
	win := desk.CreateWindow(1, region.XYWH(10, 10, 220, 160))
	h, err := New(Config{
		Desktop:    desk,
		Now:        clock.Now,
		Entropy:    entropy,
		SendShards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	const viewers = 12
	sinks := make(map[string]*recordSink, viewers)
	remotes := make([]*Remote, 0, viewers)
	for i := 0; i < viewers; i++ {
		id := fmt.Sprintf("par-%02d", i)
		cs := &recordSink{}
		r := h.newRemote(id, uint16(i), cs)
		if err := h.addRemote(r); err != nil {
			t.Fatal(err)
		}
		sinks[id] = cs
		remotes = append(remotes, r)
	}

	ty := workload.NewTyping(win, 96, 11)
	for step := 0; step < 10; step++ {
		if step == 5 {
			// Two leavers mid-session; the survivors' streams must not
			// notice, whichever shard the leavers lived on.
			if err := remotes[3].Close(); err != nil {
				t.Fatal(err)
			}
			if err := remotes[7].Close(); err != nil {
				t.Fatal(err)
			}
		}
		ty.Step()
		clock.Advance(100 * time.Millisecond)
		if err := h.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	out := make(map[string][]byte, viewers-2)
	for id, cs := range sinks {
		if id == "par-03" || id == "par-07" {
			continue
		}
		out[id] = append([]byte(nil), cs.buf.Bytes()...)
	}
	return out
}

// TestShardByteStreamParity is the replay-identity proof at the Remote
// level: the same seeded session produces byte-identical per-survivor
// wire transcripts with fan-out inline (SendShards=1) and spread across
// four sender goroutines (SendShards=4). Per-remote streams depend only
// on per-remote packetizer state and the shared prepared batch, never
// on cross-remote send order.
func TestShardByteStreamParity(t *testing.T) {
	single := runShardParity(t, 1)
	sharded := runShardParity(t, 4)
	if len(single) != len(sharded) {
		t.Fatalf("survivor sets differ: %d vs %d", len(single), len(sharded))
	}
	for id, want := range single {
		got, ok := sharded[id]
		if !ok {
			t.Fatalf("survivor %q missing from the sharded run", id)
		}
		if len(want) == 0 {
			t.Fatalf("survivor %q shipped no bytes; the parity check is vacuous", id)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("survivor %q wire bytes diverge between 1 and 4 shards (%d vs %d bytes)",
				id, len(want), len(got))
		}
	}
}
