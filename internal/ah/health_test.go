package ah

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"appshare/internal/display"
	"appshare/internal/framing"
	"appshare/internal/participant"
	"appshare/internal/region"
	"appshare/internal/rtcp"
	"appshare/internal/rtp"
	"appshare/internal/stats"
	"appshare/internal/transport"
	"appshare/internal/workload"
)

// fakeClock is a mutex-guarded virtual clock for Config.Now: ticks
// advance it deterministically while pump goroutines read it
// concurrently.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// stallResult is one viewer's terminal pixel state in the stall
// scenario.
type stallResult struct {
	imgA, imgB []byte
	want       []byte // the AH window snapshot
	evictions  []RemoteHealth
	health     []RemoteHealth
	remaining  int
}

// runStallScenario drives a deterministic three-viewer session. With
// stall=true, viewer "c" stops reading mid-session (its TCP peer black-
// holes) and the host is expected to evict it; viewers "a" and "b" must
// be unaffected either way.
func runStallScenario(t *testing.T, stall bool) stallResult {
	t.Helper()
	clock := newFakeClock()
	var (
		evMu      sync.Mutex
		evictions []RemoteHealth
	)
	d := display.NewDesktop(320, 240)
	w := d.CreateWindow(1, region.XYWH(20, 20, 200, 150))
	h, err := New(Config{
		Desktop:         d,
		Now:             clock.Now,
		Stats:           stats.NewCollector(),
		BacklogLimit:    1024,
		MaxBacklogDwell: time.Second,
		OnEvict: func(snap RemoteHealth) {
			evMu.Lock()
			evictions = append(evictions, snap)
			evMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	attach := func(id string) (*participant.Participant, io.ReadWriteCloser) {
		hostEnd, partEnd := streamPair()
		p := participant.New(participant.Config{})
		if id != "c" {
			pump(t, p, partEnd)
		}
		if _, err := h.AttachStream(id, hostEnd, StreamOptions{}); err != nil {
			t.Fatal(err)
		}
		return p, partEnd
	}
	pA, _ := attach("a")
	pB, _ := attach("b")
	pC, cEnd := attach("c")

	// Viewer c's pump is stoppable: closing cStop makes it stop reading,
	// which (over the synchronous in-memory pipe) blocks the host's
	// drain exactly like a black-holed TCP peer.
	cStop := make(chan struct{})
	go func() {
		fr := framing.NewReader(cEnd)
		for {
			select {
			case <-cStop:
				return
			default:
			}
			pkt, err := fr.ReadFrame()
			if err != nil {
				return
			}
			_ = pC.HandlePacket(pkt)
		}
	}()
	settle()

	vid := workload.NewVideoRegion(w, region.XYWH(30, 30, 120, 90), 7)
	for step := 0; step < 40; step++ {
		if step == 5 && stall {
			close(cStop)
		}
		vid.Step()
		clock.Advance(100 * time.Millisecond)
		if err := h.Tick(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond) // real time for the healthy pipes to drain
	}
	// Final quiescent tick, then let the pipes drain.
	clock.Advance(100 * time.Millisecond)
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	settle()

	res := stallResult{
		want:      append([]byte(nil), w.Snapshot().Pix...),
		health:    h.RemoteHealth(),
		remaining: h.Participants(),
	}
	evMu.Lock()
	res.evictions = append(res.evictions, evictions...)
	evMu.Unlock()
	if img := pA.WindowImage(w.ID()); img != nil {
		res.imgA = append([]byte(nil), img.Pix...)
	}
	if img := pB.WindowImage(w.ID()); img != nil {
		res.imgB = append([]byte(nil), img.Pix...)
	}
	return res
}

// TestLivenessStalledViewerEvicted is the subsystem's acceptance test:
// one of three TCP viewers black-holes mid-session; the host must evict
// it within the configured dwell budget with a recorded reason, while
// the other two converge byte-identically to the no-stall baseline.
func TestLivenessStalledViewerEvicted(t *testing.T) {
	base := runStallScenario(t, false)
	if base.remaining != 3 || len(base.evictions) != 0 {
		t.Fatalf("baseline disturbed: %d remotes, %d evictions", base.remaining, len(base.evictions))
	}
	got := runStallScenario(t, true)

	if got.remaining != 2 {
		t.Fatalf("participants after stall = %d, want 2", got.remaining)
	}
	if len(got.evictions) != 1 {
		t.Fatalf("evictions = %d, want 1 (%+v)", len(got.evictions), got.evictions)
	}
	ev := got.evictions[0]
	if ev.ID != "c" || ev.State != HealthEvicted {
		t.Fatalf("evicted %q in state %v, want c evicted", ev.ID, ev.State)
	}
	if !strings.Contains(ev.EvictReason, "backlog dwell") && !strings.Contains(ev.EvictReason, "send stall") {
		t.Fatalf("eviction reason %q does not name the congestion signal", ev.EvictReason)
	}
	// Within the congestion budget: whichever signal fired — backlog
	// dwell, or send stall (whose clock starts when drain progress
	// stops, up to one tick before the backlog crosses the limit) — must
	// have crossed MaxBacklogDwell but not run far past it (2 virtual
	// ticks slack).
	sig := ev.BacklogDwell
	if ev.SendStall > sig {
		sig = ev.SendStall
	}
	if sig < time.Second || sig > 1200*time.Millisecond {
		t.Fatalf("evicted at congestion signal %v (dwell %v, stall %v), want within [1s, 1.2s]",
			sig, ev.BacklogDwell, ev.SendStall)
	}
	if ev.EvictedAt.IsZero() {
		t.Fatal("eviction snapshot missing EvictedAt")
	}
	// The eviction is visible through Host.RemoteHealth too.
	var found bool
	for _, hs := range got.health {
		if hs.ID == "c" && hs.State == HealthEvicted && hs.EvictReason == ev.EvictReason {
			found = true
		}
	}
	if !found {
		t.Fatalf("RemoteHealth does not surface the eviction: %+v", got.health)
	}

	// The surviving viewers are byte-identical to the baseline run and
	// to the AH's own window buffer.
	if len(got.imgA) == 0 || len(got.imgB) == 0 {
		t.Fatal("surviving viewer missing window image")
	}
	if !bytes.Equal(got.want, base.want) {
		t.Fatal("scenario not deterministic: AH snapshots differ between runs")
	}
	if !bytes.Equal(got.imgA, base.imgA) || !bytes.Equal(got.imgA, got.want) {
		t.Fatal("viewer a diverged from the no-stall baseline")
	}
	if !bytes.Equal(got.imgB, base.imgB) || !bytes.Equal(got.imgB, got.want) {
		t.Fatal("viewer b diverged from the no-stall baseline")
	}
}

// TestLivenessDegradeThenRecover: with the ladder on and no dwell budget,
// a really wedged stream viewer walks down to keyframe-only mode (pending
// regions dropped, not accumulated), is never evicted, and climbs back —
// with a full resync — once its link drains.
func TestLivenessDegradeThenRecover(t *testing.T) {
	clock := newFakeClock()
	d := display.NewDesktop(320, 240)
	w := d.CreateWindow(1, region.XYWH(10, 10, 220, 160))
	h, err := New(Config{
		Desktop:      d,
		Now:          clock.Now,
		BacklogLimit: 512,
		Ladder:       testLadderConfig(),
		OnEvict:      func(RemoteHealth) { t.Error("no dwell budget: congestion must never evict") },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	hostEnd, partEnd := streamPair()
	p := participant.New(participant.Config{})
	// No pump yet: the unread pipe wedges the drain immediately, so the
	// initial state alone pushes the backlog over the limit.
	r, err := h.AttachStream("slow", hostEnd, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}

	vid := workload.NewVideoRegion(w, region.XYWH(20, 20, 100, 80), 11)
	tick := func() {
		t.Helper()
		vid.Step()
		clock.Advance(200 * time.Millisecond)
		if err := h.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	// Two sweeps a rung (one starts the congestion streak, the next
	// demotes), then a few ticks on the bottom rung.
	for step := 0; step < 10; step++ {
		tick()
	}
	hs := r.Health()
	if hs.Tier != TierKeyframeOnly || hs.State != HealthDegraded {
		t.Fatalf("after sustained backlog: tier %v state %v, want keyframe/degraded", hs.Tier, hs.State)
	}
	if hs.DeferStreak == 0 || hs.MaxDeferStreak == 0 {
		t.Fatalf("deferral streak not tracked: %+v", hs)
	}
	// Keyframe-only mode must not hoard pending regions.
	r.sh.Mu.Lock()
	pendingEmpty := r.pending.Empty()
	r.sh.Mu.Unlock()
	if !pendingEmpty {
		t.Fatal("keyframe-only remote still accumulates pending regions")
	}

	// The viewer comes back. drain waits until the pump has handled every
	// packet the host has stamped for this remote, so each sweep below
	// samples an empty send queue.
	var handled atomic.Uint64
	go func() {
		fr := framing.NewReader(partEnd)
		for {
			pkt, err := fr.ReadFrame()
			if err != nil {
				return
			}
			if err := p.HandlePacket(pkt); err != nil {
				t.Errorf("participant: %v", err)
			}
			handled.Add(1)
		}
	}()
	drain := func() {
		t.Helper()
		waitFor(t, "pump to drain the stream", func() bool {
			return handled.Load() == r.Health().SentPackets
		})
	}
	drain()
	for step := 0; step < 20 && r.QualityTier() != TierFull; step++ {
		tick()
		drain()
	}
	tick() // flushes what the decimated rung folded on its way up
	drain()
	if hs := r.Health(); hs.Tier != TierFull || hs.State != HealthHealthy {
		t.Fatalf("after drain: tier %v state %v, want full/healthy", hs.Tier, hs.State)
	}
	// The promotion keyframe resynced the viewer.
	want := w.Snapshot()
	got := p.WindowImage(w.ID())
	if got == nil || !bytes.Equal(got.Pix, want.Pix) {
		t.Fatal("viewer did not converge after keyframe-only recovery")
	}
	if h.Participants() != 1 {
		t.Fatalf("participants = %d, want 1", h.Participants())
	}
}

// TestLivenessHealthStateIsDerived: RemoteHealth.State is a pure function
// of (Tier, EvictReason) on every rung — while attached, after the remote
// rode a session snapshot to another host, and once evicted.
func TestLivenessHealthStateIsDerived(t *testing.T) {
	for _, tc := range []struct {
		tier QualityTier
		want HealthState
	}{
		{TierFull, HealthHealthy},
		{TierDecimated, HealthHealthy},
		{TierScaled, HealthHealthy},
		{TierKeyframeOnly, HealthDegraded},
	} {
		t.Run(tc.tier.String(), func(t *testing.T) {
			clock := newFakeClock()
			var evictions []RemoteHealth
			mkHost := func() *Host {
				h, _ := newHost(t, Config{
					Desktop:       display.NewDesktop(160, 120),
					Now:           clock.Now,
					RemoteTimeout: time.Second,
					OnEvict:       func(hs RemoteHealth) { evictions = append(evictions, hs) },
				})
				t.Cleanup(func() { h.Close() })
				return h
			}
			check := func(stage string, hs RemoteHealth, want HealthState) {
				t.Helper()
				if hs.Tier != tc.tier || hs.State != want {
					t.Fatalf("%s: tier %v state %v, want %v/%v", stage, hs.Tier, hs.State, tc.tier, want)
				}
			}

			hostA := mkHost()
			rA, err := hostA.AttachPacketConn("v", &discardConn{newParkedConn()}, PacketOptions{PinTier: tc.tier})
			if err != nil {
				t.Fatal(err)
			}
			if err := hostA.Tick(); err != nil {
				t.Fatal(err)
			}
			check("attached", rA.Health(), tc.want)

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
			hostB := mkHost()
			if err := hostB.RestoreSession(decoded); err != nil {
				t.Fatal(err)
			}
			rB, err := hostB.ResumePacketConn("v", &discardConn{newParkedConn()}, PacketOptions{})
			if err != nil {
				t.Fatal(err)
			}
			check("restored", rB.Health(), tc.want)

			// The evict reason outranks the rung.
			clock.Advance(2 * time.Second)
			if err := hostB.Tick(); err != nil {
				t.Fatal(err)
			}
			if len(evictions) != 1 || evictions[0].EvictReason == "" {
				t.Fatalf("evictions = %+v, want the silent restored remote", evictions)
			}
			check("evicted", evictions[0], HealthEvicted)

			// The encoding lost three fields: a blob from before that is
			// refused, not misread.
			blob[0] = 1
			if _, err := UnmarshalSessionSnapshot(blob); err == nil || !strings.Contains(err.Error(), "version 1 unsupported") {
				t.Fatalf("version-1 snapshot: err = %v, want unsupported version", err)
			}
		})
	}
}

// TestLivenessRemoteTimeoutEviction: a UDP viewer that goes silent past
// Config.RemoteTimeout is evicted (no dwell budget, no ladder), with the
// liveness reason recorded.
func TestLivenessRemoteTimeoutEviction(t *testing.T) {
	clock := newFakeClock()
	var (
		evMu      sync.Mutex
		evictions []RemoteHealth
	)
	d := display.NewDesktop(320, 240)
	d.CreateWindow(1, region.XYWH(10, 10, 120, 90))
	h, err := New(Config{
		Desktop:       d,
		Now:           clock.Now,
		RemoteTimeout: 2 * time.Second,
		OnEvict: func(snap RemoteHealth) {
			evMu.Lock()
			evictions = append(evictions, snap)
			evMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	hostConn, partConn := transport.Pipe(transport.LinkConfig{Seed: 5}, transport.LinkConfig{Seed: 6})
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
	if _, err := h.AttachPacketConn("udp1", hostConn, PacketOptions{}); err != nil {
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
	if h.Participants() != 1 {
		t.Fatal("remote not attached")
	}

	// Silence within the budget: still attached.
	clock.Advance(1500 * time.Millisecond)
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	if h.Participants() != 1 {
		t.Fatal("remote evicted before RemoteTimeout elapsed")
	}

	// Silence past the budget: evicted with the liveness reason.
	clock.Advance(time.Second)
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	if h.Participants() != 0 {
		t.Fatalf("participants = %d, want 0 after timeout", h.Participants())
	}
	evMu.Lock()
	defer evMu.Unlock()
	if len(evictions) != 1 {
		t.Fatalf("evictions = %d, want 1", len(evictions))
	}
	if !strings.Contains(evictions[0].EvictReason, "liveness timeout") {
		t.Fatalf("reason = %q, want liveness timeout", evictions[0].EvictReason)
	}
	var found bool
	for _, hs := range h.RemoteHealth() {
		if hs.ID == "udp1" && hs.State == HealthEvicted {
			found = true
		}
	}
	if !found {
		t.Fatal("RemoteHealth does not report the timed-out remote")
	}
}

// TestLivenessNACKStormDetachRace hammers a UDP remote with NACKs from a
// feedback goroutine while the main goroutine ticks, detaches it
// mid-storm, and re-attaches fresh remotes — the feedback-vs-detach race
// the -race CI gate watches.
func TestLivenessNACKStormDetachRace(t *testing.T) {
	d := display.NewDesktop(320, 240)
	w := d.CreateWindow(1, region.XYWH(10, 10, 150, 100))
	h, err := New(Config{Desktop: d, Retransmissions: true, RetransLog: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	vid := workload.NewVideoRegion(w, region.XYWH(20, 20, 80, 60), 3)
	for round := 0; round < 4; round++ {
		hostConn, partConn := transport.Pipe(
			transport.LinkConfig{Seed: int64(round + 1)},
			transport.LinkConfig{Seed: int64(round + 100)},
		)
		r, err := h.AttachPacketConn(fmt.Sprintf("storm-%d", round), hostConn, PacketOptions{})
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func(ssrc uint32) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				nack, err := rtcp.Marshal(&rtcp.NACK{
					SenderSSRC: 7,
					MediaSSRC:  ssrc,
					Pairs:      rtcp.BuildNACKPairs([]uint16{uint16(i), uint16(i + 2)}),
				})
				if err != nil {
					t.Errorf("build NACK: %v", err)
					return
				}
				if partConn.Send(nack) != nil {
					return
				}
			}
		}(r.SSRC())

		for step := 0; step < 10; step++ {
			vid.Step()
			if err := h.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		// Detach mid-storm; the pump and the storm goroutine race the
		// teardown.
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		close(stop)
		wg.Wait()
		_ = partConn.Close()
	}
	if h.Participants() != 0 {
		t.Fatalf("participants = %d, want 0", h.Participants())
	}
}

// captureSink records shipped packets for direct Remote-level tests. It
// copies each one: a sink must not keep the caller's slice (the send
// paths stamp into a reused arena).
type captureSink struct{ pkts [][]byte }

func (c *captureSink) Send(p []byte) error {
	c.pkts = append(c.pkts, append([]byte(nil), p...))
	return nil
}
func (c *captureSink) SendBatch(ps [][]byte) (int, error) {
	for _, p := range ps {
		_ = c.Send(p)
	}
	return len(ps), nil
}
func (c *captureSink) backlogged(int) bool        { return false }
func (c *captureSink) queued() int                { return 0 }
func (c *captureSink) stalled() time.Duration     { return 0 }
func (c *captureSink) drainStats() (int64, int64) { return 0, 0 }
func (c *captureSink) close() error               { return nil }

// TestLivenessRetransLogSeqWrapReuse: when the 16-bit sequence space
// wraps and a sequence number is reused while its old packet is still
// logged, the log must serve the NEW packet for that sequence — and must
// not lose it when the window rotates past the old entry's position.
func TestLivenessRetransLogSeqWrapReuse(t *testing.T) {
	h, _ := newHost(t, Config{Retransmissions: true, RetransLog: 4})
	defer h.Close()
	cs := &captureSink{}
	r := h.newRemote("wrap", 0, cs)

	log := func(seq uint16, tag byte) {
		r.st.Retrans.Put(rtp.LoggedPacket{Seq: seq, Payload: []byte{tag}})
	}
	log(1, 'a')
	log(2, 'a')
	log(3, 'a')
	// Sequence 1 reused (wrap) while its old entry is still logged.
	log(1, 'b')
	// One more packet: with a FIFO queue beside a map this eviction used
	// to delete the NEW packet for seq 1.
	log(4, 'a')

	resend := func(seq uint16) [][]byte {
		t.Helper()
		cs.pkts = nil
		r.sh.Mu.Lock()
		defer r.sh.Mu.Unlock()
		if err := r.st.Resend([]uint16{seq}); err != nil {
			t.Fatal(err)
		}
		return cs.pkts
	}
	got := resend(1)
	if len(got) != 1 {
		t.Fatalf("NACK for live seq 1 served %d packets, want 1", len(got))
	}
	var hdr rtp.Header
	if _, err := hdr.Unmarshal(got[0]); err != nil || hdr.SequenceNumber != 1 || hdr.SSRC != r.SSRC() {
		t.Fatalf("re-stamped header = %+v (err %v), want seq 1 on the remote's SSRC", hdr, err)
	}
	if tag := got[0][len(got[0])-1]; tag != 'b' {
		t.Fatalf("retransmitted stale packet %q for reused seq, want 'b'", tag)
	}

	// Rotating the window far enough must still evict seq 1 exactly once.
	log(5, 'a')
	log(6, 'a')
	if got := resend(1); len(got) != 0 {
		t.Fatal("evicted sequence still served from the log")
	}
	if n := r.st.Retrans.Len(); n != 4 {
		t.Fatalf("log holds %d packets, want its bound of 4", n)
	}
}
