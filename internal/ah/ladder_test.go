package ah

import (
	"bytes"
	"image"
	"image/color"
	"testing"
	"time"

	"appshare/internal/display"
	"appshare/internal/participant"
	"appshare/internal/region"
	"appshare/internal/stats"
)

// ctrlSink is a sink whose congestion signals the test script controls
// directly, for driving the ladder controller without a real transport.
// Tests mutate the fields between sweeps on a single goroutine.
type ctrlSink struct {
	congested bool
	stall     time.Duration
	queuedN   int
}

func (c *ctrlSink) Send(p []byte) error                { return nil }
func (c *ctrlSink) SendBatch(ps [][]byte) (int, error) { return len(ps), nil }
func (c *ctrlSink) backlogged(int) bool                { return c.congested }
func (c *ctrlSink) queued() int                        { return c.queuedN }
func (c *ctrlSink) stalled() time.Duration             { return c.stall }
func (c *ctrlSink) drainStats() (int64, int64)         { return 0, 0 }
func (c *ctrlSink) close() error                       { return nil }

// testLadderConfig returns tight thresholds scaled to the 50ms sweep
// cadence the controller tests drive.
func testLadderConfig() *LadderConfig {
	return &LadderConfig{
		DemoteAfter:    100 * time.Millisecond,
		PromoteAfter:   200 * time.Millisecond,
		MinTierDwell:   50 * time.Millisecond,
		FlapWindow:     time.Second,
		MaxPromoteWait: 2 * time.Second,
	}
}

// ladderSweep runs one health/ladder sweep exactly as Tick does: the
// sweep under the host lock, eviction teardown outside it.
func ladderSweep(h *Host) {
	evs := h.sweepHealth(h.cfg.Now())
	h.finishEvictions(evs)
}

// newLadderHarness builds a host with the ladder enabled and one remote
// on a script-controlled sink.
func newLadderHarness(t *testing.T, lc *LadderConfig) (*Host, *Remote, *ctrlSink, *fakeClock, *stats.Collector) {
	t.Helper()
	clock := newFakeClock()
	st := stats.NewCollector()
	h, _ := newHost(t, Config{Now: clock.Now, Stats: st, Ladder: lc})
	t.Cleanup(func() { h.Close() })
	cs := &ctrlSink{}
	r := h.newRemote("ctrl", 0, cs)
	if err := h.addRemote(r); err != nil {
		t.Fatal(err)
	}
	return h, r, cs, clock, st
}

// TestLadderDemoteThroughTiersAndRecover walks a remote down every rung
// under sustained congestion — one rung at a time, never skipping — and
// back up under a clean signal, checking the derived health state, the
// stats kinds, the keyframe-tier pending purge and the resync latch owed from
// a lossy tier.
func TestLadderDemoteThroughTiersAndRecover(t *testing.T) {
	h, r, cs, clock, st := newLadderHarness(t, testLadderConfig())

	tierSeq := []QualityTier{TierFull}
	observe := func() {
		cur := r.QualityTier()
		if cur != tierSeq[len(tierSeq)-1] {
			tierSeq = append(tierSeq, cur)
		}
	}

	cs.congested = true
	for i := 0; i < 30 && r.QualityTier() != TierKeyframeOnly; i++ {
		// Seed pending detail once the remote reaches the scaled tier, so
		// the keyframe-tier purge below has something to purge.
		if r.QualityTier() == TierScaled {
			r.sh.Mu.Lock()
			r.pending.Add(region.XYWH(0, 0, 16, 16))
			r.sh.Mu.Unlock()
		}
		clock.Advance(50 * time.Millisecond)
		ladderSweep(h)
		observe()
	}
	wantDown := []QualityTier{TierFull, TierDecimated, TierScaled, TierKeyframeOnly}
	if len(tierSeq) != len(wantDown) {
		t.Fatalf("descent visited tiers %v, want %v", tierSeq, wantDown)
	}
	for i := range wantDown {
		if tierSeq[i] != wantDown[i] {
			t.Fatalf("descent visited tiers %v, want %v (rung skipped or reordered)", tierSeq, wantDown)
		}
	}
	if got := st.Get("QualityDemote").Messages; got != 3 {
		t.Fatalf("QualityDemote stat = %d, want 3", got)
	}
	hs := r.Health()
	if hs.State != HealthDegraded {
		t.Fatalf("keyframe-only remote reports health %v, want degraded", hs.State)
	}
	if hs.Tier != TierKeyframeOnly || hs.TierTransitions != 3 || hs.TierFlaps != 0 {
		t.Fatalf("health snapshot tier fields = %v/%d/%d, want keyframe/3/0",
			hs.Tier, hs.TierTransitions, hs.TierFlaps)
	}
	r.sh.Mu.Lock()
	pendingEmpty := r.pending.Empty()
	r.sh.Mu.Unlock()
	if !pendingEmpty {
		t.Fatal("entering the keyframe tier must purge accumulated pending detail")
	}

	// The link heals: the remote climbs back rung by rung, and leaving a
	// lossy tier latches the full-refresh resync.
	cs.congested = false
	for i := 0; i < 40 && r.QualityTier() != TierFull; i++ {
		clock.Advance(50 * time.Millisecond)
		ladderSweep(h)
		observe()
	}
	want := append(wantDown, TierScaled, TierDecimated, TierFull)
	if len(tierSeq) != len(want) {
		t.Fatalf("full walk visited tiers %v, want %v", tierSeq, want)
	}
	for i := range want {
		if tierSeq[i] != want[i] {
			t.Fatalf("full walk visited tiers %v, want %v", tierSeq, want)
		}
	}
	if got := st.Get("QualityPromote").Messages; got != 3 {
		t.Fatalf("QualityPromote stat = %d, want 3", got)
	}
	if got := st.Get("QualityFlap").Messages; got != 0 {
		t.Fatalf("QualityFlap stat = %d, want 0 for a clean recovery", got)
	}
	hs = r.Health()
	if hs.State != HealthHealthy || hs.Tier != TierFull || hs.TierTransitions != 6 {
		t.Fatalf("after recovery: state=%v tier=%v transitions=%d, want healthy/full/6",
			hs.State, hs.Tier, hs.TierTransitions)
	}
	r.sh.Mu.Lock()
	refresh := r.refreshRequested
	r.sh.Mu.Unlock()
	if !refresh {
		t.Fatal("promotion out of a lossy tier must latch the refresh")
	}
}

// TestLadderLossSignalAndHysteresisBand drives the controller purely on
// RTCP RR loss: loss at or above LossDemote demotes, loss inside the
// (LossPromote, LossDemote) band freezes both streak clocks, and loss at
// or below LossPromote promotes. Reports older than FlapWindow must stop
// counting.
func TestLadderLossSignalAndHysteresisBand(t *testing.T) {
	lc := testLadderConfig()
	h, r, _, clock, _ := newLadderHarness(t, lc)

	setLoss := func(frac uint8) {
		r.sh.Mu.Lock()
		r.lastRR = ReceptionQuality{FractionLost: frac, Valid: true}
		r.lastRRAt = clock.Now()
		r.sh.Mu.Unlock()
	}

	// 25% loss (64/256) ≥ LossDemote: demote on streak.
	for i := 0; i < 10 && r.QualityTier() == TierFull; i++ {
		setLoss(64)
		clock.Advance(50 * time.Millisecond)
		ladderSweep(h)
	}
	if got := r.QualityTier(); got != TierDecimated {
		t.Fatalf("tier under 25%% reported loss = %v, want decimated", got)
	}

	// ~7.8% loss (20/256) sits between LossPromote (3%) and LossDemote
	// (15%): both clocks frozen, no transition in either direction.
	for i := 0; i < 20; i++ {
		setLoss(20)
		clock.Advance(50 * time.Millisecond)
		ladderSweep(h)
	}
	if got := r.QualityTier(); got != TierDecimated {
		t.Fatalf("tier moved to %v inside the loss hysteresis band", got)
	}

	// Loss clears: promote after the clean streak.
	for i := 0; i < 10 && r.QualityTier() != TierFull; i++ {
		setLoss(0)
		clock.Advance(50 * time.Millisecond)
		ladderSweep(h)
	}
	if got := r.QualityTier(); got != TierFull {
		t.Fatalf("tier after loss cleared = %v, want full", got)
	}

	// A stale high-loss report (older than FlapWindow) must not demote:
	// with no fresh RR the path reads clean, and the remote stays put.
	setLoss(64)
	clock.Advance(lc.FlapWindow + time.Second)
	for i := 0; i < 10; i++ {
		clock.Advance(50 * time.Millisecond)
		ladderSweep(h)
	}
	if got := r.QualityTier(); got != TierFull {
		t.Fatalf("stale RR (past FlapWindow) still drives the ladder: tier %v", got)
	}
}

// TestLadderFlapBackoffDoublesPromoteWait checks the flap economics: a
// demotion inside FlapWindow of a promotion doubles the promote backoff
// (so the next climb demonstrably waits longer), a promotion that
// survives a clean FlapWindow earns the backoff back, and the backoff
// never exceeds MaxPromoteWait.
func TestLadderFlapBackoffDoublesPromoteWait(t *testing.T) {
	lc := testLadderConfig()
	h, r, cs, clock, st := newLadderHarness(t, lc)

	driveTo := func(target QualityTier, congested bool) {
		t.Helper()
		cs.congested = congested
		for i := 0; i < 80 && r.QualityTier() != target; i++ {
			clock.Advance(50 * time.Millisecond)
			ladderSweep(h)
		}
		if got := r.QualityTier(); got != target {
			t.Fatalf("failed to drive remote to %v (stuck at %v)", target, got)
		}
	}
	promoteWait := func() time.Duration {
		r.sh.Mu.Lock()
		defer r.sh.Mu.Unlock()
		return r.promoteWait
	}

	// Demote, promote, then squeeze again immediately: the re-demotion
	// lands inside FlapWindow of the promotion and charges a flap.
	driveTo(TierDecimated, true)
	driveTo(TierFull, false)
	driveTo(TierDecimated, true)
	if got := st.Get("QualityFlap").Messages; got != 1 {
		t.Fatalf("QualityFlap stat = %d, want 1", got)
	}
	if got := promoteWait(); got != 2*lc.PromoteAfter {
		t.Fatalf("promoteWait after one flap = %v, want %v", got, 2*lc.PromoteAfter)
	}
	if hs := r.Health(); hs.TierFlaps != 1 {
		t.Fatalf("health snapshot TierFlaps = %d, want 1", hs.TierFlaps)
	}

	// The doubled backoff is enforced: a clean streak that satisfies the
	// base PromoteAfter (200ms) but not the doubled wait (400ms) must not
	// promote yet.
	// The first clean sweep only starts the streak clock, so sweep k
	// observes a streak of 50ms*(k-1).
	cs.congested = false
	for i := 0; i < 8; i++ { // streak reaches 350ms: past base, short of doubled
		clock.Advance(50 * time.Millisecond)
		ladderSweep(h)
	}
	if got := r.QualityTier(); got != TierDecimated {
		t.Fatalf("promoted at %v of clean streak despite doubled backoff", 350*time.Millisecond)
	}
	clock.Advance(50 * time.Millisecond) // streak 400ms: doubled wait satisfied
	ladderSweep(h)
	if got := r.QualityTier(); got != TierFull {
		t.Fatalf("tier after doubled backoff elapsed = %v, want full", got)
	}

	// Surviving a full clean FlapWindow decays the backoff to base.
	for i := 0; i < 25; i++ {
		clock.Advance(50 * time.Millisecond)
		ladderSweep(h)
	}
	if got := promoteWait(); got != lc.PromoteAfter {
		t.Fatalf("promoteWait after clean FlapWindow = %v, want decay to %v", got, lc.PromoteAfter)
	}

	// The backoff cap: a flap with the backoff near MaxPromoteWait clamps
	// at the cap instead of doubling past it.
	r.sh.Mu.Lock()
	r.promoteWait = lc.MaxPromoteWait - 200*time.Millisecond
	r.lastPromoteAt = clock.Now()
	r.sh.Mu.Unlock()
	driveTo(TierDecimated, true)
	if got := promoteWait(); got != lc.MaxPromoteWait {
		t.Fatalf("promoteWait after flap near cap = %v, want clamp at %v", got, lc.MaxPromoteWait)
	}
}

// TestLadderNoHysteresisReactsInstantly covers the mutation-check switch
// netsim uses to prove the flap assertions discriminate: with
// NoHysteresis the controller acts on the instantaneous signal — one
// rung per sweep, no dwell, no streaks, and no flap accounting.
func TestLadderNoHysteresisReactsInstantly(t *testing.T) {
	lc := testLadderConfig()
	lc.NoHysteresis = true
	h, r, cs, clock, st := newLadderHarness(t, lc)

	cs.congested = true
	for i := 0; i < 3; i++ {
		clock.Advance(time.Millisecond)
		ladderSweep(h)
	}
	if got := r.QualityTier(); got != TierKeyframeOnly {
		t.Fatalf("tier after 3 congested sweeps (3ms) = %v, want keyframe", got)
	}
	cs.congested = false
	for i := 0; i < 3; i++ {
		clock.Advance(time.Millisecond)
		ladderSweep(h)
	}
	if got := r.QualityTier(); got != TierFull {
		t.Fatalf("tier after 3 clean sweeps = %v, want full", got)
	}
	if got := st.Get("QualityFlap").Messages; got != 0 {
		t.Fatalf("NoHysteresis mode charged %d flaps, want 0", got)
	}
	if got := st.Get("QualityDemote").Messages + st.Get("QualityPromote").Messages; got != 6 {
		t.Fatalf("transitions = %d, want 6", got)
	}
}

// TestLadderPinnedDecimationSendsEveryNth pins a live TCP remote on the
// decimated tier (no ladder config: the tier parameters fall back to
// the defaults) and verifies delivery cadence end to end: the viewer's
// pixels go stale on off-cycle ticks and converge — with the folded
// damage coalesced — on every DefaultDecimateEvery'th tick.
func TestLadderPinnedDecimationSendsEveryNth(t *testing.T) {
	h, w := newHost(t, Config{})
	defer h.Close()
	hostEnd, partEnd := streamPair()
	p := participant.New(participant.Config{})
	pump(t, p, partEnd)
	r, err := h.AttachStream("dec", hostEnd, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	settle()
	if err := h.Tick(); err != nil { // flush attach-time state
		t.Fatal(err)
	}
	settle()

	r.PinQualityTier(TierDecimated)
	if got := r.QualityTier(); got != TierDecimated {
		t.Fatalf("pinned tier = %v, want decimated", got)
	}
	inner := region.XYWH(10, 10, 60, 40)
	for i := 0; i < 2*DefaultDecimateEvery; i++ {
		// Every tick fills a distinct color, so a stale viewer can never
		// accidentally equal the current host state.
		w.Fill(inner, color.RGBA{uint8(20 * (i + 1)), 0, uint8(255 - 20*i), 0xFF})
		if err := h.Tick(); err != nil {
			t.Fatal(err)
		}
		if (i+1)%DefaultDecimateEvery == 0 {
			// Ship tick: wait for the coalesced update to land.
			if !waitConverged(p, w) {
				t.Fatalf("tick %d: viewer did not converge on a ship tick", i+1)
			}
			continue
		}
		// Off-cycle tick: the update was folded, not shipped, so the
		// viewer must lag the host no matter how long we wait.
		settle()
		img := p.WindowImage(w.ID())
		if img != nil && bytes.Equal(img.Pix, w.Snapshot().Pix) {
			t.Fatalf("tick %d: viewer converged on an off-cycle tick", i+1)
		}
	}
}

// waitConverged polls until the participant's window image is
// byte-identical to the host window, bounding the pump goroutine's
// scheduling delay instead of guessing it with one sleep.
func waitConverged(p *participant.Participant, w *display.Window) bool {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		img := p.WindowImage(w.ID())
		if img != nil && bytes.Equal(img.Pix, w.Snapshot().Pix) {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// TestLadderPinnedScaledTierPixelatesAndResyncsOnPromotion pins a live
// remote on the scaled tier, draws 1px stripes, and verifies the viewer
// receives block-uniform (pixelated) content that differs from the
// host's framebuffer — then pins back to full and verifies the
// promotion resync converges the viewer byte-identically.
func TestLadderPinnedScaledTierPixelatesAndResyncsOnPromotion(t *testing.T) {
	h, w := newHost(t, Config{})
	defer h.Close()
	hostEnd, partEnd := streamPair()
	p := participant.New(participant.Config{})
	pump(t, p, partEnd)
	r, err := h.AttachStream("scaled", hostEnd, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	settle()
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	settle()

	r.PinQualityTier(TierScaled)
	// 1px vertical stripes in a block-aligned square: pixelation by
	// DefaultScaleBlock replaces each block with its top-left pixel, so
	// the viewer should see flat blocks where the host has stripes.
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
	if host.RGBAAt(17, 16) == host.RGBAAt(16, 16) {
		t.Fatal("test bug: host stripes did not render")
	}
	// Wait for the pixelated update to land (the block corner takes the
	// host's top-left pixel) instead of trusting one sleep to cover the
	// pump goroutine's scheduling delay.
	deadline := time.Now().Add(5 * time.Second)
	var img *image.RGBA
	for time.Now().Before(deadline) {
		img = p.WindowImage(w.ID())
		if img != nil && img.RGBAAt(16, 16) == host.RGBAAt(16, 16) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if img == nil {
		t.Fatal("no window image")
	}
	if got := img.RGBAAt(16, 16); got != host.RGBAAt(16, 16) {
		t.Fatalf("block corner = %v, want the host's top-left pixel %v", got, host.RGBAAt(16, 16))
	}
	for _, x := range []int{17, 18, 19} {
		if got := img.RGBAAt(x, 16); got != img.RGBAAt(16, 16) {
			t.Fatalf("scaled tier not block-uniform: (%d,16)=%v vs (16,16)=%v",
				x, got, img.RGBAAt(16, 16))
		}
	}
	if bytes.Equal(img.Pix, host.Pix) {
		t.Fatal("scaled tier delivered full-fidelity pixels")
	}

	// Pinning back up out of the lossy tier owes the viewer a resync.
	r.PinQualityTier(TierFull)
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	if !waitConverged(p, w) {
		t.Fatal("viewer did not converge after promotion resync")
	}
}
