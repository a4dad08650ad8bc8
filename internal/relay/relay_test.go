package relay

import (
	"image/color"
	"io"
	"sync"
	"testing"
	"time"

	"appshare/internal/ah"
	"appshare/internal/display"
	"appshare/internal/participant"
	"appshare/internal/region"
	"appshare/internal/rtcp"
	"appshare/internal/rtp"
	"appshare/internal/transport"
)

var (
	red  = color.RGBA{0xFF, 0, 0, 0xFF}
	blue = color.RGBA{0, 0, 0xFF, 0xFF}
)

// fakeClock is a manually-advanced time source shared by host and relay.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0).UTC()}
}

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

// relayViewer is a participant attached to the relay over an in-memory
// packet link, with every received raw packet retained for inspection.
type relayViewer struct {
	p    *participant.Participant
	conn transport.PacketConn // test side of the pipe
	v    *Viewer

	mu   sync.Mutex
	raws [][]byte
	done chan struct{}
}

// attachViewer joins a new viewer to rl and pumps its downlink.
func attachViewer(t *testing.T, rl *Relay, id string) *relayViewer {
	t.Helper()
	relaySide, testSide := transport.Pipe(transport.LinkConfig{Seed: 1}, transport.LinkConfig{Seed: 2})
	v, err := rl.AttachPacketConn(id, relaySide)
	if err != nil {
		t.Fatal(err)
	}
	rv := &relayViewer{
		p:    participant.New(participant.Config{}),
		conn: testSide,
		v:    v,
		done: make(chan struct{}),
	}
	go func() {
		defer close(rv.done)
		for {
			pkt, err := testSide.Recv()
			if err != nil {
				return
			}
			rv.mu.Lock()
			rv.raws = append(rv.raws, append([]byte(nil), pkt...))
			rv.mu.Unlock()
			_ = rv.p.HandlePacket(pkt)
		}
	}()
	return rv
}

func (rv *relayViewer) packets() [][]byte {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	out := make([][]byte, len(rv.raws))
	copy(out, rv.raws)
	return out
}

// settle gives the async pipes a moment to drain.
func settle() { time.Sleep(30 * time.Millisecond) }

// ent returns a deterministic entropy source.
func ent() func() uint32 {
	var x uint32 = 0x1234567
	return func() uint32 {
		x = x*1664525 + 1013904223
		return x
	}
}

func newOrigin(t *testing.T, clk *fakeClock, streamID uint32) (*ah.Host, *display.Window) {
	t.Helper()
	d := display.NewDesktop(640, 480)
	w := d.CreateWindow(1, region.XYWH(40, 30, 200, 160))
	h, err := ah.New(ah.Config{
		Desktop:  d,
		StreamID: streamID,
		Now:      clk.Now,
		Entropy:  ent(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return h, w
}

func wantPixel(t *testing.T, rv *relayViewer, winID uint16, x, y int, want color.RGBA, what string) {
	t.Helper()
	img := rv.p.WindowImage(winID)
	if img == nil {
		t.Fatalf("%s: no window image", what)
	}
	if got := img.RGBAAt(x, y); got != want {
		t.Fatalf("%s: pixel (%d,%d) = %v, want %v", what, x, y, got, want)
	}
}

// TestRelayCascadeEndToEnd drives origin → relay → viewers in-process:
// the first viewer converges through the relay's re-fanned batches, a
// late joiner paints from the relay's cache, and the origin's refresh
// encodes stay a function of the cadence alone.
func TestRelayCascadeEndToEnd(t *testing.T) {
	clk := newFakeClock()
	h, w := newOrigin(t, clk, 7)
	defer h.Close()

	rl := New(Config{
		StreamID:           7,
		RefreshEvery:       3,
		MinRefreshInterval: -1,
		Now:                clk.Now,
		Entropy:            ent(),
	})
	defer rl.Close()
	if err := rl.AttachUpstream(h, true); err != nil {
		t.Fatal(err)
	}

	// The attach latched a snapshot request: the first tick must seed
	// the relay's cache without any viewer asking.
	w.Fill(region.XYWH(0, 0, 200, 160), red)
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	if got := rl.Stats().CacheRefills; got != 1 {
		t.Fatalf("cache refills after seeding tick = %d, want 1", got)
	}
	if got := h.ServedRefreshes(); got != 1 {
		t.Fatalf("origin served refreshes = %d, want 1", got)
	}

	v1 := attachViewer(t, rl, "v1")
	settle()
	// v1 joined with a cache present: first paint served at attach.
	wantPixel(t, v1, w.ID(), 10, 10, red, "v1 cache paint")
	if got := rl.Stats().CacheServes; got != 1 {
		t.Fatalf("cache serves after v1 join = %d, want 1", got)
	}

	// Deltas flow through ForwardBatch.
	clk.Advance(time.Second)
	w.Fill(region.XYWH(0, 0, 50, 40), blue)
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	settle()
	wantPixel(t, v1, w.ID(), 10, 10, blue, "v1 delta")
	wantPixel(t, v1, w.ID(), 100, 100, red, "v1 untouched region")

	// Late joiner: painted from the (stale) cache immediately, then
	// repainted by the next cadence refill's snapshot.
	v2 := attachViewer(t, rl, "v2")
	settle()
	wantPixel(t, v2, w.ID(), 100, 100, red, "v2 stale cache paint")

	served := h.ServedRefreshes()
	// Two more ticks: batch 3 triggers the cadence refill, batch 4's
	// tick serves the snapshot (RefreshEvery=3).
	for i := 0; i < 2; i++ {
		clk.Advance(time.Second)
		w.Fill(region.XYWH(60+i*10, 0, 10, 10), blue)
		if err := h.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	settle()
	wantPixel(t, v2, w.ID(), 10, 10, blue, "v2 after refill snapshot")
	if got := h.ServedRefreshes(); got != served+1 {
		t.Fatalf("origin served refreshes = %d, want %d (cadence only)", got, served+1)
	}
	st := rl.Stats()
	if st.CacheRefills != 2 {
		t.Fatalf("cache refills = %d, want 2", st.CacheRefills)
	}
	if st.UpstreamRefreshRequests != 1 {
		t.Fatalf("upstream refresh requests = %d, want 1", st.UpstreamRefreshRequests)
	}
	if rl.Viewers() != 2 {
		t.Fatalf("viewers = %d, want 2", rl.Viewers())
	}
}

// TestRelayPLIAbsorption verifies a viewer's PLI is served from the
// relay cache — and never reaches the origin — and that the per-viewer
// rate limiter absorbs repeats.
func TestRelayPLIAbsorption(t *testing.T) {
	clk := newFakeClock()
	h, w := newOrigin(t, clk, 9)
	defer h.Close()

	rl := New(Config{
		StreamID:           9,
		MinRefreshInterval: time.Second,
		Now:                clk.Now,
		Entropy:            ent(),
	})
	defer rl.Close()
	if err := rl.AttachUpstream(h, true); err != nil {
		t.Fatal(err)
	}
	w.Fill(region.XYWH(0, 0, 200, 160), red)
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	v := attachViewer(t, rl, "v1")
	settle()
	origin := h.ServedRefreshes()
	before := len(v.packets())

	pli, err := rtcp.Marshal(&rtcp.PLI{SenderSSRC: 1, MediaSSRC: v.v.SSRC()})
	if err != nil {
		t.Fatal(err)
	}

	// Inside the rate-limit window of the join-time serve: absorbed.
	if err := v.conn.Send(pli); err != nil {
		t.Fatal(err)
	}
	settle()
	if got := v.v.AbsorbedPLIs(); got != 1 {
		t.Fatalf("absorbed PLIs = %d, want 1", got)
	}
	if got := len(v.packets()); got != before {
		t.Fatalf("absorbed PLI still shipped %d packets", got-before)
	}

	// Outside the window: served from the cache.
	clk.Advance(2 * time.Second)
	if err := v.conn.Send(pli); err != nil {
		t.Fatal(err)
	}
	settle()
	if got := len(v.packets()); got <= before {
		t.Fatal("PLI outside the window served nothing")
	}
	wantPixel(t, v, w.ID(), 10, 10, red, "post-PLI cache serve")

	// Neither PLI generated origin refresh work.
	if got := h.ServedRefreshes(); got != origin {
		t.Fatalf("origin served refreshes moved %d → %d on edge PLIs", origin, got)
	}
}

// TestRelayNACKRetransmission verifies NACKs are served byte-identical
// from the viewer's local retransmission log.
func TestRelayNACKRetransmission(t *testing.T) {
	clk := newFakeClock()
	h, w := newOrigin(t, clk, 11)
	defer h.Close()

	rl := New(Config{StreamID: 11, MinRefreshInterval: -1, Now: clk.Now, Entropy: ent()})
	defer rl.Close()
	if err := rl.AttachUpstream(h, true); err != nil {
		t.Fatal(err)
	}
	w.Fill(region.XYWH(0, 0, 200, 160), red)
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	v := attachViewer(t, rl, "v1")
	settle()

	pkts := v.packets()
	if len(pkts) == 0 {
		t.Fatal("no packets shipped")
	}
	var hdr rtp.Header
	if _, err := hdr.Unmarshal(pkts[0]); err != nil {
		t.Fatal(err)
	}
	before := len(pkts)

	nack, err := rtcp.Marshal(&rtcp.NACK{
		SenderSSRC: 1,
		MediaSSRC:  v.v.SSRC(),
		Pairs:      rtcp.BuildNACKPairs([]uint16{hdr.SequenceNumber}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.conn.Send(nack); err != nil {
		t.Fatal(err)
	}
	settle()

	after := v.packets()
	if len(after) != before+1 {
		t.Fatalf("retransmissions shipped = %d, want 1", len(after)-before)
	}
	if string(after[len(after)-1]) != string(pkts[0]) {
		t.Fatal("retransmission is not byte-identical to the original")
	}
}

// TestRelayChainedChildRefresh verifies relay→relay chaining: a child's
// refresh demand is served from the parent's cache, never escalated to
// the origin.
func TestRelayChainedChildRefresh(t *testing.T) {
	clk := newFakeClock()
	h, w := newOrigin(t, clk, 13)
	defer h.Close()

	parent := New(Config{StreamID: 13, MinRefreshInterval: -1, Now: clk.Now, Entropy: ent()})
	defer parent.Close()
	if err := parent.AttachUpstream(h, true); err != nil {
		t.Fatal(err)
	}
	w.Fill(region.XYWH(0, 0, 200, 160), red)
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	origin := h.ServedRefreshes()

	// Child attaches wanting a refresh: the parent holds a cache, so
	// the request latches there and must NOT escalate.
	child := New(Config{StreamID: 13, MinRefreshInterval: -1, Now: clk.Now, Entropy: ent()})
	defer child.Close()
	if err := child.AttachUpstream(parent, true); err != nil {
		t.Fatal(err)
	}
	cv := attachViewer(t, child, "leaf")
	settle()

	// Next origin tick: the parent forwards the batch and serves the
	// child's latched refresh from its own cache.
	clk.Advance(time.Second)
	w.Fill(region.XYWH(0, 0, 30, 30), blue)
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	settle()

	if got := child.Stats().CacheRefills; got == 0 {
		t.Fatal("child cache never refilled from parent")
	}
	wantPixel(t, cv, w.ID(), 100, 100, red, "leaf viewer via two tiers")
	wantPixel(t, cv, w.ID(), 10, 10, blue, "leaf viewer delta via two tiers")
	if got := h.ServedRefreshes(); got != origin {
		t.Fatalf("child refresh escalated to origin: served %d → %d", origin, got)
	}
}

// duplex glues two io.Pipes into a ReadWriteCloser pair (the ah test
// harness idiom).
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

func streamPair() (a, b io.ReadWriteCloser) {
	ar, bw := io.Pipe()
	br, aw := io.Pipe()
	a = &duplex{Reader: ar, Writer: aw, closeR: func() error { return ar.Close() }, closeW: func() error { return aw.Close() }}
	b = &duplex{Reader: br, Writer: bw, closeR: func() error { return br.Close() }, closeW: func() error { return bw.Close() }}
	return a, b
}

// TestRelayWireSubscribe exercises the full wire handshake: the relay
// attaches to the origin as a stream participant, flips it to
// forward-only with RelaySubscribe, and receives descriptor-delimited
// refresh snapshots over the link.
func TestRelayWireSubscribe(t *testing.T) {
	clk := newFakeClock()
	h, w := newOrigin(t, clk, 21)
	defer h.Close()

	rl := New(Config{StreamID: 21, MinRefreshInterval: -1, Now: clk.Now, Entropy: ent()})
	defer rl.Close()

	hostEnd, relayEnd := streamPair()
	attachErr := make(chan error, 1)
	go func() {
		// AttachStream pushes initial state synchronously; the relay
		// pump (started by SubscribeStream) drains it.
		_, err := h.AttachStream("relay-edge", hostEnd, ah.StreamOptions{})
		attachErr <- err
	}()
	done, err := rl.SubscribeStream(relayEnd, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-attachErr; err != nil {
		t.Fatal(err)
	}
	settle()

	// The handshake latched a refresh: this tick ships a descriptor-
	// delimited snapshot that seeds the relay cache.
	w.Fill(region.XYWH(0, 0, 200, 160), red)
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	settle()
	if got := rl.Stats().CacheRefills; got != 1 {
		t.Fatalf("cache refills over the wire = %d, want 1", got)
	}
	if got := h.ServedRefreshes(); got != 1 {
		t.Fatalf("origin served refreshes = %d, want 1", got)
	}

	v := attachViewer(t, rl, "v1")
	settle()
	wantPixel(t, v, w.ID(), 10, 10, red, "wire-relayed cache paint")

	// Deltas ride the same link as re-stamped batches.
	clk.Advance(time.Second)
	w.Fill(region.XYWH(0, 0, 40, 40), blue)
	if err := h.Tick(); err != nil {
		t.Fatal(err)
	}
	settle()
	wantPixel(t, v, w.ID(), 10, 10, blue, "wire-relayed delta")
	wantPixel(t, v, w.ID(), 100, 100, red, "wire-relayed untouched region")

	select {
	case err := <-done:
		t.Fatalf("wire pump died early: %v", err)
	default:
	}
}

// TestRelayAttachRacingCloseLeavesNoViewer: an attach that races Close
// is either refused or swept up by it. Whichever way each round falls,
// once both calls have returned the relay holds no viewer and the conn
// is closed — no live viewer and pump goroutine on a closed relay.
func TestRelayAttachRacingCloseLeavesNoViewer(t *testing.T) {
	for round := 0; round < 200; round++ {
		rl := New(Config{StreamID: 3, Entropy: ent()})
		conn := newDiscardConn()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, _ = rl.AttachPacketConn("v", conn)
		}()
		go func() {
			defer wg.Done()
			_ = rl.Close()
		}()
		wg.Wait()
		if n := rl.Viewers(); n != 0 {
			t.Fatalf("round %d: closed relay holds %d viewers", round, n)
		}
		select {
		case <-conn.dead:
		default:
			t.Fatalf("round %d: closed relay left the viewer's conn open", round)
		}
	}
}
