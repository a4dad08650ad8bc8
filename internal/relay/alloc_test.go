package relay

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"appshare/internal/ah"
	"appshare/internal/stats"
)

// discardConn is a viewer transport that accepts and drops, batched
// fast path included: all that is left of a send is the relay's own
// per-viewer work.
type discardConn struct {
	once sync.Once
	dead chan struct{}
}

func newDiscardConn() *discardConn { return &discardConn{dead: make(chan struct{})} }

func (c *discardConn) Send([]byte) error                    { return nil }
func (c *discardConn) SendBatch(pkts [][]byte) (int, error) { return len(pkts), nil }
func (c *discardConn) Recv() ([]byte, error) {
	<-c.dead
	return nil, io.EOF
}
func (c *discardConn) Close() error {
	c.once.Do(func() { close(c.dead) })
	return nil
}

// forwardAllocsPerBatch reports what one ForwardBatch of a fixed
// three-packet batch allocates with the given number of viewers.
func forwardAllocsPerBatch(t *testing.T, viewers int) float64 {
	t.Helper()
	// A small log, so every viewer's ring reaches its bound in warm-up;
	// a collector, so the per-kind tally is part of what is measured.
	rl := New(Config{StreamID: 3, RetransLog: 16, Entropy: ent(), Stats: stats.NewCollector()})
	defer rl.Close()
	for i := 0; i < viewers; i++ {
		if _, err := rl.AttachPacketConn(fmt.Sprintf("v%d", i), newDiscardConn()); err != nil {
			t.Fatal(err)
		}
	}
	batch := []ah.PreparedPayload{
		{Payload: bytes.Repeat([]byte{1}, 40), Kind: "WindowManagerInfo"},
		{Payload: bytes.Repeat([]byte{2}, 1200), Kind: "RegionUpdate"},
		{Payload: bytes.Repeat([]byte{3}, 700), Marker: true, Kind: "RegionUpdate"},
	}
	forward := func() {
		if err := rl.ForwardBatch(3, batch); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		forward()
	}
	return testing.AllocsPerRun(50, forward)
}

// TestRelayFanoutAllocatesNothingPerViewer: the relay re-fans on the
// same arena-and-ring path as the origin, and its log is always on — a
// forwarded batch must cost the same allocations into 256 viewers as
// into one.
func TestRelayFanoutAllocatesNothingPerViewer(t *testing.T) {
	const viewers = 256
	one := forwardAllocsPerBatch(t, 1)
	many := forwardAllocsPerBatch(t, viewers)
	perViewer := (many - one) / (viewers - 1)
	t.Logf("allocs/batch: %.1f with 1 viewer, %.1f with %d: %.3f per viewer", one, many, viewers, perViewer)
	// Exactly 0 in a plain build; the race detector's own bookkeeping
	// shows up as a few allocations per batch.
	if perViewer > 0.1 {
		t.Fatalf("a forwarded batch allocates %.3f times per viewer, want 0", perViewer)
	}
}

// TestRelayForwardBatchAllocatesNothing: a forwarded batch is re-fanned
// as the slice the upstream handed over — into a childless relay, with
// arena, rings and tally warm, that costs no allocation at all.
func TestRelayForwardBatchAllocatesNothing(t *testing.T) {
	if allocs := forwardAllocsPerBatch(t, 1); allocs != 0 {
		t.Fatalf("a forwarded batch allocates %.1f times, want 0", allocs)
	}
}

// TestRelayRejectsWidePayloadType: a payload type that does not fit the
// RTP header's 7 bits is refused when the first viewer attaches, the
// earliest point a Relay can report it.
func TestRelayRejectsWidePayloadType(t *testing.T) {
	rl := New(Config{RemotingPT: 200})
	defer rl.Close()
	if _, err := rl.AttachPacketConn("v", newDiscardConn()); err == nil {
		t.Fatal("viewer attached to a relay stamping payload type 200")
	}
}
