package transport

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"time"
)

func TestPipeDelivery(t *testing.T) {
	a, b := Pipe(LinkConfig{Seed: 1}, LinkConfig{Seed: 2})
	defer a.Close()
	defer b.Close()
	if err := a.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	pkt, err := b.Recv()
	if err != nil || string(pkt) != "hello" {
		t.Fatalf("recv = %q, %v", pkt, err)
	}
	// Reverse direction.
	if err := b.Send([]byte("world")); err != nil {
		t.Fatal(err)
	}
	pkt, err = a.Recv()
	if err != nil || string(pkt) != "world" {
		t.Fatalf("recv = %q, %v", pkt, err)
	}
}

func TestPipeCopiesBuffers(t *testing.T) {
	a, b := Pipe(LinkConfig{Seed: 1}, LinkConfig{Seed: 2})
	defer a.Close()
	defer b.Close()
	buf := []byte("abc")
	if err := a.Send(buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X' // mutate after send
	pkt, err := b.Recv()
	if err != nil || string(pkt) != "abc" {
		t.Fatalf("recv = %q, want untouched copy", pkt)
	}
}

func TestPipeLoss(t *testing.T) {
	a, b := Pipe(LinkConfig{LossRate: 0.5, Seed: 42, QueueLen: 2048}, LinkConfig{Seed: 2})
	const n = 1000
	for i := 0; i < n; i++ {
		if err := a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Delivery is synchronous without Delay; close the receiver and
	// drain its buffered datagrams to EOF.
	b.Close()
	received := 0
	for {
		if _, err := b.Recv(); err != nil {
			break
		}
		received++
	}
	if received < 350 || received > 650 {
		t.Fatalf("received %d of %d at 50%% loss", received, n)
	}
	sent, dropped := a.(*endpoint).Stats()
	if sent != n || dropped != uint64(n-received) {
		t.Fatalf("stats = %d sent, %d dropped, received %d", sent, dropped, received)
	}
	a.Close()
}

func TestPipeReorder(t *testing.T) {
	a, b := Pipe(LinkConfig{ReorderRate: 0.3, Seed: 7}, LinkConfig{Seed: 2})
	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	a.Close() // flush any held reorder slot to the peer
	time.Sleep(10 * time.Millisecond)
	b.Close()
	var got []byte
	for {
		pkt, err := b.Recv()
		if err != nil {
			break
		}
		got = append(got, pkt[0])
	}
	if len(got) != n {
		t.Fatalf("received %d, want %d (reorder must not lose)", len(got), n)
	}
	inOrder := true
	seen := make(map[byte]bool)
	for i, v := range got {
		if i > 0 && v < got[i-1] && got[i-1]-v < 128 {
			inOrder = false
		}
		if seen[v] {
			t.Fatalf("duplicate %d", v)
		}
		seen[v] = true
	}
	if inOrder {
		t.Fatal("30% reorder produced fully ordered stream")
	}
}

func TestPipeDelay(t *testing.T) {
	a, b := Pipe(LinkConfig{Delay: 30 * time.Millisecond, Seed: 1}, LinkConfig{Seed: 2})
	defer a.Close()
	defer b.Close()
	start := time.Now()
	if err := a.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("delivered after %v, want >= ~30ms", elapsed)
	}
}

func TestPipeCloseSemantics(t *testing.T) {
	a, b := Pipe(LinkConfig{Seed: 1}, LinkConfig{Seed: 2})
	b.Close()
	if _, err := b.Recv(); err != io.EOF {
		t.Fatalf("recv on closed = %v, want io.EOF", err)
	}
	if err := b.Send([]byte("x")); err != ErrClosed {
		t.Fatalf("send on closed = %v, want ErrClosed", err)
	}
	// Sending to a closed peer silently drops.
	if err := a.Send([]byte("x")); err != nil {
		t.Fatalf("send to closed peer = %v", err)
	}
	a.Close()
}

func TestBusFanout(t *testing.T) {
	bus := NewBus()
	s1 := bus.Subscribe(LinkConfig{Seed: 1})
	s2 := bus.Subscribe(LinkConfig{Seed: 2})
	if bus.Subscribers() != 2 {
		t.Fatalf("subscribers = %d", bus.Subscribers())
	}
	bus.Publish([]byte("update"))
	for i, s := range []PacketConn{s1, s2} {
		pkt, err := s.Recv()
		if err != nil || string(pkt) != "update" {
			t.Fatalf("sub %d: %q, %v", i, pkt, err)
		}
	}
	// Unsubscribe removes from fanout.
	s2.Close()
	if bus.Subscribers() != 1 {
		t.Fatalf("subscribers after close = %d", bus.Subscribers())
	}
	bus.Publish([]byte("again"))
	if pkt, err := s1.Recv(); err != nil || string(pkt) != "again" {
		t.Fatalf("s1 after unsubscribe: %q, %v", pkt, err)
	}
	// Subscribers cannot send to the group.
	if err := s1.Send([]byte("x")); err == nil {
		t.Fatal("subscriber send should fail")
	}
}

func TestBusPerSubscriberLoss(t *testing.T) {
	bus := NewBus()
	clean := bus.Subscribe(LinkConfig{Seed: 3})
	lossy := bus.Subscribe(LinkConfig{LossRate: 0.9, Seed: 4})
	const n = 200
	for i := 0; i < n; i++ {
		bus.Publish([]byte{byte(i)})
	}
	cleanCount, lossyCount := 0, 0
	for i := 0; i < n; i++ {
		if _, err := clean.Recv(); err != nil {
			t.Fatalf("clean recv %d: %v", i, err)
		}
		cleanCount++
	}
	// Delivery is synchronous (no Delay configured), so closing now and
	// draining to EOF counts everything the lossy link let through.
	lossy.Close()
	for {
		if _, err := lossy.Recv(); err != nil {
			break
		}
		lossyCount++
	}
	if cleanCount != n {
		t.Fatalf("clean subscriber got %d/%d", cleanCount, n)
	}
	if lossyCount > n/2 {
		t.Fatalf("lossy subscriber got %d/%d at 90%% loss", lossyCount, n)
	}
}

func TestRatedWriterBacklogAndFlush(t *testing.T) {
	var out bytes.Buffer
	var mu sync.Mutex
	sync1 := &lockedWriter{w: &out, mu: &mu}
	rw := NewRatedWriter(sync1, 100_000) // 100 KB/s
	defer rw.Close()

	payload := bytes.Repeat([]byte{7}, 10_000) // 100ms worth
	if _, err := rw.Write(payload); err != nil {
		t.Fatal(err)
	}
	// Immediately after write there should be measurable backlog.
	if rw.Backlog() == 0 {
		t.Fatal("expected nonzero backlog right after write")
	}
	start := time.Now()
	if err := rw.Flush(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if rw.Backlog() != 0 {
		t.Fatal("backlog after flush")
	}
	mu.Lock()
	n := out.Len()
	mu.Unlock()
	if n != len(payload) {
		t.Fatalf("shipped %d bytes, want %d", n, len(payload))
	}
	// 10 KB at 100 KB/s is ~100ms; accept generous bounds.
	if elapsed < 50*time.Millisecond {
		t.Fatalf("drained too fast for the rate: %v", elapsed)
	}
}

func TestRatedWriterUnlimited(t *testing.T) {
	var out bytes.Buffer
	var mu sync.Mutex
	rw := NewRatedWriter(&lockedWriter{w: &out, mu: &mu}, 0)
	defer rw.Close()
	if _, err := rw.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := rw.Flush(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if out.String() != "abc" {
		t.Fatalf("out = %q", out.String())
	}
}

func TestRatedWriterErrorPropagates(t *testing.T) {
	rw := NewRatedWriter(failingWriter{}, 0)
	defer rw.Close()
	if _, err := rw.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := rw.Flush(); err == nil {
		t.Fatal("flush should report the sink error")
	}
	if _, err := rw.Write([]byte("more")); err == nil {
		t.Fatal("write after sink error should fail")
	}
}

func TestRatedWriterCloseDiscards(t *testing.T) {
	var out bytes.Buffer
	var mu sync.Mutex
	rw := NewRatedWriter(&lockedWriter{w: &out, mu: &mu}, 10) // 10 B/s: glacial
	if _, err := rw.Write(bytes.Repeat([]byte{1}, 10_000)); err != nil {
		t.Fatal(err)
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rw.Write([]byte("x")); err != ErrClosed {
		t.Fatalf("write after close = %v", err)
	}
}

type lockedWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// prefixConn is a PacketConn whose sends stop being accepted after a
// set number of datagrams; overReport makes its SendBatch claim more
// than it was handed.
type prefixConn struct {
	PacketConn
	accept     int
	sent       int
	overReport bool
}

var errPrefixFull = errors.New("prefixConn: full")

func (c *prefixConn) Send([]byte) error {
	if c.sent == c.accept {
		return errPrefixFull
	}
	c.sent++
	return nil
}

type prefixBatchConn struct{ *prefixConn }

func (c prefixBatchConn) SendBatch(pkts [][]byte) (int, error) {
	if c.overReport {
		return len(pkts) + 5, nil
	}
	return min(c.accept, len(pkts)), nil
}

// TestBatchedReportsTheAcceptedPrefix: with or without the conn's own
// BatchSender, Batched.SendBatch returns how many leading datagrams the
// conn took, never more than it was handed.
func TestBatchedReportsTheAcceptedPrefix(t *testing.T) {
	pkts := [][]byte{{1}, {2}, {3}}
	for _, tc := range []struct {
		name    string
		conn    PacketConn
		want    int
		wantErr error
	}{
		{"send loop, all accepted", &prefixConn{accept: 3}, 3, nil},
		{"send loop, failure at index 1", &prefixConn{accept: 1}, 1, errPrefixFull},
		{"batch sender, short count", prefixBatchConn{&prefixConn{accept: 2}}, 2, nil},
		{"batch sender, count beyond the batch", prefixBatchConn{&prefixConn{overReport: true}}, 3, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := Batch(tc.conn)
			n, err := b.SendBatch(pkts)
			if n != tc.want || !errors.Is(err, tc.wantErr) {
				t.Fatalf("SendBatch = (%d, %v), want (%d, %v)", n, err, tc.want, tc.wantErr)
			}
		})
	}
}
