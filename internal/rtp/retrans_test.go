package rtp

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// fifoLog is the log the ring replaced — a map beside an eviction queue
// — kept here as the reference the ring's retention is compared against.
type fifoLog struct {
	max   int
	bySeq map[uint16][]byte
	queue []uint16
}

func (f *fifoLog) put(seq uint16, payload []byte) {
	if _, dup := f.bySeq[seq]; dup {
		f.bySeq[seq] = payload
		return
	}
	if len(f.queue) >= f.max {
		delete(f.bySeq, f.queue[0])
		f.queue = f.queue[1:]
	}
	f.bySeq[seq] = payload
	f.queue = append(f.queue, seq)
}

func TestRetransLogEvictsLikeFIFOForConsecutiveSeqs(t *testing.T) {
	for _, tc := range []struct {
		max   int
		start uint16
		count int
	}{
		{max: 1, start: 10, count: 5},
		{max: 4, start: 0, count: 3},       // never fills
		{max: 4, start: 0xFFFD, count: 40}, // crosses the 16-bit wrap
		{max: 64, start: 65000, count: 2000},
		{max: 1024, start: 0xFF00, count: 5000},
	} {
		t.Run(fmt.Sprintf("max=%d/start=%d", tc.max, tc.start), func(t *testing.T) {
			ring := NewRetransLog(tc.max)
			ref := &fifoLog{max: tc.max, bySeq: map[uint16][]byte{}}
			for i := 0; i < tc.count; i++ {
				seq := tc.start + uint16(i)
				payload := []byte{byte(i), byte(i >> 8)}
				ring.Put(LoggedPacket{Seq: seq, Payload: payload, Timestamp: uint32(i), Marker: i%3 == 0})
				ref.put(seq, payload)

				if ring.Len() != len(ref.queue) {
					t.Fatalf("after %d puts: ring holds %d, FIFO %d", i+1, ring.Len(), len(ref.queue))
				}
				// Everything the FIFO retains the ring serves; the packet
				// the FIFO just evicted, the ring has evicted too.
				for _, s := range ref.queue {
					e, ok := ring.Get(s)
					if !ok || !bytes.Equal(e.Payload, ref.bySeq[s]) {
						t.Fatalf("after %d puts: seq %d retained by the FIFO, ring has ok=%v payload=%v", i+1, s, ok, e.Payload)
					}
				}
				if evicted := seq - uint16(tc.max); i >= tc.max {
					if _, ok := ring.Get(evicted); ok {
						t.Fatalf("after %d puts: seq %d still served past the bound", i+1, evicted)
					}
				}
			}
			// Each walks oldest first — the FIFO's queue order.
			var order []uint16
			ring.Each(func(e LoggedPacket) { order = append(order, e.Seq) })
			if fmt.Sprint(order) != fmt.Sprint(ref.queue) {
				t.Fatalf("Each order %v, FIFO queue %v", order, ref.queue)
			}
		})
	}
}

// TestRetransLogSeqWrapReuseServesNewPacket: a sequence number logged
// again while its old packet is still retained (the 16-bit space
// wrapped) replaces it in place, and later evictions treat it as one
// entry — the aliasing a queue-beside-a-map log had to patch around.
func TestRetransLogSeqWrapReuseServesNewPacket(t *testing.T) {
	l := NewRetransLog(4)
	put := func(seq uint16, tag byte) { l.Put(LoggedPacket{Seq: seq, Payload: []byte{tag}}) }
	put(1, 'a')
	put(2, 'a')
	put(3, 'a')
	put(1, 'b')
	put(4, 'a')
	if e, ok := l.Get(1); !ok || e.Payload[0] != 'b' {
		t.Fatalf("Get(1) = %q, %v; want the re-logged packet 'b'", e.Payload, ok)
	}
	if l.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (the reuse must not double-count)", l.Len())
	}
	put(5, 'a')
	if _, ok := l.Get(1); ok {
		t.Fatal("seq 1 survived the packet that took its slot")
	}
	if l.Len() != 4 {
		t.Fatalf("Len = %d after eviction, want 4", l.Len())
	}
}

// TestRetransLogGapFromShortSend: a short-count SendBatch stamps
// sequence numbers whose packets never left; they are not logged, and a
// NACK for one must find nothing — not a neighbour, not a stale packet.
func TestRetransLogGapFromShortSend(t *testing.T) {
	l := NewRetransLog(8)
	for _, seq := range []uint16{100, 101 /* 102, 103 never sent */, 104, 105} {
		l.Put(LoggedPacket{Seq: seq, Payload: []byte{byte(seq)}})
	}
	for _, seq := range []uint16{102, 103} {
		if e, ok := l.Get(seq); ok {
			t.Fatalf("Get(%d) in the gap returned %+v", seq, e)
		}
	}
	for _, seq := range []uint16{100, 101, 104, 105} {
		if e, ok := l.Get(seq); !ok || e.Payload[0] != byte(seq) {
			t.Fatalf("Get(%d) = %+v, %v", seq, e, ok)
		}
	}
	if l.Len() != 4 {
		t.Fatalf("Len = %d, want 4", l.Len())
	}
	var order []uint16
	l.Each(func(e LoggedPacket) { order = append(order, e.Seq) })
	if fmt.Sprint(order) != "[100 101 104 105]" {
		t.Fatalf("Each order %v", order)
	}
}

// TestRetransLogGrowsGeometricallyToItsBound: a joiner's log starts at a
// few slots, doubles as the stream grows and stops at the bound — a
// flash crowd does not preallocate a full log per joiner.
func TestRetransLogGrowsGeometricallyToItsBound(t *testing.T) {
	l := NewRetransLog(1000) // rounds up to 1024
	if l.slots != nil {
		t.Fatalf("an unused log already holds %d slots", len(l.slots))
	}
	sizes := map[int]bool{}
	for i := 0; i < 5000; i++ {
		l.Put(LoggedPacket{Seq: uint16(i)})
		sizes[len(l.slots)] = true
		if len(l.slots) < min(i+1, 1024) {
			t.Fatalf("after %d puts the ring has %d slots: packets inside the bound were evicted", i+1, len(l.slots))
		}
	}
	if len(sizes) != 7 || !sizes[minRetransSlots] || !sizes[1024] || sizes[2048] {
		t.Fatalf("ring sizes seen %v, want the doublings from %d to 1024", sizes, minRetransSlots)
	}
	if l.Len() != 1024 {
		t.Fatalf("Len = %d, want 1024", l.Len())
	}
	if got := NewRetransLog(1 << 20).max; got != maxRetransSlots {
		t.Fatalf("bound %d, want the sequence space %d", got, maxRetransSlots)
	}
	if got := NewRetransLog(-3).max; got != 1 {
		t.Fatalf("bound %d for a negative request, want 1", got)
	}
}

// TestRestampedPacketEqualsOriginalDatagram: a NACK reply rebuilt from
// the log entry is byte-equal to the datagram first sent, across the
// sequence wrap, whatever the packetizer has sent since.
func TestRestampedPacketEqualsOriginalDatagram(t *testing.T) {
	origin := time.Unix(1_700_000_000, 0)
	_, pz := twinPacketizers(0x1234ABCD, 99, 0xFFFA, origin, 0xFFFFFF00)
	l := NewRetransLog(16)
	var sent [][]byte
	var seqs []uint16
	for i := 0; i < 12; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 1+i*7)
		marker := i%4 == 3
		ts := pz.Timestamp(origin.Add(time.Duration(i) * 33 * time.Millisecond))
		seq := pz.NextSequence()
		sent = append(sent, pz.AppendPacket(nil, payload, marker, ts))
		l.Put(LoggedPacket{Payload: payload, Timestamp: ts, Seq: seq, Marker: marker})
		seqs = append(seqs, seq)
	}
	next := pz.NextSequence()
	var a Arena
	for i, seq := range seqs {
		e, ok := l.Get(seq)
		if !ok {
			t.Fatalf("seq %d not logged", seq)
		}
		if got := a.Restamp(pz, e); !bytes.Equal(got, sent[i]) {
			t.Fatalf("seq %d re-stamped\n got %x\nwant %x", seq, got, sent[i])
		}
	}
	if pz.NextSequence() != next {
		t.Fatal("re-stamping advanced the packetizer's sequence counter")
	}
}
