package rtp

import (
	"bytes"
	"testing"
	"time"
)

// twinPacketizers returns two packetizers in the same state, one to
// drive each of the paths under comparison.
func twinPacketizers(ssrc uint32, pt uint8, seq uint16, origin time.Time, offset uint32) (a, b *Packetizer) {
	st := PacketizerState{SSRC: ssrc, PT: pt, Seq: seq, ClockOrigin: origin.UnixNano(), ClockOffset: offset}
	return NewPacketizerFromState(st), NewPacketizerFromState(st)
}

// checkAppendMatchesMarshal stamps payloads through both paths and
// fails on the first differing byte or diverging sequence counter.
func checkAppendMatchesMarshal(t *testing.T, ref, pz *Packetizer, payloads [][]byte, markers []bool, at time.Time) {
	t.Helper()
	prefix := []byte("already in dst")
	dst := append([]byte(nil), prefix...)
	for i, payload := range payloads {
		want, err := ref.Packetize(payload, markers[i], at).Marshal()
		if err != nil {
			t.Fatalf("packet %d: Marshal: %v", i, err)
		}
		start := len(dst)
		dst = pz.AppendPacket(dst, payload, markers[i], pz.Timestamp(at))
		if got := dst[start:]; !bytes.Equal(got, want) {
			t.Fatalf("packet %d: AppendPacket\n got %x\nwant %x", i, got, want)
		}
		if pz.NextSequence() != ref.NextSequence() {
			t.Fatalf("packet %d: next sequence %d, reference %d", i, pz.NextSequence(), ref.NextSequence())
		}
	}
	if !bytes.HasPrefix(dst, prefix) {
		t.Fatal("AppendPacket disturbed the bytes already in dst")
	}
}

func TestAppendPacketMatchesMarshal(t *testing.T) {
	origin := time.Unix(1_700_000_000, 0)
	cases := []struct {
		name     string
		pt       uint8
		seq      uint16
		offset   uint32
		after    time.Duration
		payloads [][]byte
		markers  []bool
	}{
		{"plain", 99, 1, 0, 0, [][]byte{{1, 2, 3}}, []bool{false}},
		{"marker", 99, 1, 7, time.Second, [][]byte{{1, 2, 3}}, []bool{true}},
		{"empty payload", 100, 500, 0xDEADBEEF, time.Millisecond, [][]byte{{}, nil}, []bool{false, true}},
		{"pt zero", 0, 9, 1, 0, [][]byte{{0xFF}}, []bool{true}},
		{"pt max", 0x7F, 9, 1, 0, [][]byte{{0xFF}, {0xFE}}, []bool{true, false}},
		{"seq wraps", 99, 0xFFFE, 3, time.Hour, [][]byte{{1}, {2}, {3}, {4}}, []bool{false, true, false, true}},
		{"timestamp wraps", 99, 0, 0xFFFFFFF0, time.Second, [][]byte{{1}}, []bool{false}},
		{"mtu payload", 99, 40000, 12345, 33 * time.Millisecond, [][]byte{bytes.Repeat([]byte{0xA5}, 1200)}, []bool{true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, pz := twinPacketizers(0xCAFEBABE, tc.pt, tc.seq, origin, tc.offset)
			checkAppendMatchesMarshal(t, ref, pz, tc.payloads, tc.markers, origin.Add(tc.after))
		})
	}
}

func FuzzAppendPacket(f *testing.F) {
	f.Add(uint32(1), uint8(99), uint16(0xFFFF), uint32(0), int64(0), true, []byte{1, 2, 3})
	f.Add(uint32(0xFFFFFFFF), uint8(0x7F), uint16(0), uint32(0xFFFFFFFF), int64(1e12), false, []byte{})
	f.Fuzz(func(t *testing.T, ssrc uint32, pt uint8, seq uint16, offset uint32, afterNs int64, marker bool, payload []byte) {
		pt &= 0x7F // Marshal rejects wider payload types; constructors' callers validate
		origin := time.Unix(1_700_000_000, 0)
		ref, pz := twinPacketizers(ssrc, pt, seq, origin, offset)
		checkAppendMatchesMarshal(t, ref, pz,
			[][]byte{payload, payload}, []bool{marker, !marker}, origin.Add(time.Duration(afterNs)))
	})
}

// TestAppendPacketMasksWidePayloadType: a payload type wider than 7 bits
// must not read as the marker bit.
func TestAppendPacketMasksWidePayloadType(t *testing.T) {
	_, pz := twinPacketizers(1, 0xE3, 0, time.Unix(0, 0), 0)
	var hdr Header
	if _, err := hdr.Unmarshal(pz.AppendPacket(nil, []byte{1}, false, 0)); err != nil {
		t.Fatal(err)
	}
	if hdr.Marker || hdr.PayloadType != 0x63 {
		t.Fatalf("marker=%v pt=%#x, want marker clear and pt 0x63", hdr.Marker, hdr.PayloadType)
	}
}

func TestArenaPacketsSurviveGrowthAndReuse(t *testing.T) {
	_, pz := twinPacketizers(5, 99, 100, time.Unix(0, 0), 0)
	ref, _ := twinPacketizers(5, 99, 100, time.Unix(0, 0), 0)
	var a Arena
	payload := bytes.Repeat([]byte{7}, 1000)
	// 3 × the first block: the arena changes blocks mid-batch, and the
	// packets stamped before the change must stay intact.
	n := 3 * minArenaBlock / len(payload)
	var want [][]byte
	for i := 0; i < n; i++ {
		payload[0] = byte(i)
		a.Stamp(pz, payload, i%2 == 0, 42)
		w, err := ref.Packetize(payload, i%2 == 0, time.Unix(0, 0)).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, w)
	}
	got := a.Packets()
	if len(got) != n {
		t.Fatalf("arena holds %d packets, want %d", len(got), n)
	}
	for i := range got {
		// Timestamps differ (42 vs the reference clock's 0); compare the
		// rest of the datagram.
		if !bytes.Equal(got[i][:4], want[i][:4]) || !bytes.Equal(got[i][8:], want[i][8:]) {
			t.Fatalf("packet %d corrupted by a later Stamp", i)
		}
		if cap(got[i]) != len(got[i]) {
			t.Fatalf("packet %d has spare capacity %d: an append by a sink would overwrite its neighbour", i, cap(got[i])-len(got[i]))
		}
	}

	// Steady state: the same batch again costs no allocation.
	allocs := testing.AllocsPerRun(20, func() {
		a.Reset()
		for i := 0; i < n; i++ {
			a.Stamp(pz, payload, false, 42)
		}
	})
	if allocs != 0 {
		t.Fatalf("re-stamping a batch the arena has already held cost %.1f allocations, want 0", allocs)
	}
}
