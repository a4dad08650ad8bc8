package rtp

// minArenaBlock is the arena's first allocation: a few MTU-sized packets.
const minArenaBlock = 8 << 10

// Arena is reusable memory for one outgoing batch: every viewer's copy
// of a tick's packets differs only in the 12 header bytes, so a fan-out
// loop stamps each viewer's batch into the same arena, hands Packets()
// to the transport and starts over — no per-packet allocation. The
// transport contract (transport.PacketConn.Send) makes that safe: a
// sink copies or writes a datagram before returning and never keeps the
// slice.
//
// Packets stay valid until the next Reset. Not safe for concurrent use;
// on the send paths the owning shard's lock guards it.
type Arena struct {
	buf  []byte
	pkts [][]byte
}

// Reset forgets the previous batch, keeping its memory.
func (a *Arena) Reset() {
	a.buf = a.buf[:0]
	a.pkts = a.pkts[:0]
}

// Stamp appends pz's next packet carrying payload to the batch.
func (a *Arena) Stamp(pz *Packetizer, payload []byte, marker bool, ts uint32) {
	start := a.reserve(HeaderSize + len(payload))
	a.buf = pz.AppendPacket(a.buf, payload, marker, ts)
	a.pkts = append(a.pkts, a.buf[start:len(a.buf):len(a.buf)])
}

// Restamp starts the arena over and returns, stamped into it, the one
// packet pz already sent that e logs — byte-equal to the original
// datagram, a NACK reply. It is valid until the next Reset or Restamp.
func (a *Arena) Restamp(pz *Packetizer, e LoggedPacket) []byte {
	a.Reset()
	a.reserve(HeaderSize + len(e.Payload))
	a.buf = pz.AppendLogged(a.buf, e)
	return a.buf[:len(a.buf):len(a.buf)]
}

// reserve makes room for n more bytes without moving the packets
// already stamped, and returns the offset the next packet starts at.
// When the block is full a larger one takes over, and the earlier
// packets keep the old block alive until the next Reset. The block
// doubles, so it reaches the size of the largest batch within a few
// rounds and stays there.
func (a *Arena) reserve(n int) int {
	if cap(a.buf)-len(a.buf) < n {
		a.buf = make([]byte, 0, max(2*cap(a.buf), n, minArenaBlock))
	}
	return len(a.buf)
}

// Packets returns the batch stamped since the last Reset, in order.
func (a *Arena) Packets() [][]byte { return a.pkts }
