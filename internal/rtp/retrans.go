package rtp

// LoggedPacket is what a sender must remember of a packet to send it
// again: the header fields that vary per packet, and a reference to the
// payload. The payload is NOT copied — on the fan-out paths it is the
// prepared payload every viewer of the tick shares, immutable once
// published — so logging a packet costs one slot, not one datagram.
type LoggedPacket struct {
	Payload   []byte
	Timestamp uint32
	Seq       uint16
	Marker    bool
}

// retransSlot is one ring position; used distinguishes an empty slot
// from a logged packet with sequence number zero and no payload.
type retransSlot struct {
	LoggedPacket
	used bool
}

// minRetransSlots is the ring's first allocation. A viewer that never
// needs a repair pays for this much; the ring doubles from here as its
// stream grows, up to the configured bound.
const minRetransSlots = 16

// maxRetransSlots is the sequence space: a larger ring could never fill.
const maxRetransSlots = 1 << 16

// RetransLog is a sender's bounded log of recently sent packets (draft
// Section 5.3.2: "AHs MAY support retransmissions"), a ring indexed by
// seq % N. Logging sequence number s overwrites whatever occupied its
// slot — for a stream of consecutive sequence numbers that is exactly
// packet s−N, the oldest, so the ring holds the last N packets like a
// FIFO would. A lookup compares the slot's own sequence number, so a
// number reused after the 16-bit space wrapped finds the new packet or
// nothing, never the old one: there is no second index to fall out of
// step with.
//
// N is a power of two (so seq % N is continuous across the 65535→0
// wrap), starts small and doubles on demand up to the bound given to
// NewRetransLog rounded up to a power of two. Not safe for concurrent
// use; the owner's lock guards it like the packetizer it accompanies.
type RetransLog struct {
	slots []retransSlot
	max   int
	n     int
	// last is the most recently logged sequence number, the newest end
	// of the window Each walks.
	last uint16
}

// NewRetransLog returns an empty log retaining at least the last max
// packets (max rounded up to a power of two, clamped to [1, 65536]).
func NewRetransLog(max int) *RetransLog {
	size := 1
	for size < max && size < maxRetransSlots {
		size <<= 1
	}
	return &RetransLog{max: size}
}

// Len returns the number of packets currently logged.
func (l *RetransLog) Len() int { return l.n }

// slot returns the ring position sequence number seq maps to.
func (l *RetransLog) slot(seq uint16) *retransSlot {
	return &l.slots[int(seq)&(len(l.slots)-1)]
}

// Put logs one sent packet, evicting the packet N sequence numbers
// before it once the ring has reached its bound.
func (l *RetransLog) Put(e LoggedPacket) {
	if l.slots == nil {
		l.slots = make([]retransSlot, min(l.max, minRetransSlots))
	}
	s := l.slot(e.Seq)
	for s.used && s.Seq != e.Seq && len(l.slots) < l.max {
		l.grow()
		s = l.slot(e.Seq)
	}
	if !s.used {
		l.n++
	}
	*s = retransSlot{LoggedPacket: e, used: true}
	l.last = e.Seq
}

// grow doubles the ring. Logged sequence numbers are distinct modulo the
// old size, hence distinct modulo the new one: re-placing never collides.
func (l *RetransLog) grow() {
	old := l.slots
	l.slots = make([]retransSlot, 2*len(old))
	for _, s := range old {
		if s.used {
			*l.slot(s.Seq) = s
		}
	}
}

// Get returns the logged packet with the given sequence number, if it
// is still retained.
func (l *RetransLog) Get(seq uint16) (LoggedPacket, bool) {
	if l.slots == nil {
		return LoggedPacket{}, false
	}
	if s := l.slot(seq); s.used && s.Seq == seq {
		return s.LoggedPacket, true
	}
	return LoggedPacket{}, false
}

// Each calls fn for every retained packet, oldest first — the order a
// FIFO log would evict them in, which is the order session snapshots
// serialize.
func (l *RetransLog) Each(fn func(LoggedPacket)) {
	for back := len(l.slots) - 1; back >= 0; back-- {
		if e, ok := l.Get(l.last - uint16(back)); ok {
			fn(e)
		}
	}
}
