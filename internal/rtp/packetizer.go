package rtp

import (
	"encoding/binary"
	"time"
)

// Clock converts wall-clock instants into 90 kHz RTP timestamp units with
// a random (unpredictable) origin, per draft Sections 5.1.1 and 6.1.1.
type Clock struct {
	origin time.Time
	offset uint32
}

// NewClock returns a Clock whose timestamps start at a random offset.
func NewClock(now time.Time) *Clock {
	return NewClockFrom(nil, now)
}

// NewClockFrom is NewClock with an injected entropy source for the
// timestamp origin. A nil ent falls back to crypto randomness; a seeded
// ent makes the timestamps of a simulated session reproducible.
func NewClockFrom(ent func() uint32, now time.Time) *Clock {
	if ent == nil {
		ent = randUint32
	}
	return &Clock{origin: now, offset: ent()}
}

// Timestamp returns the RTP timestamp for the given instant.
func (c *Clock) Timestamp(at time.Time) uint32 {
	elapsed := at.Sub(c.origin)
	ticks := elapsed.Nanoseconds() * ClockRate / int64(time.Second)
	return c.offset + uint32(ticks)
}

// Packetizer stamps outgoing payloads with monotonically increasing
// sequence numbers and draft-conformant timestamps for a single SSRC.
// It is not safe for concurrent use.
type Packetizer struct {
	ssrc  uint32
	pt    uint8
	seq   uint16
	clock *Clock
}

// NewPacketizer returns a Packetizer for the given SSRC and payload type.
// The initial sequence number is random per RFC 3550.
func NewPacketizer(ssrc uint32, payloadType uint8, now time.Time) *Packetizer {
	return NewPacketizerFrom(nil, ssrc, payloadType, now)
}

// NewPacketizerFrom is NewPacketizer with an injected entropy source for
// the RFC 3550 random initial sequence number and timestamp origin. A
// nil ent falls back to crypto randomness; a seeded ent makes a
// simulated session's wire bytes reproducible.
func NewPacketizerFrom(ent func() uint32, ssrc uint32, payloadType uint8, now time.Time) *Packetizer {
	if ent == nil {
		ent = randUint32
	}
	return &Packetizer{
		ssrc:  ssrc,
		pt:    payloadType,
		seq:   uint16(ent()),
		clock: NewClockFrom(ent, now),
	}
}

// SSRC returns the synchronization source this packetizer stamps.
func (p *Packetizer) SSRC() uint32 { return p.ssrc }

// NextSequence returns the sequence number the next packet will carry.
func (p *Packetizer) NextSequence() uint16 { return p.seq }

// Packetize wraps payload into an RTP packet. marker sets the RTP marker
// bit (for remoting: "last packet of a multi-packet RegionUpdate"; for HIP:
// always zero). All fragments of one message must share a timestamp, so
// the caller passes the message creation instant explicitly.
func (p *Packetizer) Packetize(payload []byte, marker bool, at time.Time) *Packet {
	pkt := &Packet{
		Header: Header{
			Marker:         marker,
			PayloadType:    p.pt,
			SequenceNumber: p.seq,
			Timestamp:      p.clock.Timestamp(at),
			SSRC:           p.ssrc,
		},
		Payload: payload,
	}
	p.seq++
	return pkt
}

// Timestamp returns the RTP timestamp this packetizer's clock assigns to
// the given instant. All fragments of one message (and, on the fan-out
// paths, all messages of one batch) share it, so callers compute it once
// and pass it to AppendPacket.
func (p *Packetizer) Timestamp(at time.Time) uint32 { return p.clock.Timestamp(at) }

// AppendPacket appends the next packet of the stream — the 12-byte fixed
// header followed by payload — to dst and advances the sequence number.
// The appended bytes are identical to Packetize(payload, marker,
// at).Marshal() for ts == Timestamp(at), without the intermediate Packet
// or a buffer of its own: the fan-out paths stamp every viewer's copy
// into one reusable arena.
func (p *Packetizer) AppendPacket(dst, payload []byte, marker bool, ts uint32) []byte {
	dst = p.AppendLogged(dst, LoggedPacket{Payload: payload, Timestamp: ts, Seq: p.seq, Marker: marker})
	p.seq++
	return dst
}

// AppendLogged re-stamps a packet this stream already sent: the header
// is rebuilt from the logged sequence number, timestamp and marker plus
// the packetizer's SSRC and payload type, so the result is byte-equal to
// the original datagram. The sequence counter does not move.
//
// The payload type must fit 7 bits (hosts and relays validate it at
// configuration time); a stray high bit is masked off so it can never
// read as the marker.
func (p *Packetizer) AppendLogged(dst []byte, e LoggedPacket) []byte {
	b1 := p.pt & 0x7F
	if e.Marker {
		b1 |= 1 << 7
	}
	dst = append(dst, Version<<6, b1)
	dst = binary.BigEndian.AppendUint16(dst, e.Seq)
	dst = binary.BigEndian.AppendUint32(dst, e.Timestamp)
	dst = binary.BigEndian.AppendUint32(dst, p.ssrc)
	return append(dst, e.Payload...)
}

// NewSSRC returns a random synchronization source identifier.
func NewSSRC() uint32 { return randUint32() }

// NewSSRCFrom returns a synchronization source identifier drawn from
// ent, or a crypto-random one when ent is nil.
func NewSSRCFrom(ent func() uint32) uint32 {
	if ent == nil {
		ent = randUint32
	}
	return ent()
}
