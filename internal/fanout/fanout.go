// Package fanout is the half of a subscriber that does not care who
// feeds it: one receiver's RTP stream (packetizer, retransmission log,
// sent counters, PLI limiter) and the shard scaffold its sends run on.
// An ah.Remote is a Stream fed by capture, tiers and pending regions; a
// relay.Viewer is a Stream fed by an upstream's batches and a refresh
// cache — the same split, one hop out, and the same code.
package fanout

import (
	"fmt"
	"io"
	"sync"
	"time"

	"appshare/internal/rtp"
	"appshare/internal/stats"
)

// Payload is one marshalled remoting payload (a whole message or one
// fragment) ready for per-receiver RTP stamping. The bytes are shared by
// every receiver of the batch and by every retransmission log that
// remembers them: once a Payload has been handed to a Stream or a
// forwarder, nobody may change it, nor the slice that holds it. Marker
// carries the draft's Table 2 marker-bit ruling and Kind the message
// kind for stats.
type Payload struct {
	Payload []byte
	Marker  bool
	Kind    string
}

// Sink ships stamped packets toward one receiver. Like the transport
// beneath it (see transport.PacketConn.Send), a sink copies or writes a
// packet before returning and never keeps or changes the caller's
// slice: the send paths hand it memory from the shard arena.
type Sink interface {
	// Send ships one packet.
	Send(pkt []byte) error
	// SendBatch ships a run of packets in as few wire operations as the
	// transport allows and returns how many it accepted, a prefix of
	// pkts; accounting covers exactly those.
	SendBatch(pkts [][]byte) (int, error)
}

// Shard is what one independently-locked slice of a subscriber set
// shares: the lock, the arena every send of the shard is stamped into
// (one receiver's batch lives in it from the stamp to the return of the
// sink call, then the next receiver's overwrites it) and the tally that
// collects per-kind send counts so the stats collector's mutex is taken
// once per phase, not once per receiver. Mu guards all of it, and every
// Stream bound to the shard. Now and Stats are set once, before use.
type Shard struct {
	Mu    sync.Mutex
	Now   func() time.Time
	Stats *stats.Collector // nil: nothing is counted

	arena   rtp.Arena
	tally   stats.Tally
	inPhase bool
}

// BeginPhase opens a walk that sends to many streams of the shard: their
// sends tally on the shard and EndPhase hands the collector the sum in
// one call. A send outside a phase flushes before it returns, so Stats
// is current whenever no phase is running. Mu held.
func (s *Shard) BeginPhase() { s.inPhase = true }

// EndPhase closes the walk BeginPhase opened. Mu held.
func (s *Shard) EndPhase() {
	s.inPhase = false
	if s.Stats != nil {
		s.Stats.RecordTally(&s.tally)
	}
}

// Stream is one receiver's RTP stream state. Its shard's Mu guards every
// field and every method.
type Stream struct {
	Shard      *Shard
	Sink       Sink
	Packetizer *rtp.Packetizer
	// Retrans logs the last packets sent, each a reference to its shared
	// payload, for NACK service (draft Section 5.3.2). nil: off.
	Retrans *rtp.RetransLog
	// SentPackets and SentOctets count fresh sends the sink accepted.
	// Retransmissions are excluded: these are the quantities RTCP sender
	// reports carry and the wire's sequence chain reconciles against.
	SentPackets, SentOctets uint64
	// LastRefresh and AbsorbedPLIs are the PLI limiter's state.
	LastRefresh  time.Time
	AbsorbedPLIs uint64
}

// NewStream starts a stream toward sink on sh: a fresh SSRC, sequence
// origin and timestamp origin drawn from ent (nil: crypto randomness),
// and a retransmission log of retransLog packets (0: none).
func NewStream(sh *Shard, sink Sink, ent func() uint32, payloadType uint8, retransLog int) Stream {
	st := Stream{
		Shard:      sh,
		Sink:       sink,
		Packetizer: rtp.NewPacketizerFrom(ent, rtp.NewSSRCFrom(ent), payloadType, sh.Now()),
	}
	if retransLog > 0 {
		st.Retrans = rtp.NewRetransLog(retransLog)
	}
	return st
}

// Send stamps the shared payloads with the stream's RTP state and ships
// them as ONE sink batch (a writev-style stream write, or a batched
// datagram send), under one timestamp.
//
// Nothing is allocated per packet: the headers and payload copies go
// into the shard's arena, and the retransmission log keeps the header
// fields plus a reference to the shared payload, from which Resend
// re-stamps the datagram.
//
// Accounting — counters, log, stats — covers exactly the prefix the
// sink accepted. A sink that accepts a prefix without an error of its
// own still fails the send, with io.ErrShortWrite: the remainder never
// reached the wire, and the caller must see the loss instead of a
// silently truncated batch.
func (st *Stream) Send(msgs []Payload) error {
	if len(msgs) == 0 {
		return nil
	}
	sh, pz := st.Shard, st.Packetizer
	ts := pz.Timestamp(sh.Now())
	first := pz.NextSequence()
	sh.arena.Reset()
	for i := range msgs {
		sh.arena.Stamp(pz, msgs[i].Payload, msgs[i].Marker, ts)
	}
	n, err := st.Sink.SendBatch(sh.arena.Packets())
	counting := sh.Stats != nil
	runStart, runBytes := 0, uint64(0)
	for i := 0; i < n; i++ {
		size := uint64(rtp.HeaderSize + len(msgs[i].Payload))
		st.SentPackets++
		st.SentOctets += size
		if st.Retrans != nil {
			st.Retrans.Put(rtp.LoggedPacket{
				Payload:   msgs[i].Payload,
				Timestamp: ts,
				Seq:       first + uint16(i),
				Marker:    msgs[i].Marker,
			})
		}
		if !counting {
			continue
		}
		runBytes += size
		if i+1 == n || msgs[i+1].Kind != msgs[i].Kind {
			sh.tally.Add(msgs[i].Kind, uint64(i+1-runStart), runBytes)
			runStart, runBytes = i+1, 0
		}
	}
	if counting && !sh.inPhase {
		sh.Stats.RecordTally(&sh.tally)
	}
	if err == nil && n < len(msgs) {
		err = fmt.Errorf("fanout: batch send accepted %d of %d packets: %w", n, len(msgs), io.ErrShortWrite)
	}
	return err
}

// Resend services a NACK: each sequence number still in the log is
// re-stamped into the shard's arena — byte-equal to the datagram first
// sent — and shipped. Numbers already evicted, or any number with the
// log off, are skipped, as the draft permits ("AHs MAY support
// retransmissions").
func (st *Stream) Resend(seqs []uint16) error {
	if st.Retrans == nil {
		return nil
	}
	sh := st.Shard
	for _, s := range seqs {
		e, ok := st.Retrans.Get(s)
		if !ok {
			continue
		}
		pkt := sh.arena.Restamp(st.Packetizer, e)
		if err := st.Sink.Send(pkt); err != nil {
			return err
		}
		if sh.Stats != nil {
			sh.Stats.Record("Retransmission", len(pkt))
		}
	}
	return nil
}

// AdmitPLI decides whether a PLI arriving at now earns a refresh. Inside
// minInterval of the last admitted one it is absorbed — the refresh
// already in flight answers it — and counted; otherwise now becomes the
// new window start. A minInterval of zero or less admits everything.
func (st *Stream) AdmitPLI(now time.Time, minInterval time.Duration) bool {
	if minInterval > 0 && !st.LastRefresh.IsZero() && now.Sub(st.LastRefresh) < minInterval {
		st.AbsorbedPLIs++
		return false
	}
	st.LastRefresh = now
	return true
}
