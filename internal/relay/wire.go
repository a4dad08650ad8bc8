package relay

import (
	"fmt"
	"io"
	"sync"

	"appshare/internal/ah"
	"appshare/internal/core"
	"appshare/internal/fanout"
	"appshare/internal/framing"
	"appshare/internal/remoting"
	"appshare/internal/rtp"
)

// Wire attachment: the ads-relay deployment shape. The relay dials the
// origin like any stream participant, opens the RelaySubscribe
// handshake on the feedback path, and from then on receives the
// stream's prepared payloads as framed RTP — refresh snapshots
// delimited by StreamDescriptor messages carrying the refresh flag and
// count. Cadence-driven cache refills ride the same handshake: a
// re-sent RelaySubscribe with the want-refresh flag.

// wireUpstream adapts the framed stream into the Upstream surface, so
// the relay's cadence logic is identical in-process and over the wire.
type wireUpstream struct {
	rl *Relay
	rw io.ReadWriteCloser
	// wmu serializes subscribe/refresh-request writes (the pump never
	// writes).
	wmu    sync.Mutex
	framer *framing.Writer
	pz     *rtp.Packetizer
}

// AttachForwarder and DetachForwarder are no-ops: the wire relay is
// implicitly attached by the handshake, and the stream carries exactly
// one subscriber — this relay.
func (w *wireUpstream) AttachForwarder(ah.Forwarder) {}
func (w *wireUpstream) DetachForwarder(ah.Forwarder) {}

// SubscribeStream attaches the relay to an origin (or parent relay)
// over a framed reliable stream. It sends the RelaySubscribe handshake
// — wantRefresh asks for an immediate cache seed — and pumps forwarded
// payloads until the stream dies, at which point the returned channel
// closes with the terminal error.
//
// On wire attachments Config.RefreshEvery counts forwarded messages,
// not ticks: the stream carries no batch boundaries.
func (r *Relay) SubscribeStream(rw io.ReadWriteCloser, wantRefresh bool) (<-chan error, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrRelayClosed
	}
	r.mu.Unlock()
	ent := r.cfg.Entropy
	w := &wireUpstream{
		rl:     r,
		rw:     rw,
		framer: framing.NewWriter(rw),
		pz:     rtp.NewPacketizerFrom(ent, rtp.NewSSRCFrom(ent), r.cfg.RemotingPT, r.cfg.Now()),
	}
	r.mu.Lock()
	r.upstream = w
	r.mu.Unlock()
	// Pump before handshake: the upstream may be mid-push (initial
	// state) on a synchronous link, and the subscribe write would
	// deadlock against it if nothing were draining our side.
	done := make(chan error, 1)
	go func() { done <- w.pump() }()
	if err := w.sendSubscribe(wantRefresh); err != nil {
		_ = rw.Close()
		return nil, err
	}
	return done, nil
}

// sendSubscribe ships one RelaySubscribe frame.
func (w *wireUpstream) sendSubscribe(wantRefresh bool) error {
	var flags uint16
	if wantRefresh {
		flags |= remoting.RelayWantRefresh
	}
	sub := &remoting.RelaySubscribe{
		StreamID: w.rl.cfg.StreamID,
		Flags:    flags,
		Viewers:  uint16(min(w.rl.Viewers(), 0xFFFF)),
	}
	payload, err := sub.Marshal()
	if err != nil {
		return err
	}
	w.wmu.Lock()
	defer w.wmu.Unlock()
	pkt := w.pz.Packetize(payload, false, w.rl.cfg.Now())
	raw, err := pkt.Marshal()
	if err != nil {
		return err
	}
	return w.framer.WriteFrame(raw)
}

// RequestStreamRefresh re-sends the flagged subscribe: a refresh
// request over the wire IS a RelaySubscribe with the want-refresh bit.
func (w *wireUpstream) RequestStreamRefresh(streamID uint32) {
	if streamID != w.rl.cfg.StreamID {
		return
	}
	_ = w.sendSubscribe(true)
}

func (w *wireUpstream) StreamID() uint32 { return w.rl.cfg.StreamID }

// pump reads forwarded frames until the stream dies.
func (w *wireUpstream) pump() error {
	defer w.rw.Close()
	reader := framing.NewReader(w.rw)
	var (
		collecting bool
		want       int
		snapshot   []fanout.Payload
		lastEpoch  uint32
		haveEpoch  bool
	)
	sid := w.rl.cfg.StreamID
	for {
		frame, err := reader.ReadFrame()
		if err != nil {
			return err
		}
		if len(frame) >= 2 && frame[1] >= 200 && frame[1] <= 207 {
			continue // origin-side RTCP (sender reports); not payload
		}
		var rp rtp.Packet
		if err := rp.Unmarshal(frame); err != nil {
			continue
		}
		if rp.PayloadType != w.rl.cfg.RemotingPT || len(rp.Payload) < core.HeaderSize {
			continue
		}
		if core.MessageType(rp.Payload[0]) == core.TypeStreamDescriptor {
			dm, err := remoting.DecodePayload(rp.Payload)
			if err != nil {
				continue
			}
			desc, ok := dm.(*remoting.StreamDescriptor)
			if !ok || desc.StreamID != sid {
				continue
			}
			if haveEpoch && desc.Epoch != lastEpoch {
				// The origin restarted: cached state belongs to a dead
				// sequence history.
				w.rl.mu.Lock()
				w.rl.cache = nil
				w.rl.mu.Unlock()
			}
			lastEpoch, haveEpoch = desc.Epoch, true
			if desc.Flags&remoting.DescriptorRefresh != 0 {
				collecting, want = true, int(desc.Count)
				// A slice of its own per snapshot: the relay caches it.
				snapshot = make([]fanout.Payload, 0, want)
				if want == 0 {
					collecting = false
				}
			}
			continue
		}
		m := fanout.Payload{
			Payload: rp.Payload,
			Marker:  rp.Marker,
			Kind:    core.MessageType(rp.Payload[0]).String(),
		}
		if collecting {
			snapshot = append(snapshot, m)
			if len(snapshot) == want {
				collecting = false
				if err := w.rl.ForwardRefresh(sid, snapshot); err != nil {
					return fmt.Errorf("relay: refresh re-fan: %w", err)
				}
			}
			continue
		}
		if err := w.rl.ForwardBatch(sid, []fanout.Payload{m}); err != nil {
			return fmt.Errorf("relay: re-fan: %w", err)
		}
	}
}
