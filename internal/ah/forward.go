package ah

import (
	"fmt"

	"appshare/internal/core"
	"appshare/internal/fanout"
	"appshare/internal/remoting"
	"appshare/internal/rtp"
)

// Relay forwarding (see DESIGN.md "Relay cascade"): the split the
// ROADMAP names between "encode & batch" and "remote set". A tick's
// prepared batch — marshalled and fragmented exactly once in
// prepareBatch — is addressable by the host's stream id, and any number
// of Forwarders (internal/relay nodes, recorders) can subscribe to that
// stream without joining the remote set. Forwarders receive the same
// shared payload bytes the local shards fan out; only per-hop RTP
// re-stamping happens downstream.

// PreparedPayload is one marshalled remoting payload (a whole message
// or one fragment) of a prepared batch: the one payload type the host's
// own fan-out, every forwarder and every relay pass around, untouched.
type PreparedPayload = fanout.Payload

// Forwarder receives a stream's prepared batches. Both methods are
// called on the host's Tick goroutine, outside all host locks, in tick
// order; a forwarder that must not block the origin re-fans on its own
// goroutines. msgs and the payload bytes it holds are shared with every
// other subscriber and the host's own fan-out: a forwarder may keep the
// slice (a relay caches refresh snapshots) but MUST treat it as
// read-only.
type Forwarder interface {
	// ForwardBatch delivers one tick's prepared payloads for the stream.
	ForwardBatch(streamID uint32, msgs []PreparedPayload) error
	// ForwardRefresh delivers a full-refresh snapshot of the stream —
	// the edge refresh cache's feed. The host pushes one whenever it
	// serves refreshers locally or a forwarder latched a request via
	// RequestStreamRefresh.
	ForwardRefresh(streamID uint32, msgs []PreparedPayload) error
}

// StreamID returns the id the host's prepared batches are published
// under (Config.StreamID).
func (h *Host) StreamID() uint32 { return h.cfg.StreamID }

// AttachForwarder subscribes f to the host's stream. The next Tick's
// batch is the first it receives.
func (h *Host) AttachForwarder(f Forwarder) {
	h.fwdMu.Lock()
	defer h.fwdMu.Unlock()
	h.forwarders = append(h.forwarders, f)
}

// DetachForwarder removes f. A detached forwarder receives no further
// callbacks after the Tick in flight (if any) completes.
func (h *Host) DetachForwarder(f Forwarder) {
	h.fwdMu.Lock()
	defer h.fwdMu.Unlock()
	for i, g := range h.forwarders {
		if g == f {
			h.forwarders = append(h.forwarders[:i], h.forwarders[i+1:]...)
			return
		}
	}
}

// RequestStreamRefresh latches a full-refresh snapshot request for the
// stream: the next Tick captures one (shared with any local refreshers
// it serves that tick) and pushes it to every forwarder. Relays call
// this on a cadence to refill their edge caches — never per viewer
// event, which is how late joiners and PLIs absorbed at the edge stay
// invisible to the origin's encode path. Requests for other stream ids
// are ignored.
func (h *Host) RequestStreamRefresh(streamID uint32) {
	if streamID != h.cfg.StreamID {
		return
	}
	h.fwdMu.Lock()
	h.fwdRefresh = true
	h.fwdMu.Unlock()
}

// ServedRefreshes reports how many full-refresh captures Tick has
// served (local refreshers and forwarder snapshots share one capture
// per tick). Join-time pushes to TCP participants and direct
// RequestRefresh calls are not Tick work and do not count.
func (h *Host) ServedRefreshes() uint64 { return h.servedRefreshes.Load() }

// takeForwardState snapshots the forwarder set and consumes the latched
// refresh request. Called once per Tick.
func (h *Host) takeForwardState() ([]Forwarder, bool) {
	h.fwdMu.Lock()
	defer h.fwdMu.Unlock()
	refresh := h.fwdRefresh
	h.fwdRefresh = false
	if len(h.forwarders) == 0 {
		return nil, refresh
	}
	fwds := make([]Forwarder, len(h.forwarders))
	copy(fwds, h.forwarders)
	return fwds, refresh
}

// forwardBatch publishes one tick's prepared batch to the forwarders.
func (h *Host) forwardBatch(fwds []Forwarder, prep *preparedBatch) error {
	if len(fwds) == 0 || len(prep.msgs) == 0 {
		return nil
	}
	var firstErr error
	for _, f := range fwds {
		if err := f.ForwardBatch(h.cfg.StreamID, prep.msgs); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// forwardRefresh pushes a refresh snapshot to the forwarders.
func (h *Host) forwardRefresh(fwds []Forwarder, prep *preparedBatch) error {
	if len(fwds) == 0 {
		return nil
	}
	var firstErr error
	for _, f := range fwds {
		if err := f.ForwardRefresh(h.cfg.StreamID, prep.msgs); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// --- wire-attached relays (RelaySubscribe over a participant link) --------

// maybeRelaySubscribe inspects one incoming packet for the relay
// control handshake: a remoting-PT RTP packet whose payload is a
// RelaySubscribe message. On a match the sending remote flips to
// forward-only — its attachment becomes a stream subscription, served
// through a remoteForwarder that reuses the remote's packetizer, sink
// and retransmission log. Reports whether the packet was consumed.
func (h *Host) maybeRelaySubscribe(r *Remote, pkt []byte) bool {
	var rp rtp.Packet
	if err := rp.Unmarshal(pkt); err != nil {
		return false
	}
	if rp.PayloadType != h.cfg.RemotingPT || len(rp.Payload) < core.HeaderSize {
		return false
	}
	if core.MessageType(rp.Payload[0]) != core.TypeRelaySubscribe {
		return false
	}
	dm, err := remoting.DecodePayload(rp.Payload)
	if err != nil {
		return true // malformed control is consumed, not handed to HIP
	}
	sub, ok := dm.(*remoting.RelaySubscribe)
	if !ok || sub.StreamID != h.cfg.StreamID {
		return true
	}
	fwd := &remoteForwarder{h: h, r: r}
	r.sh.Mu.Lock()
	if r.closed {
		r.sh.Mu.Unlock()
		return true
	}
	already := r.forwardOnly
	r.forwardOnly = true
	if !already {
		// Ack with the stream's endpoint descriptor before any payload.
		_ = fwd.sendLocked(&remoting.StreamDescriptor{
			StreamID:   h.cfg.StreamID,
			Epoch:      h.streamEpoch(),
			RemotingPT: h.cfg.RemotingPT,
		}, nil)
	}
	r.sh.Mu.Unlock()
	if !already {
		h.AttachForwarder(fwd)
	}
	if sub.Flags&remoting.RelayWantRefresh != 0 {
		h.RequestStreamRefresh(sub.StreamID)
	}
	h.record("RelaySubscribe", len(pkt))
	return true
}

// streamEpoch identifies this host instance on the stream. A relay
// that observes the epoch change discards its cache (the origin
// restarted; sequence history is gone).
func (h *Host) streamEpoch() uint32 {
	return h.epoch
}

// remoteForwarder adapts an attached remote into a Forwarder: the
// forwarded payloads ride the remote's own RTP stream (its packetizer
// stamps them, its sink batches them, its retransmission log serves
// NACKs on the relay link), and refresh snapshots are delimited by a
// StreamDescriptor carrying the refresh flag and message count.
type remoteForwarder struct {
	h *Host
	r *Remote
}

// ForwardBatch implements Forwarder.
func (f *remoteForwarder) ForwardBatch(streamID uint32, msgs []PreparedPayload) error {
	return f.send(nil, msgs)
}

// ForwardRefresh implements Forwarder.
func (f *remoteForwarder) ForwardRefresh(streamID uint32, msgs []PreparedPayload) error {
	if len(msgs) > 0xFFFF {
		return fmt.Errorf("ah: refresh snapshot of %d messages exceeds the descriptor count", len(msgs))
	}
	return f.send(&remoting.StreamDescriptor{
		StreamID:   f.h.cfg.StreamID,
		Epoch:      f.h.streamEpoch(),
		RemotingPT: f.h.cfg.RemotingPT,
		Flags:      remoting.DescriptorRefresh,
		Count:      uint16(len(msgs)),
	}, msgs)
}

// send ships an optional descriptor followed by the payloads over the
// remote's stream.
func (f *remoteForwarder) send(desc *remoting.StreamDescriptor, msgs []PreparedPayload) error {
	f.r.sh.Mu.Lock()
	defer f.r.sh.Mu.Unlock()
	if f.r.closed {
		// The relay link died; drop the subscription. DetachForwarder
		// only takes fwdMu, which is never acquired before a shard lock.
		f.h.DetachForwarder(f)
		return nil
	}
	return f.sendLocked(desc, msgs)
}

// sendLocked ships under the remote's shard lock. A tick's batch goes
// out as the slice the host published; a descriptor leads its snapshot
// in the same sink batch, under the same timestamp.
func (f *remoteForwarder) sendLocked(desc *remoting.StreamDescriptor, msgs []PreparedPayload) error {
	if desc != nil {
		payload, err := desc.Marshal()
		if err != nil {
			return err
		}
		head := PreparedPayload{Payload: payload, Kind: "StreamDescriptor"}
		msgs = append(append(make([]PreparedPayload, 0, len(msgs)+1), head), msgs...)
	}
	return f.r.st.Send(msgs)
}
