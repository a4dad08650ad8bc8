package ah

import (
	"fmt"
	"io"

	"appshare/internal/capture"
	"appshare/internal/codec"
	"appshare/internal/core"
	"appshare/internal/remoting"
	"appshare/internal/rtp"
)

// preparedMessage is one remoting-protocol payload (a whole message or
// one fragment of it) ready for per-remote RTP packetization, tagged
// with its message kind for stats and the draft's marker-bit rule.
type preparedMessage struct {
	payload []byte
	marker  bool
	kind    string
}

// preparedBatch is a capture batch marshalled and fragmented exactly
// once. The payload bytes are shared by every remote the batch fans out
// to — only the RTP headers (SSRC, sequence number, timestamp) differ
// per participant — so a 100-receiver session pays one marshalling cost,
// not 100.
type preparedBatch struct {
	msgs []preparedMessage
	// wmCount is the number of leading messages carrying the batch's
	// WindowManagerInfo (0 or 1); wmOnly slices them off for the
	// backlogged path, which sends window state but defers pixels.
	wmCount int
	// updates maps each RegionUpdate of the batch to its slice of msgs
	// plus its tile-store alternative; populated only when the host has a
	// tile store, so the store-off prepared batch is byte-identical to
	// the pre-tile-store one. Like msgs it is immutable after prepare:
	// per-remote substitution (Remote.tileCompose) composes a new slice.
	updates []preparedUpdate
}

// preparedUpdate is one update's range within preparedBatch.msgs
// ([start:end) are its RegionUpdate fragments) together with the
// tile-store view of the same content: the capture-time tile hashes
// (nil for lossy encodes, which can never teach or hit the dictionary)
// and the eagerly-marshalled TileReference substitute (nil when the
// region is not representable as single-packet references).
type preparedUpdate struct {
	start, end int
	tiles      []codec.TileKey
	ref        []preparedMessage
}

// wmOnly returns just the WindowManagerInfo messages of the batch.
func (p *preparedBatch) wmOnly() []preparedMessage { return p.msgs[:p.wmCount] }

// prepareBatch marshals a capture batch into protocol payloads in apply
// order, applying the draft's RTP usage rules: the marker bit follows
// Table 2 for RegionUpdate/MousePointerInfo fragments and is zero
// elsewhere. The result is immutable and safe to fan out concurrently.
//
// With a tile store configured (ts non-nil) each update additionally
// records its msgs range, tile hashes and TileReference substitute, so
// the per-remote compose step can swap representations without
// re-marshalling anything.
func prepareBatch(b *capture.Batch, mtu int, ts *TileStoreConfig) (*preparedBatch, error) {
	out := &preparedBatch{}
	if b.WMInfo != nil {
		payload, err := b.WMInfo.Marshal()
		if err != nil {
			return nil, fmt.Errorf("ah: encode WindowManagerInfo: %w", err)
		}
		out.msgs = append(out.msgs, preparedMessage{payload: payload, kind: "WindowManagerInfo"})
		out.wmCount = 1
	}
	for _, mv := range b.Moves {
		payload, err := mv.Marshal()
		if err != nil {
			return nil, fmt.Errorf("ah: encode MoveRectangle: %w", err)
		}
		out.msgs = append(out.msgs, preparedMessage{payload: payload, kind: "MoveRectangle"})
	}
	for _, up := range b.Updates {
		start := len(out.msgs)
		frags, err := up.Msg.Fragments(mtu)
		if err != nil {
			return nil, fmt.Errorf("ah: fragment RegionUpdate: %w", err)
		}
		for _, f := range frags {
			out.msgs = append(out.msgs, preparedMessage{payload: f.Payload, marker: f.Marker, kind: "RegionUpdate"})
		}
		if ts != nil {
			out.updates = append(out.updates, preparedUpdate{
				start: start,
				end:   len(out.msgs),
				tiles: up.Tiles,
				ref:   tileRefMessages(up, ts.TileSize, mtu),
			})
		}
	}
	if b.Pointer != nil {
		frags, err := b.Pointer.Fragments(mtu)
		if err != nil {
			return nil, fmt.Errorf("ah: fragment MousePointerInfo: %w", err)
		}
		for _, f := range frags {
			out.msgs = append(out.msgs, preparedMessage{payload: f.Payload, marker: f.Marker, kind: "MousePointerInfo"})
		}
	}
	return out, nil
}

// tileRefMessages marshals an update's TileReference representation:
// one message per band of tile rows sized so every message fits a single
// RTP packet (TileReference never uses Table 2 fragmentation — see
// internal/remoting). It returns nil when the update has no tiles (lossy
// encode, tiling off) or the region is too wide for even one tile row
// per packet, in which case the caller falls back to pixels.
func tileRefMessages(up capture.Update, tileSize, mtu int) []preparedMessage {
	if len(up.Tiles) == 0 || tileSize <= 0 {
		return nil
	}
	rect := up.Rect
	cols := (rect.Width + tileSize - 1) / tileSize
	rows := (rect.Height + tileSize - 1) / tileSize
	if cols < 1 || cols*rows != len(up.Tiles) {
		return nil
	}
	maxTiles := (mtu - core.HeaderSize - remoting.TileRefHeaderSize) / remoting.TileHashSize
	rowsPer := maxTiles / cols
	if rowsPer < 1 {
		return nil
	}
	var out []preparedMessage
	for r0 := 0; r0 < rows; r0 += rowsPer {
		r1 := min(r0+rowsPer, rows)
		band := &remoting.TileReference{
			WindowID: up.Msg.WindowID,
			Left:     uint32(rect.Left),
			Top:      uint32(rect.Top + r0*tileSize),
			Width:    uint32(rect.Width),
			Height:   uint32(min(rect.Height-r0*tileSize, (r1-r0)*tileSize)),
			TileSize: uint16(tileSize),
		}
		band.Tiles = make([]remoting.TileHash, 0, (r1-r0)*cols)
		for _, k := range up.Tiles[r0*cols : r1*cols] {
			band.Tiles = append(band.Tiles, remoting.TileHash{H1: k.H1, H2: k.H2})
		}
		payload, err := band.Marshal()
		if err != nil {
			return nil
		}
		out = append(out, preparedMessage{payload: payload, kind: "TileReference"})
	}
	return out
}

// sendPrepared stamps the shared payloads with this remote's RTP stream
// state and ships them as ONE sink batch (a writev-style stream write,
// or a batched datagram send). The owning shard's lock is held.
//
// Nothing is allocated per packet: the headers and payload copies go
// into the shard's arena, which the next remote of the shard overwrites
// (every sink copies or writes before returning), and the
// retransmission log keeps the header fields plus a reference to the
// shared payload, from which a NACK re-stamps the datagram.
//
// Accounting covers exactly the packets the sink accepted. Stats are
// tallied per same-kind run on the shard and reach the collector once
// per shard phase (runShardWork, BroadcastExtension); a send outside a
// phase — attach push, RequestRefresh, a forwarder's batch — flushes
// before returning, so Stats is current whenever no tick is in flight.
func (r *Remote) sendPrepared(msgs []preparedMessage) error {
	if len(msgs) == 0 {
		return nil
	}
	sh := r.sh
	ts := r.pz.Timestamp(r.host.cfg.Now())
	first := r.pz.NextSequence()
	sh.arena.Reset()
	for i := range msgs {
		sh.arena.Stamp(r.pz, msgs[i].payload, msgs[i].marker, ts)
	}
	n, err := r.sink.shipBatch(sh.arena.Packets())
	counting := r.host.cfg.Stats != nil
	runStart, runBytes := 0, uint64(0)
	for i := 0; i < n; i++ {
		size := uint64(rtp.HeaderSize + len(msgs[i].payload))
		r.sentPackets++
		r.sentOctets += size
		if r.retrans != nil {
			r.retrans.Put(rtp.LoggedPacket{
				Payload:   msgs[i].payload,
				Timestamp: ts,
				Seq:       first + uint16(i),
				Marker:    msgs[i].marker,
			})
		}
		if !counting {
			continue
		}
		runBytes += size
		if i+1 == n || msgs[i+1].kind != msgs[i].kind {
			sh.tally.Add(msgs[i].kind, uint64(i+1-runStart), runBytes)
			runStart, runBytes = i+1, 0
		}
	}
	if counting && !sh.inPhase {
		r.host.cfg.Stats.RecordTally(&sh.tally)
	}
	if err == nil && n < len(msgs) {
		// A short-count batch sender accepted only a prefix without
		// reporting an error of its own. The remainder never reached the
		// wire and was not counted above; surface the shortfall so the
		// caller (Tick, or the attach path) sees the loss instead of a
		// silently truncated batch.
		err = fmt.Errorf("ah: batch send accepted %d of %d packets: %w", n, len(msgs), io.ErrShortWrite)
	}
	return err
}

// batchFromUpdates wraps re-captured updates in a batch for encoding.
func batchFromUpdates(ups []capture.Update, pointer *remoting.MousePointerInfo) *capture.Batch {
	return &capture.Batch{Updates: ups, Pointer: pointer}
}
