package ah

import (
	"fmt"

	"appshare/internal/capture"
	"appshare/internal/codec"
	"appshare/internal/core"
	"appshare/internal/remoting"
)

// preparedBatch is a capture batch marshalled and fragmented exactly
// once. The payload bytes are shared by every remote the batch fans out
// to — only the RTP headers (SSRC, sequence number, timestamp) differ
// per participant — so a 100-receiver session pays one marshalling cost,
// not 100.
type preparedBatch struct {
	msgs []PreparedPayload
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
	ref        []PreparedPayload
}

// wmOnly returns just the WindowManagerInfo messages of the batch.
func (p *preparedBatch) wmOnly() []PreparedPayload { return p.msgs[:p.wmCount] }

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
		out.msgs = append(out.msgs, PreparedPayload{Payload: payload, Kind: "WindowManagerInfo"})
		out.wmCount = 1
	}
	for _, mv := range b.Moves {
		payload, err := mv.Marshal()
		if err != nil {
			return nil, fmt.Errorf("ah: encode MoveRectangle: %w", err)
		}
		out.msgs = append(out.msgs, PreparedPayload{Payload: payload, Kind: "MoveRectangle"})
	}
	for _, up := range b.Updates {
		start := len(out.msgs)
		frags, err := up.Msg.Fragments(mtu)
		if err != nil {
			return nil, fmt.Errorf("ah: fragment RegionUpdate: %w", err)
		}
		for _, f := range frags {
			out.msgs = append(out.msgs, PreparedPayload{Payload: f.Payload, Marker: f.Marker, Kind: "RegionUpdate"})
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
			out.msgs = append(out.msgs, PreparedPayload{Payload: f.Payload, Marker: f.Marker, Kind: "MousePointerInfo"})
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
func tileRefMessages(up capture.Update, tileSize, mtu int) []PreparedPayload {
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
	var out []PreparedPayload
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
		out = append(out, PreparedPayload{Payload: payload, Kind: "TileReference"})
	}
	return out
}

// batchFromUpdates wraps re-captured updates in a batch for encoding.
func batchFromUpdates(ups []capture.Update, pointer *remoting.MousePointerInfo) *capture.Batch {
	return &capture.Batch{Updates: ups, Pointer: pointer}
}
