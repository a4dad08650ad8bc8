package ah

import (
	"appshare/internal/codec"
)

// TileStoreConfig enables the persistent tile store (see DESIGN.md "Tile
// store"): losslessly-encoded updates are tiled and content-hashed at
// capture, each negotiated remote carries a seen-set of the tiles it has
// received at full fidelity, and a region whose tiles were all seen ships
// as a compact TileReference instead of re-encoded pixels. Remotes that
// did not negotiate the capability (StreamOptions/PacketOptions
// .TileStore false) receive ordinary RegionUpdates, so one tick's fan-out
// may carry tile references to some viewers and PNG to others.
type TileStoreConfig struct {
	// TileSize is the square tile edge in pixels (default
	// codec.DefaultTileSize). Host and viewers must agree on it; it is
	// carried in every TileReference and negotiated via the "tilestore"
	// fmtp parameter.
	TileSize int
	// DictCapacity bounds each side's tile dictionary in tiles (default
	// codec.DefaultTileDictCapacity). Host and viewer capacities must
	// match: both run the same deterministic FIFO eviction, so equal
	// capacities keep the seen-set a subset of what the viewer holds
	// (absent loss — and loss only makes the viewer know less, which
	// degrades to a refresh, never to a wrong paint).
	DictCapacity int
}

// withDefaults fills zero fields.
func (c TileStoreConfig) withDefaults() TileStoreConfig {
	if c.TileSize <= 0 {
		c.TileSize = codec.DefaultTileSize
	}
	if c.DictCapacity <= 0 {
		c.DictCapacity = codec.DefaultTileDictCapacity
	}
	return c
}

// tileCompose rewrites the shared prepared batch for THIS remote: each
// lossless update whose tiles are all in the remote's seen-set is
// replaced by its TileReference messages (when allowRefs permits and the
// reference was representable); everything else passes through unchanged
// and teaches the seen-set the tiles it ships. The owning shard's lock is
// held. Remotes without a tile store (or batches without updates) return
// the shared slice untouched — the store-off path allocates nothing.
//
// allowRefs is false on the refresh paths: a full refresh answers a PLI
// or a join, i.e. a viewer whose state (including, possibly, its tile
// dictionary) cannot be trusted — it must carry real pixels. It still
// learns, which is exactly how a desynced dictionary heals: the refresh
// re-teaches both sides the same tiles in the same order.
func (r *Remote) tileCompose(prep *preparedBatch, allowRefs bool) []PreparedPayload {
	if r.tileSeen == nil || len(prep.updates) == 0 {
		return prep.msgs
	}
	out := make([]PreparedPayload, 0, len(prep.msgs))
	out = append(out, prep.msgs[:prep.updates[0].start]...)
	for _, u := range prep.updates {
		if allowRefs && u.ref != nil && r.tilesSeen(u.tiles) {
			out = append(out, u.ref...)
			r.tileRefs += uint64(len(u.ref))
			continue
		}
		out = append(out, prep.msgs[u.start:u.end]...)
		for _, k := range u.tiles {
			// nil pixels: the host side only needs membership — the viewer
			// holds the actual tile pixels.
			r.tileSeen.Learn(k, nil)
		}
	}
	out = append(out, prep.msgs[prep.updates[len(prep.updates)-1].end:]...)
	return out
}

// tileReset discards the seen-set. Called on the full-refresh paths,
// with the owning shard's lock held: a refresh answers a viewer whose
// dictionary state cannot be trusted, and entries learned before the
// desync may name tiles the viewer has since lost. Starting the seen-set
// empty restores the safety invariant (seen-set ⊆ viewer dictionary)
// outright — from here on both sides learn the same stream again, so a
// healed viewer never sees a reference to pre-desync history.
func (r *Remote) tileReset() {
	if r.tileSeen != nil {
		r.tileSeen = codec.NewTileDict(r.tileSeen.Capacity())
	}
}

// tilesSeen reports whether every tile of an update is in the seen-set.
func (r *Remote) tilesSeen(tiles []codec.TileKey) bool {
	if len(tiles) == 0 {
		return false
	}
	for _, k := range tiles {
		if !r.tileSeen.Has(k) {
			return false
		}
	}
	return true
}

// TileRefs reports how many TileReference messages were substituted for
// pixel updates toward this remote.
func (r *Remote) TileRefs() uint64 {
	r.sh.Mu.Lock()
	defer r.sh.Mu.Unlock()
	return r.tileRefs
}

// TileDictStats returns the remote's seen-set counters (zero value when
// the remote has no tile store).
func (r *Remote) TileDictStats() codec.TileDictStats {
	r.sh.Mu.Lock()
	defer r.sh.Mu.Unlock()
	if r.tileSeen == nil {
		return codec.TileDictStats{}
	}
	return r.tileSeen.Stats()
}
