// Band layer: a large dirty rectangle — a video frame, a slide flip, a
// whole window — is one encode job, so the worker pool could not help
// exactly where encode costs most. gatherRegion splits every rectangle
// of at least bandMinArea pixels into horizontal bands that the pool
// encodes as ordinary jobs. The layout depends only on the rectangle,
// so batches stay byte-identical at any pool width, and band heights
// are whole tile rows, so the bands' tile grids concatenate to the
// rectangle's own.
package capture

import (
	"image/png"

	"appshare/internal/codec"
	"appshare/internal/region"
)

const (
	// bandMinArea is the smallest rectangle that is split (256×256 px).
	bandMinArea = 256 * 256
	// bandArea is the area each band is sized for, up to maxBands.
	bandArea = bandMinArea / 2
	maxBands = 4
)

// fastPNG deflates the photographic bands of a large rectangle at
// BestSpeed: on photographic content that takes 40–55 % less time than
// the default level for at most about 6 % more bytes (on
// workload.Photo frames, 3 % fewer; DESIGN.md "Parallel encode
// pipeline"). Synthetic bands keep the default level.
var fastPNG codec.Codec = codec.PNG{Level: png.BestSpeed}

// fastSalt folds the BestSpeed effort into payload-cache keys, so a
// photographic band's payload and the default-level payload of the
// same pixels never serve each other. EncodeRegionDegraded salts with
// its block size, which is at least 2, so 1 is never a ladder tier.
const fastSalt = 1

// bandHeight returns the height of the bands r (at least bandMinArea
// pixels) is split into: n = min(maxBands, area/bandArea) bands of
// equal height rounded up to a multiple of the tile size (tileSize, or
// codec.DefaultTileSize when unset). The last band takes the
// remainder; a rectangle fewer tile rows tall than n yields fewer
// bands, down to one.
func bandHeight(r region.Rect, tileSize int) int {
	if tileSize <= 0 {
		tileSize = codec.DefaultTileSize
	}
	n := min(maxBands, r.Width*r.Height/bandArea)
	h := (r.Height + n - 1) / n
	return (h + tileSize - 1) / tileSize * tileSize
}
