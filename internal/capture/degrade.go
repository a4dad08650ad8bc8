// Degraded-tier encode variant: the quality ladder's TierScaled rung
// (internal/ah/ladder.go) re-captures deferred regions pixelated —
// nearest-neighbor downscale by a block factor and straight back up,
// the host-side analogue of participant.ScaleImage. Region geometry is
// unchanged, so the participant applies these updates exactly like
// full-fidelity ones; the flat blocks simply compress far smaller.
package capture

import (
	"fmt"
	"image"
	"image/draw"

	"appshare/internal/codec"
	"appshare/internal/display"
	"appshare/internal/region"
	"appshare/internal/remoting"
)

// EncodeRegionDegraded is EncodeRegion at reduced detail: every
// overlapping window rectangle is pixelated with the given block size
// before encoding. Results are served from the shared payload cache
// under a (content, tier) key — the tier salt keeps them from ever
// colliding with full-fidelity payloads of the same pixels, while
// repeated degraded content (the common case under congestion: the
// same damage re-flushed tick after tick) hits without re-encoding.
func (p *Pipeline) EncodeRegionDegraded(dr region.Rect, block int) ([]Update, error) {
	if block < 2 {
		return p.EncodeRegion(dr)
	}
	jobs := p.gatherRegion(nil, dr, false)
	out := make([]Update, 0, len(jobs))
	for _, j := range jobs {
		up, err := p.encodeWindowRectDegraded(j.win, j.local, block)
		if err != nil {
			return nil, err
		}
		out = append(out, up)
	}
	return out, nil
}

// encodeWindowRectDegraded encodes the window-local rectangle r of w
// pixelated by block into a RegionUpdate with absolute coordinates.
// Degraded encodes always use the fixed codec: AutoSelect's content
// classification is meaningless on pixelated blocks.
func (p *Pipeline) encodeWindowRectDegraded(w *display.Window, r region.Rect, block int) (Update, error) {
	imgRect := image.Rect(r.Left, r.Top, r.Right(), r.Bottom())
	c := p.fixed
	abs := r.Translate(w.Bounds().Left, w.Bounds().Top)
	cursorOverlap := p.opts.PointerInUpdates && p.cursorRect().Overlaps(abs)

	// Fast path: hash the SOURCE pixels under the tier-salted key. A hit
	// skips the crop and the pixelation pass entirely, not just the
	// compressor — the (content, tier) key guarantees the cached payload
	// was produced from identical pixels at this block size. With tile
	// hashing on the path is skipped: the tile keys must cover the
	// PIXELATED pixels (exactly what the viewer will decode and learn),
	// which this path never materializes.
	if p.cache != nil && !cursorOverlap && p.opts.TileSize == 0 {
		clipped := imgRect.Intersect(w.Image().Bounds())
		if clipped.Empty() {
			return Update{}, fmt.Errorf("capture: degraded encode window %d rect %v: %w",
				w.ID(), r, codec.ErrEmptyImage)
		}
		key := codec.KeyForTier(c.PayloadType(), uint32(block), w.Image(), clipped)
		if payload, ok := p.cache.Get(key); ok {
			return degradedUpdate(w, c, abs, payload, nil), nil
		}
		crop := codec.GetRGBA(clipped.Dx(), clipped.Dy())
		draw.Draw(crop, crop.Bounds(), w.Image(), clipped.Min, draw.Src)
		pixelate(crop, block)
		payload, err := codec.EncodeSubImage(c, crop, crop.Bounds())
		codec.PutRGBA(crop)
		if err != nil {
			return Update{}, fmt.Errorf("capture: degraded encode window %d rect %v: %w", w.ID(), r, err)
		}
		p.cache.Put(key, payload)
		return degradedUpdate(w, c, abs, payload, nil), nil
	}

	// Cursor-overlap (or cache-disabled) path: composite first, pixelate
	// the result, and let encodeCached hash the pixelated pixels — the
	// pixelated content is its own cache identity here, and the cursor
	// sprite is pixelated along with the content it floats over, exactly
	// what a degraded viewer should see.
	crop := codec.GetRGBA(r.Width, r.Height)
	draw.Draw(crop, crop.Bounds(), w.Image(), image.Pt(r.Left, r.Top), draw.Src)
	if cursorOverlap {
		cur := p.desk.Cursor()
		sb := cur.Sprite.Bounds()
		dst := image.Rect(cur.X-abs.Left, cur.Y-abs.Top,
			cur.X-abs.Left+sb.Dx(), cur.Y-abs.Top+sb.Dy())
		draw.Draw(crop, dst, cur.Sprite, sb.Min, draw.Over)
	}
	pixelate(crop, block)
	// A lossless encode of pixelated pixels is still lossless: the viewer
	// decodes exactly these pixels, so tile hashes of the pixelated crop
	// keep the two dictionaries in lockstep even while a remote rides the
	// degraded tier — and re-flushed identical degraded damage can ship
	// as tile references too.
	var tiles []codec.TileKey
	if p.opts.TileSize > 0 && codec.LosslessPT(c.PayloadType()) {
		tiles = codec.TileGridKeys(crop, crop.Bounds(), p.opts.TileSize)
	}
	content, err := p.encodeCached(c, 0, crop, crop.Bounds())
	codec.PutRGBA(crop)
	if err != nil {
		return Update{}, fmt.Errorf("capture: degraded encode window %d rect %v: %w", w.ID(), r, err)
	}
	return degradedUpdate(w, c, abs, content, tiles), nil
}

func degradedUpdate(w *display.Window, c codec.Codec, abs region.Rect, content []byte, tiles []codec.TileKey) Update {
	return Update{
		Msg: &remoting.RegionUpdate{
			WindowID:  w.ID(),
			ContentPT: c.PayloadType(),
			Left:      uint32(abs.Left),
			Top:       uint32(abs.Top),
			Content:   content,
		},
		Rect:  abs,
		Tiles: tiles,
	}
}

// pixelate replaces each block×block cell of img with its top-left
// pixel, in place — a nearest-neighbor downscale-and-back-up that keeps
// dimensions intact. Two passes per block-row: replicate each cell's
// corner across the row's top scanline, then copy that scanline down
// the band; both are row-contiguous for cache-friendly access.
func pixelate(img *image.RGBA, block int) {
	b := img.Bounds()
	w, h := b.Dx(), b.Dy()
	for y0 := 0; y0 < h; y0 += block {
		top := img.Pix[img.PixOffset(b.Min.X, b.Min.Y+y0) : img.PixOffset(b.Min.X, b.Min.Y+y0)+w*4]
		for x0 := 0; x0 < w; x0 += block {
			px := top[x0*4 : x0*4+4]
			end := min(x0+block, w)
			for x := x0 + 1; x < end; x++ {
				copy(top[x*4:x*4+4], px)
			}
		}
		yEnd := min(y0+block, h)
		for y := y0 + 1; y < yEnd; y++ {
			row := img.Pix[img.PixOffset(b.Min.X, b.Min.Y+y) : img.PixOffset(b.Min.X, b.Min.Y+y)+w*4]
			copy(row, top)
		}
	}
}
