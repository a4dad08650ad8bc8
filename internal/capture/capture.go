// Package capture implements the AH-side capture pipeline: it drains the
// virtual desktop's damage and move journals each tick and converts them
// into remoting messages — WindowManagerInfo when window state changed,
// MoveRectangle for scrolls (Section 5.2.3), RegionUpdate for dirty
// pixels (Section 5.2.2) and MousePointerInfo for the pointer (Section
// 5.2.4).
//
// A real AH detects changes by hooking or polling the OS; the virtual
// desktop journals its own damage, which substitutes for detection while
// exercising identical downstream paths (see DESIGN.md).
package capture

import (
	"fmt"
	"image"
	"image/draw"

	"appshare/internal/codec"
	"appshare/internal/display"
	"appshare/internal/region"
	"appshare/internal/remoting"
	"appshare/internal/windows"
)

// Options configures a capture pipeline.
type Options struct {
	// Registry supplies the content codecs. Nil means DefaultRegistry.
	Registry *codec.Registry
	// ContentPT selects a fixed content codec by payload type. Ignored
	// when AutoSelect is true. Zero means PNG.
	ContentPT uint8
	// AutoSelect classifies each region and picks PNG for synthetic
	// content, JPEG for photographic content (Section 4.2 guidance).
	AutoSelect bool
	// CoalesceWaste is the damage coalescing overdraw budget in pixels
	// (see region.Set.Coalesce). Zero selects the default of 1024 —
	// the sweet spot measured by the A01 ablation, merging per-glyph
	// damage into line-sized updates. Negative merges only perfectly
	// adjacent rectangles.
	CoalesceWaste int
	// PointerInUpdates selects the mouse model where the pointer image
	// is composited into RegionUpdates instead of sent as
	// MousePointerInfo messages (Section 4.2: "The AH decides which
	// mouse model to use").
	PointerInUpdates bool
	// DisableMoveDetection converts scrolls into pixel damage instead
	// of MoveRectangle messages — the ablation baseline for the Section
	// 5.2.3 efficiency claim.
	DisableMoveDetection bool
	// EncodeWorkers sets the width of the encode worker pool that
	// compresses a tick's dirty rectangles in parallel. Zero means one
	// worker per CPU (GOMAXPROCS); negative forces serial encoding.
	// Batch output is byte-identical regardless of the setting.
	EncodeWorkers int
	// CacheBytes bounds the content-addressed payload cache that
	// serves repeated pixel content (full refreshes for late joiners,
	// PLI re-sends, identical tiles) without re-encoding. Zero selects
	// DefaultCacheBytes; negative disables the cache.
	CacheBytes int
	// TileSize, when positive, computes the tile-store content hashes of
	// every losslessly-encoded update (Update.Tiles): the grid of
	// TileSize×TileSize tiles anchored at the update rectangle, hashed
	// from the exact pixels the encode consumed. Zero disables tile
	// hashing (Update.Tiles stays nil). Lossy (JPEG) and degraded-tier
	// encodes never carry tiles — their decoded pixels would not match
	// the hashes.
	TileSize int
}

// DefaultCacheBytes is the payload-cache budget used when
// Options.CacheBytes is zero.
const DefaultCacheBytes = 16 << 20

// Update pairs a RegionUpdate message with the absolute desktop
// rectangle it covers. The rectangle never travels on the wire (the
// protocol's width/height are implicit in the encoded image); senders use
// it to defer and re-capture regions under backlog (Section 7).
type Update struct {
	Msg  *remoting.RegionUpdate
	Rect region.Rect
	// Tiles holds the row-major tile-grid content hashes of the encoded
	// pixels when Options.TileSize is set and the content codec is
	// lossless; nil otherwise. The send path uses them to substitute a
	// TileReference for remotes whose dictionary has seen every tile.
	Tiles []codec.TileKey
}

// Batch is the protocol output of one capture tick, in apply order:
// window state first, then moves, then pixel updates, then the pointer.
type Batch struct {
	WMInfo  *remoting.WindowManagerInfo
	Moves   []*remoting.MoveRectangle
	Updates []Update
	Pointer *remoting.MousePointerInfo
}

// Empty reports whether the batch carries nothing.
func (b *Batch) Empty() bool {
	return b.WMInfo == nil && len(b.Moves) == 0 && len(b.Updates) == 0 && b.Pointer == nil
}

// Pipeline converts desktop changes into remoting messages.
//
// Concurrency: one Tick/FullRefresh/EncodeRegion call at a time (the
// host serializes them); within a call the encode worker pool reads
// window buffers concurrently, which is safe because only the capture
// caller's goroutine mutates the desktop.
type Pipeline struct {
	desk    *display.Desktop
	tracker *windows.Tracker
	opts    Options
	reg     *codec.Registry
	png     codec.Codec
	jpeg    codec.Codec
	fixed   codec.Codec
	// pngFast deflates the photographic bands of large rectangles at
	// BestSpeed (see bands.go); nil unless the fixed codec is
	// codec.PNG and AutoSelect is off.
	pngFast codec.Codec
	// lastCursor is the screen rectangle the cursor sprite occupied in
	// the previous tick, for the pointer-in-updates mouse model.
	lastCursor region.Rect

	// workers is the resolved encode pool width; cache is the
	// content-addressed payload cache (nil when disabled).
	workers int
	cache   *codec.PayloadCache
	// Encode-layer counters, updated atomically (see Metrics).
	parallelJobs, serialJobs, encodeBatches uint64
}

// New returns a pipeline over the given desktop.
func New(desk *display.Desktop, opts Options) (*Pipeline, error) {
	reg := opts.Registry
	if reg == nil {
		reg = codec.DefaultRegistry()
	}
	png, err := reg.Lookup(codec.PayloadTypePNG)
	if err != nil {
		return nil, fmt.Errorf("capture: mandatory PNG codec missing: %w", err)
	}
	if opts.CoalesceWaste == 0 {
		opts.CoalesceWaste = 1024
	} else if opts.CoalesceWaste < 0 {
		opts.CoalesceWaste = 0
	}
	p := &Pipeline{
		desk:    desk,
		tracker: windows.NewTracker(),
		opts:    opts,
		reg:     reg,
		png:     png,
		workers: resolveWorkers(opts.EncodeWorkers),
	}
	if opts.CacheBytes >= 0 {
		limit := opts.CacheBytes
		if limit == 0 {
			limit = DefaultCacheBytes
		}
		p.cache = codec.NewPayloadCache(limit)
	}
	if jp, err := reg.Lookup(codec.PayloadTypeJPEG); err == nil {
		p.jpeg = jp
	}
	pt := opts.ContentPT
	if pt == 0 {
		pt = codec.PayloadTypePNG
	}
	p.fixed, err = reg.Lookup(pt)
	if err != nil {
		return nil, fmt.Errorf("capture: content codec: %w", err)
	}
	if opts.AutoSelect && p.jpeg == nil {
		return nil, fmt.Errorf("capture: AutoSelect requires a JPEG codec")
	}
	if _, ok := p.fixed.(codec.PNG); ok && !opts.AutoSelect {
		p.pngFast = fastPNG
	}
	return p, nil
}

// Desktop returns the pipeline's desktop.
func (p *Pipeline) Desktop() *display.Desktop { return p.desk }

// Tick drains the desktop journals and returns the messages describing
// everything that changed since the last Tick.
func (p *Pipeline) Tick() (*Batch, error) {
	b := &Batch{WMInfo: p.tracker.Poll(p.desk)}

	sharedIDs := make(map[uint16]bool)
	for _, w := range p.desk.SharedWindows() {
		sharedIDs[w.ID()] = true
	}

	// Moves become MoveRectangle messages, or — with move detection
	// disabled (the ablation baseline) — extra pixel damage coalesced
	// with the tick's ordinary damage before encoding. Move ops are
	// journaled window-local; resolve them against the window's CURRENT
	// bounds so a same-tick relocation (whose new geometry leads this
	// batch in WindowManagerInfo) cannot invalidate them.
	damage := region.NewSet()
	for _, mv := range p.desk.TakeMoves() {
		if !sharedIDs[mv.WindowID] {
			continue
		}
		win := p.desk.Window(mv.WindowID)
		if win == nil {
			continue
		}
		src := mv.Src.Translate(win.Bounds().Left, win.Bounds().Top)
		dst := mv.Dst.Translate(win.Bounds().Left, win.Bounds().Top)
		if p.opts.DisableMoveDetection {
			damage.Add(dst)
			continue
		}
		b.Moves = append(b.Moves, &remoting.MoveRectangle{
			WindowID: mv.WindowID,
			SrcLeft:  uint32(src.Left), SrcTop: uint32(src.Top),
			Width: uint32(src.Width), Height: uint32(src.Height),
			DstLeft: uint32(dst.Left), DstTop: uint32(dst.Top),
		})
	}
	for _, dr := range p.desk.TakeDamage(p.opts.CoalesceWaste) {
		damage.Add(dr)
	}
	// Gather every rectangle this tick must encode, then hand the whole
	// job list to the worker pool in one batch: a tick with many dirty
	// rects compresses across all cores instead of one at a time.
	var jobs []encodeJob
	for _, dr := range damage.Coalesce(p.opts.CoalesceWaste) {
		jobs = p.gatherRegion(jobs, dr, true)
	}

	moved, changed := p.desk.TakeCursorEvents()
	if p.opts.PointerInUpdates && (moved || changed) {
		// The pointer travels inside RegionUpdates (Section 4.2, first
		// mouse model): damage the sprite's old and new positions so the
		// overlaid pixels retransmit.
		cur := p.cursorRect()
		jobs = p.gatherRegion(jobs, p.lastCursor, true)
		jobs = p.gatherRegion(jobs, cur, true)
		p.lastCursor = cur
	}
	ups, err := p.encodeJobs(jobs)
	if err != nil {
		return nil, err
	}
	b.Updates = ups
	if !p.opts.PointerInUpdates && (moved || changed) {
		ptr, err := p.pointerMessage(changed)
		if err != nil {
			return nil, err
		}
		b.Pointer = ptr
	}
	return b, nil
}

// cursorRect returns the desktop rectangle the cursor sprite covers.
func (p *Pipeline) cursorRect() region.Rect {
	cur := p.desk.Cursor()
	if cur.Sprite == nil {
		return region.Rect{}
	}
	b := cur.Sprite.Bounds()
	return region.XYWH(cur.X, cur.Y, b.Dx(), b.Dy())
}

// FullRefresh produces the complete state a late joiner needs (draft
// Sections 4.3, 5.3.1): the current WindowManagerInfo followed by a
// RegionUpdate covering each shared window, plus the pointer state if the
// MousePointerInfo model is in use ("it MUST inform the late joiners
// about the current position and image of mouse pointer"). Windows are
// never split into bands here: a participant clears its refresh latch
// on one update covering the whole window.
func (p *Pipeline) FullRefresh() (*Batch, error) {
	b := &Batch{WMInfo: p.tracker.Current(p.desk)}
	var jobs []encodeJob
	for _, w := range p.desk.SharedWindows() {
		jobs = append(jobs, encodeJob{
			win:   w,
			local: region.XYWH(0, 0, w.Bounds().Width, w.Bounds().Height),
		})
	}
	ups, err := p.encodeJobs(jobs)
	if err != nil {
		return nil, err
	}
	b.Updates = ups
	if !p.opts.PointerInUpdates {
		ptr, err := p.pointerMessage(true)
		if err != nil {
			return nil, err
		}
		b.Pointer = ptr
	}
	return b, nil
}

// EncodeRegion intersects a desktop rectangle with every shared window
// and encodes the overlapping parts from the window buffers. Content is
// taken per window, not from the composite, so occluded windows still
// transmit their own pixels — the participant composites locally under
// its own layout (Figures 3–5). Senders also call this directly to
// re-capture regions deferred under backlog (Section 7: "only send the
// most recent screen data"). Large overlaps are split into bands.
func (p *Pipeline) EncodeRegion(dr region.Rect) ([]Update, error) {
	return p.encodeJobs(p.gatherRegion(nil, dr, true))
}

// encodeWindowRect encodes the window-local rectangle r of w into a
// RegionUpdate with absolute coordinates. A band of a large rectangle
// (banded) that is photographic goes through the BestSpeed encoder.
func (p *Pipeline) encodeWindowRect(w *display.Window, r region.Rect, banded bool) (Update, error) {
	imgRect := image.Rect(r.Left, r.Top, r.Right(), r.Bottom())
	c, salt := p.fixed, uint32(0)
	if p.opts.AutoSelect || (banded && p.pngFast != nil) {
		if rgba, ok := w.Image().SubImage(imgRect).(*image.RGBA); ok {
			switch {
			case p.opts.AutoSelect:
				c = codec.ChooseCodec(rgba, p.png, p.jpeg)
			case codec.Classify(rgba) == codec.ClassPhotographic:
				c, salt = p.pngFast, fastSalt
			}
		}
	}
	abs := r.Translate(w.Bounds().Left, w.Bounds().Top)
	var content []byte
	var tiles []codec.TileKey
	var err error
	if p.opts.PointerInUpdates && p.cursorRect().Overlaps(abs) {
		// First mouse model: the cursor sprite is composited into the
		// encoded pixels rather than signalled via MousePointerInfo.
		// The composite lands in a pooled scratch image and is hashed
		// after compositing, so an unchanged sprite-over-content tile
		// (a hovering cursor) still hits the payload cache.
		crop := codec.GetRGBA(r.Width, r.Height)
		draw.Draw(crop, crop.Bounds(), w.Image(), image.Pt(r.Left, r.Top), draw.Src)
		cur := p.desk.Cursor()
		sb := cur.Sprite.Bounds()
		dst := image.Rect(cur.X-abs.Left, cur.Y-abs.Top,
			cur.X-abs.Left+sb.Dx(), cur.Y-abs.Top+sb.Dy())
		draw.Draw(crop, dst, cur.Sprite, sb.Min, draw.Over)
		content, err = p.encodeCached(c, salt, crop, crop.Bounds())
		// Tile hashes cover the composite — exactly what the viewer will
		// decode and hash on its side.
		if err == nil && p.opts.TileSize > 0 && codec.LosslessPT(c.PayloadType()) {
			tiles = codec.TileGridKeys(crop, crop.Bounds(), p.opts.TileSize)
		}
		codec.PutRGBA(crop)
	} else {
		content, err = p.encodeCached(c, salt, w.Image(), imgRect)
		if err == nil && p.opts.TileSize > 0 && codec.LosslessPT(c.PayloadType()) {
			tiles = codec.TileGridKeys(w.Image(), imgRect, p.opts.TileSize)
		}
	}
	if err != nil {
		return Update{}, fmt.Errorf("capture: encode window %d rect %v: %w", w.ID(), r, err)
	}
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
	}, nil
}

// FullRefreshPointer returns a MousePointerInfo carrying the current
// pointer position and image (for late joiners and post-backlog
// refreshes).
func (p *Pipeline) FullRefreshPointer() (*remoting.MousePointerInfo, error) {
	return p.pointerMessage(true)
}

// pointerMessage builds a MousePointerInfo; withImage includes the sprite.
func (p *Pipeline) pointerMessage(withImage bool) (*remoting.MousePointerInfo, error) {
	cur := p.desk.Cursor()
	msg := &remoting.MousePointerInfo{
		ContentPT: p.png.PayloadType(),
		Left:      uint32(max(cur.X, 0)),
		Top:       uint32(max(cur.Y, 0)),
	}
	if withImage && cur.Sprite != nil {
		// Cached: a PLI storm re-sends the same sprite to every
		// requester, and sprites change rarely.
		img, err := p.encodeCached(p.png, 0, cur.Sprite, cur.Sprite.Bounds())
		if err != nil {
			return nil, fmt.Errorf("capture: encode pointer: %w", err)
		}
		msg.Image = img
	}
	return msg, nil
}
