package capture

import (
	"bytes"
	"image"

	"appshare/internal/codec"
	"appshare/internal/display"
	"appshare/internal/region"
	"appshare/internal/remoting"
)

// Poller is the polling-mode capture front end: instead of consuming the
// virtual desktop's damage journal (which a real OS does not provide),
// it snapshots each shared window every tick, detects changes by tile
// hashing and synthesizes MoveRectangle messages by scroll detection.
// This is the capture strategy of a production AH attached to an opaque
// framebuffer; the journaled Pipeline.Tick is the oracle it is tested
// against.
type Poller struct {
	p        *Pipeline
	differs  map[uint16]*Differ
	prev     map[uint16]*image.RGBA
	tileSize int
	maxShift int
}

// NewPoller returns a polling front end over the pipeline's desktop.
// tileSize controls detection granularity (default 32); maxShift bounds
// the scroll search (default 64 rows).
func NewPoller(p *Pipeline, tileSize, maxShift int) *Poller {
	if tileSize <= 0 {
		tileSize = 32
	}
	if maxShift <= 0 {
		maxShift = 64
	}
	return &Poller{
		p:        p,
		differs:  make(map[uint16]*Differ),
		prev:     make(map[uint16]*image.RGBA),
		tileSize: tileSize,
		maxShift: maxShift,
	}
}

// Tick polls every shared window and returns the batch of detected
// changes. The desktop's own journals are drained and discarded — a
// polling AH cannot see them.
func (po *Poller) Tick() (*Batch, error) {
	desk := po.p.Desktop()
	// Discard journal state; polling must find everything itself.
	desk.TakeDamage(0)
	desk.TakeMoves()

	b := &Batch{WMInfo: po.p.tracker.Poll(desk)}

	live := make(map[uint16]bool)
	for _, w := range desk.SharedWindows() {
		live[w.ID()] = true
		if err := po.pollWindow(w, b); err != nil {
			return nil, err
		}
	}
	// Forget closed/unshared windows.
	for id := range po.differs {
		if !live[id] {
			delete(po.differs, id)
			delete(po.prev, id)
		}
	}

	moved, changed := desk.TakeCursorEvents()
	if moved || changed {
		ptr, err := po.p.pointerMessage(changed)
		if err != nil {
			return nil, err
		}
		b.Pointer = ptr
	}
	return b, nil
}

func (po *Poller) pollWindow(w *display.Window, b *Batch) error {
	id := w.ID()
	cur := w.Snapshot()
	d, ok := po.differs[id]
	if !ok {
		d = NewDiffer(po.tileSize)
		po.differs[id] = d
	}
	dirty := d.Diff(cur)
	prev := po.prev[id]
	po.prev[id] = cur
	if len(dirty) == 0 {
		return nil
	}
	winRect := region.XYWH(0, 0, w.Bounds().Width, w.Bounds().Height)

	// Try to explain the change as a vertical scroll of the whole
	// window (the dominant real-world case).
	if prev != nil && prev.Bounds() == cur.Bounds() {
		if dy, found := DetectVerticalScroll(prev, cur, winRect, po.maxShift); found {
			mv, residual := po.scrollMessages(w, prev, cur, dy)
			b.Moves = append(b.Moves, mv)
			for _, r := range residual {
				up, err := po.p.encodeWindowRect(w, r, false)
				if err != nil {
					return err
				}
				b.Updates = append(b.Updates, up)
			}
			return nil
		}
	}

	for _, r := range dirty {
		up, err := po.p.encodeWindowRect(w, r, false)
		if err != nil {
			return err
		}
		b.Updates = append(b.Updates, up)
	}
	return nil
}

// scrollMessages builds the MoveRectangle for a detected shift dy plus
// the residual damage: rows of cur that still differ from prev after the
// move is applied (the revealed band and any concurrent edits).
func (po *Poller) scrollMessages(w *display.Window, prev, cur *image.RGBA, dy int) (*remoting.MoveRectangle, []region.Rect) {
	width := w.Bounds().Width
	height := w.Bounds().Height
	abs := func(v int) int {
		if v < 0 {
			return -v
		}
		return v
	}
	band := height - abs(dy)
	var src, dst region.Rect
	if dy < 0 { // content moved up
		src = region.XYWH(0, -dy, width, band)
		dst = region.XYWH(0, 0, width, band)
	} else {
		src = region.XYWH(0, 0, width, band)
		dst = region.XYWH(0, dy, width, band)
	}
	ox, oy := w.Bounds().Left, w.Bounds().Top
	mv := &remoting.MoveRectangle{
		WindowID: w.ID(),
		SrcLeft:  uint32(src.Left + ox), SrcTop: uint32(src.Top + oy),
		Width: uint32(src.Width), Height: uint32(src.Height),
		DstLeft: uint32(dst.Left + ox), DstTop: uint32(dst.Top + oy),
	}

	// Simulate the move on prev, then row-compare against cur. The
	// simulation image is pooled: a scrolling window would otherwise
	// allocate a full window-sized RGBA every scrolled tick.
	pb := prev.Bounds()
	sim := codec.GetRGBA(pb.Dx(), pb.Dy())
	defer codec.PutRGBA(sim)
	copy(sim.Pix, prev.Pix)
	display.MoveRect(sim, src, dst)
	var residual []region.Rect
	runStart := -1
	for y := 0; y < height; y++ {
		same := rowsEqual(sim, cur, y, width)
		if !same && runStart < 0 {
			runStart = y
		}
		if same && runStart >= 0 {
			residual = append(residual, region.XYWH(0, runStart, width, y-runStart))
			runStart = -1
		}
	}
	if runStart >= 0 {
		residual = append(residual, region.XYWH(0, runStart, width, height-runStart))
	}
	return mv, residual
}

func rowsEqual(a, b *image.RGBA, y, width int) bool {
	ra := a.Pix[a.PixOffset(0, y):a.PixOffset(width, y)]
	rb := b.Pix[b.PixOffset(0, y):b.PixOffset(width, y)]
	return bytes.Equal(ra, rb)
}
