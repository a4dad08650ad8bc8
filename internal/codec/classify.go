package codec

import "image"

// ContentClass labels the dominant character of a screen region, driving
// the draft Section 4.2 guidance: PNG "is more suitable for computer
// generated images", JPEG "more suitable for photographic images".
type ContentClass int

// Content classes.
const (
	// ClassSynthetic is computer-generated content: text, UI chrome,
	// flat fills — few distinct colors, hard edges.
	ClassSynthetic ContentClass = iota
	// ClassPhotographic is natural-image content: many distinct colors,
	// smooth gradients.
	ClassPhotographic
)

// String implements fmt.Stringer.
func (c ContentClass) String() string {
	if c == ClassSynthetic {
		return "synthetic"
	}
	return "photographic"
}

// Classify inspects a region and estimates its content class using a
// distinct-color-ratio heuristic: synthetic screen content (text, UI)
// repeats a handful of palette colors, while photographic content has
// nearly as many distinct colors as pixels. The sampling is bounded so
// classification stays cheap for large regions, and it allocates
// nothing: the distinct colors go into a fixed table on the stack.
func Classify(img *image.RGBA) ContentClass {
	b := img.Bounds()
	total := b.Dx() * b.Dy()
	if total == 0 {
		return ClassSynthetic
	}
	// Sample at most ~4096 pixels on a grid.
	step := 1
	for (b.Dx()/step)*(b.Dy()/step) > 4096 {
		step++
	}
	samples := ((b.Dx() + step - 1) / step) * ((b.Dy() + step - 1) / step)
	// Synthetic content keeps the distinct-color ratio low even after
	// anti-aliasing; photographs approach 1.0. The count only grows, so
	// the verdict is final the moment it crosses the ratio.
	photo := func(distinct int) bool { return float64(distinct)/float64(samples) > 0.35 }
	var colors colorSet
	colors.slots = colors.table[:]
	for y := b.Min.Y; y < b.Max.Y; y += step {
		for x := b.Min.X; x < b.Max.X; x += step {
			i := img.PixOffset(x, y)
			if colors.add(uint32(img.Pix[i])<<16|uint32(img.Pix[i+1])<<8|uint32(img.Pix[i+2])) && photo(colors.n) {
				return ClassPhotographic
			}
		}
	}
	return ClassSynthetic
}

// colorSet is an exact set of 24-bit colors: open addressing over
// slots, which start as the 4 096-entry table (16 KiB, on the caller's
// stack) and double on the heap past half full — only a degenerate
// sliver of a region, far thinner than the sampling step, can sample
// that many distinct colors before Classify's early exit. A slot holds
// color+1, so zero marks it empty.
type colorSet struct {
	table [4096]uint32
	slots []uint32
	n     int
}

// add inserts c and reports whether it was new.
func (s *colorSet) add(c uint32) bool {
	if !s.insert(c + 1) {
		return false
	}
	s.n++
	if 2*s.n > len(s.slots) {
		old := s.slots
		s.slots = make([]uint32, 2*len(old))
		for _, v := range old {
			if v != 0 {
				s.insert(v)
			}
		}
	}
	return true
}

// insert places the non-zero slot value v and reports whether it was
// absent. Fibonacci hashing spreads neighbouring colors across the
// table; the mask keeps the probe inside it.
func (s *colorSet) insert(v uint32) bool {
	mask := uint32(len(s.slots) - 1)
	for i := (v * 0x9E3779B1) >> 16 & mask; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case v:
			return false
		case 0:
			s.slots[i] = v
			return true
		}
	}
}

// ChooseCodec picks a codec for a region per the Section 4.2 guidance:
// lossless PNG for synthetic content, JPEG for photographic content. The
// caller supplies the two codecs so quality settings are preserved.
func ChooseCodec(img *image.RGBA, forSynthetic, forPhotographic Codec) Codec {
	if Classify(img) == ClassSynthetic {
		return forSynthetic
	}
	return forPhotographic
}
