package codec

import (
	"image"
	"math/rand"
	"testing"

	"appshare/internal/display"
	"appshare/internal/region"
	"appshare/internal/workload"
)

// classifyWithMap is Classify as it was written before the fixed color
// table: the same sampling grid, every sample into a map, the ratio
// taken at the end. Classify must reach the same verdict on every input.
func classifyWithMap(img *image.RGBA) ContentClass {
	b := img.Bounds()
	if b.Dx()*b.Dy() == 0 {
		return ClassSynthetic
	}
	step := 1
	for (b.Dx()/step)*(b.Dy()/step) > 4096 {
		step++
	}
	colors := make(map[uint32]struct{}, 1024)
	samples := 0
	for y := b.Min.Y; y < b.Max.Y; y += step {
		for x := b.Min.X; x < b.Max.X; x += step {
			i := img.PixOffset(x, y)
			colors[uint32(img.Pix[i])<<16|uint32(img.Pix[i+1])<<8|uint32(img.Pix[i+2])] = struct{}{}
			samples++
		}
	}
	if float64(len(colors))/float64(samples) > 0.35 {
		return ClassPhotographic
	}
	return ClassSynthetic
}

// noise fills a w×h image with uniformly random colors.
func noise(w, h int, seed int64) *image.RGBA {
	rng := rand.New(rand.NewSource(seed))
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	rng.Read(img.Pix)
	return img
}

// crop returns the sub-image of img inside r, origin not moved, the way
// the capture pipeline hands a band to Classify.
func crop(img *image.RGBA, r image.Rectangle) *image.RGBA {
	return img.SubImage(r).(*image.RGBA)
}

// TestClassifyMatchesMapVerdict pins the color table to the map it
// replaced, and each named crop to its expected class.
func TestClassifyMatchesMapVerdict(t *testing.T) {
	desk := display.NewDesktop(800, 600)
	win := desk.CreateWindow(1, region.XYWH(0, 0, 640, 480))
	typing := workload.NewTyping(win, 40, 3)
	for i := 0; i < 60; i++ {
		typing.Step()
	}
	text := win.Snapshot()
	workload.NewRevisit("figure", win, 1, 1, 9)
	page := win.Snapshot()
	figTop := display.CellHeight + 10
	figure := crop(page, image.Rect(6, figTop, 634, figTop+(480-figTop)*2/5))

	cases := []struct {
		name string
		img  *image.RGBA
		want ContentClass
	}{
		{"synthetic", syntheticImage(200, 150), ClassSynthetic},
		{"photo", photoImage(200, 150, 4), ClassPhotographic},
		{"empty", image.NewRGBA(image.Rect(0, 0, 0, 0)), ClassSynthetic},
		{"text-crop", crop(text, image.Rect(0, 0, 640, 240)), ClassSynthetic},
		{"photo-crop", crop(workload.Photo(341, 256, 2), image.Rect(0, 128, 341, 256)), ClassPhotographic},
		{"dithered-figure-crop", figure, ClassSynthetic},
		{"noise", noise(300, 300, 1), ClassPhotographic},
		// Slivers thinner than the sampling step sample every row, far
		// beyond 4096 samples: the table must grow past its stack size.
		{"noise-sliver", noise(1, 30000, 2), ClassPhotographic},
		{"noise-3px-sliver", noise(3, 40000, 3), ClassPhotographic},
		{"flat", image.NewRGBA(image.Rect(0, 0, 1024, 768)), ClassSynthetic},
	}
	for _, c := range cases {
		if got, ref := Classify(c.img), classifyWithMap(c.img); got != c.want || ref != c.want {
			t.Errorf("%s: Classify %v, map %v, want %v", c.name, got, ref, c.want)
		}
	}
	// Around the 0.35 threshold: k distinct colors in n samples.
	for k := 1; k <= 64; k++ {
		img := image.NewRGBA(image.Rect(0, 0, 64, 2))
		for x := 0; x < 64; x++ {
			for y := 0; y < 2; y++ {
				i := img.PixOffset(x, y)
				img.Pix[i], img.Pix[i+3] = uint8(x%k), 0xFF
			}
		}
		if got, ref := Classify(img), classifyWithMap(img); got != ref {
			t.Errorf("%d colors in 128 px: Classify %v, map %v", k, got, ref)
		}
	}
}

// TestClassifyAllocatesNothing: AutoSelect classifies every dirty
// rectangle and the capture pipeline every band of a large one.
func TestClassifyAllocatesNothing(t *testing.T) {
	for _, img := range []*image.RGBA{syntheticImage(640, 480), workload.Photo(341, 256, 1), noise(256, 256, 4)} {
		if n := testing.AllocsPerRun(20, func() { Classify(img) }); n != 0 {
			t.Errorf("%v: Classify allocates %v times per call", img.Bounds(), n)
		}
	}
}
