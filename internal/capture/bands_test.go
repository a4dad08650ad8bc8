package capture

import (
	"bytes"
	"image"
	"image/color"
	"image/draw"
	"image/png"
	"slices"
	"testing"
	"time"

	"appshare/internal/codec"
	"appshare/internal/display"
	"appshare/internal/participant"
	"appshare/internal/region"
	"appshare/internal/remoting"
	"appshare/internal/rtp"
	"appshare/internal/workload"
)

// TestBandGeometry: rectangles from 65 536 px up split into at most
// four disjoint bands that tile the rectangle, each a whole number of
// tile rows tall but the last; smaller ones stay one unbanded job.
func TestBandGeometry(t *testing.T) {
	cases := []struct {
		w, h, tileSize int
		want           []int // band heights
	}{
		{255, 257, 0, []int{257}}, // 65 535 px: not banded
		{256, 256, 0, []int{128, 128}},
		{256, 256, 48, []int{144, 112}},
		{341, 256, 0, []int{128, 128}},
		{341, 256, 32, []int{128, 128}},
		{341, 256, 48, []int{144, 112}},
		{1024, 768, 0, []int{192, 192, 192, 192}},
		{1024, 768, 48, []int{192, 192, 192, 192}},
		{1024, 700, 48, []int{192, 192, 192, 124}},
		{400, 300, 32, []int{128, 128, 44}},
		{4096, 16, 0, []int{16}}, // one tile row: one band
		{4096, 16, 48, []int{16}},
	}
	for _, c := range cases {
		desk := display.NewDesktop(4200, 1000)
		desk.CreateWindow(1, region.XYWH(30, 20, c.w, c.h))
		p, err := New(desk, Options{TileSize: c.tileSize})
		if err != nil {
			t.Fatal(err)
		}
		whole := region.XYWH(0, 0, c.w, c.h)
		// Damage spilling past the window bands the overlap only.
		jobs := p.gatherRegion(nil, region.XYWH(0, 0, 4200, 1000), true)
		var heights []int
		tile := codec.DefaultTileSize
		if c.tileSize > 0 {
			tile = c.tileSize
		}
		area, y := 0, 0
		for i, j := range jobs {
			heights = append(heights, j.local.Height)
			if j.local.Left != 0 || j.local.Width != c.w || j.local.Top != y || !whole.ContainsRect(j.local) {
				t.Errorf("%dx%d/%d: band %d is %v, want x 0..%d from y %d", c.w, c.h, c.tileSize, i, j.local, c.w, y)
			}
			if i < len(jobs)-1 && j.local.Height%tile != 0 {
				t.Errorf("%dx%d/%d: band %d height %d is not whole %d-px tile rows", c.w, c.h, c.tileSize, i, j.local.Height, tile)
			}
			if j.banded != (c.w*c.h >= bandMinArea) {
				t.Errorf("%dx%d/%d: band %d banded = %v", c.w, c.h, c.tileSize, i, j.banded)
			}
			y += j.local.Height
			area += j.local.Width * j.local.Height
		}
		if !slices.Equal(heights, c.want) || len(jobs) > maxBands || area != c.w*c.h {
			t.Errorf("%dx%d/%d: band heights %v (area %d), want %v", c.w, c.h, c.tileSize, heights, area, c.want)
		}
		// Refreshes and degraded re-captures are never banded.
		if jobs := p.gatherRegion(nil, whole.Translate(30, 20), false); len(jobs) != 1 || jobs[0].local != whole || jobs[0].banded {
			t.Errorf("%dx%d: unbanded gather = %+v", c.w, c.h, jobs)
		}
	}
}

// blitPhoto paints a 341×256 photo (video_relay's frame) into win at
// (x, y), one seed per call.
func blitPhoto(win *display.Window, x, y int, seed int64) {
	win.Blit(workload.Photo(341, 256, seed), x, y)
}

// TestBandTileKeys: the bands' tile keys, concatenated, are the tile
// grid of the unbanded rectangle — the store's dictionaries see the
// same keys either way.
func TestBandTileKeys(t *testing.T) {
	for _, size := range []int{32, 48} {
		desk := display.NewDesktop(1280, 1024)
		win := desk.CreateWindow(1, region.XYWH(40, 30, 700, 500))
		blitPhoto(win, 0, 0, 1)
		p, err := New(desk, Options{TileSize: size})
		if err != nil {
			t.Fatal(err)
		}
		check := func(what string, local image.Rectangle) {
			t.Helper()
			b, err := p.Tick()
			if err != nil {
				t.Fatal(err)
			}
			if len(b.Updates) < 2 {
				t.Fatalf("size %d, %s: %d updates, want bands", size, what, len(b.Updates))
			}
			var got []codec.TileKey
			for _, up := range b.Updates {
				got = append(got, up.Tiles...)
			}
			if want := codec.TileGridKeys(win.Image(), local, size); !slices.Equal(got, want) {
				t.Fatalf("size %d, %s: banded tiles (%d) differ from the rectangle's grid (%d)", size, what, len(got), len(want))
			}
		}
		check("whole window", win.Image().Bounds())
		blitPhoto(win, 13, 17, 2)
		check("photo", image.Rect(13, 17, 13+341, 17+256))
	}
}

// TestBandEffortAndCache: the same pixels encode at the default level
// as a small rectangle and at BestSpeed as a photographic band, and
// with the cache on neither effort is ever served the other's payload,
// in either order.
func TestBandEffortAndCache(t *testing.T) {
	band := region.XYWH(0, 0, 341, 128) // 43 648 px: below the threshold alone
	photoRect := region.XYWH(0, 0, 341, 256)
	for _, smallFirst := range []bool{true, false} {
		desk := display.NewDesktop(1280, 1024)
		win := desk.CreateWindow(1, region.XYWH(50, 60, 341, 256))
		blitPhoto(win, 0, 0, 3)
		crop := win.Snapshot().SubImage(image.Rect(0, 0, 341, 128)).(*image.RGBA)
		defaultBytes, err := codec.EncodeSubImage(codec.PNG{}, crop, crop.Bounds())
		if err != nil {
			t.Fatal(err)
		}
		fastBytes, err := codec.EncodeSubImage(codec.PNG{Level: png.BestSpeed}, crop, crop.Bounds())
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(defaultBytes, fastBytes) {
			t.Fatal("default and BestSpeed payloads are identical: the test cannot tell them apart")
		}
		p, err := New(desk, Options{})
		if err != nil {
			t.Fatal(err)
		}
		encodeSmall := func() {
			t.Helper()
			ups, err := p.EncodeRegion(band.Translate(50, 60))
			if err != nil {
				t.Fatal(err)
			}
			if len(ups) != 1 || !bytes.Equal(ups[0].Msg.Content, defaultBytes) {
				t.Fatalf("small first=%v: the small rectangle did not get the default-level payload", smallFirst)
			}
		}
		encodeBand := func() {
			t.Helper()
			ups, err := p.EncodeRegion(photoRect.Translate(50, 60))
			if err != nil {
				t.Fatal(err)
			}
			if len(ups) != 2 || ups[0].Rect != band.Translate(50, 60) || !bytes.Equal(ups[0].Msg.Content, fastBytes) {
				t.Fatalf("small first=%v: the photographic band did not get the BestSpeed payload", smallFirst)
			}
		}
		for round := 0; round < 2; round++ { // the second round is served from the cache
			if smallFirst {
				encodeSmall()
				encodeBand()
			} else {
				encodeBand()
				encodeSmall()
			}
		}
		if m := p.Metrics().Cache; m.Hits != 3 || m.Misses != 3 {
			t.Fatalf("small first=%v: cache hits %d misses %d, want 3 and 3", smallFirst, m.Hits, m.Misses)
		}
	}
	// A synthetic band keeps the default level: a flat window encodes
	// exactly as codec.PNG{} would.
	desk := display.NewDesktop(1280, 1024)
	win := desk.CreateWindow(1, region.XYWH(0, 0, 512, 512))
	win.Fill(region.XYWH(0, 0, 512, 512), color.RGBA{R: 40, G: 90, B: 200, A: 255})
	p, err := New(desk, Options{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Tick()
	if err != nil {
		t.Fatal(err)
	}
	for _, up := range b.Updates {
		want, err := codec.EncodeSubImage(codec.PNG{}, win.Image(), image.Rect(up.Rect.Left, up.Rect.Top, up.Rect.Right(), up.Rect.Bottom()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(up.Msg.Content, want) {
			t.Fatalf("synthetic band %v is not the default-level payload", up.Rect)
		}
	}
}

// applyUpdates decodes every update of b onto model at its absolute
// rectangle.
func applyUpdates(t *testing.T, model *image.RGBA, b *Batch) {
	t.Helper()
	for _, up := range b.Updates {
		img, err := (codec.PNG{}).Decode(up.Msg.Content)
		if err != nil {
			t.Fatal(err)
		}
		draw.Draw(model, image.Rect(up.Rect.Left, up.Rect.Top, up.Rect.Right(), up.Rect.Bottom()), img, image.Point{}, draw.Src)
	}
}

// TestBandPointerStraddle: with the pointer composited into updates, a
// cursor across a band boundary is drawn into both bands and the
// viewer's pixels equal the window with the sprite laid over it.
func TestBandPointerStraddle(t *testing.T) {
	desk := display.NewDesktop(1280, 1024)
	win := desk.CreateWindow(1, region.XYWH(100, 100, 341, 256))
	sprite := image.NewRGBA(image.Rect(0, 0, 12, 20))
	for i := range sprite.Pix {
		sprite.Pix[i] = uint8(i * 7)
	}
	for i := 3; i < len(sprite.Pix); i += 4 {
		sprite.Pix[i] = []uint8{0, 128, 255}[i/4%3] // clear, half and opaque pixels
	}
	desk.SetCursorSprite(sprite)
	p, err := New(desk, Options{PointerInUpdates: true})
	if err != nil {
		t.Fatal(err)
	}
	model := image.NewRGBA(image.Rect(0, 0, 1280, 1024))
	for frame := int64(0); frame < 3; frame++ {
		blitPhoto(win, 0, 0, 10+frame)
		desk.MoveCursor(150+int(frame), 100+128-10+int(frame)) // rows 218..238: across the band edge at 228
		b, err := p.Tick()
		if err != nil {
			t.Fatal(err)
		}
		applyUpdates(t, model, b)
		want := image.NewRGBA(image.Rect(0, 0, 1280, 1024))
		draw.Draw(want, image.Rect(100, 100, 441, 356), win.Image(), image.Point{}, draw.Src)
		cur := desk.Cursor()
		draw.Draw(want, image.Rect(cur.X, cur.Y, cur.X+12, cur.Y+20), sprite, image.Point{}, draw.Over)
		winRect := image.Rect(100, 100, 441, 356)
		if !bytes.Equal(pixelsIn(model, winRect), pixelsIn(want, winRect)) {
			t.Fatalf("frame %d: composited window differs from the window with the sprite over it", frame)
		}
	}
}

func pixelsIn(img *image.RGBA, r image.Rectangle) []byte {
	var out []byte
	for y := r.Min.Y; y < r.Max.Y; y++ {
		out = append(out, img.Pix[img.PixOffset(r.Min.X, y):img.PixOffset(r.Max.X, y)]...)
	}
	return out
}

// deliver packetizes the batch's window state and pixel updates and
// hands them to the participant.
func deliver(t *testing.T, p *participant.Participant, pz *rtp.Packetizer, b *Batch) {
	t.Helper()
	send := func(payload []byte, marker bool) {
		raw, err := pz.Packetize(payload, marker, time.Now()).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.HandlePacket(raw); err != nil {
			t.Fatal(err)
		}
	}
	if b.WMInfo != nil {
		payload, err := b.WMInfo.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		send(payload, false)
	}
	for _, up := range b.Updates {
		frags, err := up.Msg.Fragments(1200)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range frags {
			send(f.Payload, f.Marker)
		}
	}
}

// TestBandRefreshLatch pins why FullRefresh is never banded: a viewer
// that lost state clears its refresh latch only on one update covering
// the whole window, which a banded whole-window tick no longer is.
func TestBandRefreshLatch(t *testing.T) {
	desk := display.NewDesktop(1280, 1024)
	win := desk.CreateWindow(1, region.XYWH(50, 50, 400, 300))
	pipe, err := New(desk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	viewer := participant.New(participant.Config{})
	pz := rtp.NewPacketizer(4242, 99, time.Now())
	b, err := pipe.Tick()
	if err != nil {
		t.Fatal(err)
	}
	deliver(t, viewer, pz, b)
	if viewer.NeedsRefresh() || viewer.WindowImage(win.ID()) == nil {
		t.Fatal("viewer did not join cleanly")
	}
	// An update for a window the viewer never heard of desynchronizes it.
	stray := &Batch{Updates: []Update{{Msg: &remoting.RegionUpdate{WindowID: 9, ContentPT: codec.PayloadTypePNG, Content: b.Updates[0].Msg.Content}}}}
	deliver(t, viewer, pz, stray)
	if !viewer.NeedsRefresh() {
		t.Fatal("stray update did not latch a refresh")
	}
	win.Fill(region.XYWH(0, 0, 400, 300), color.RGBA{R: 200, G: 30, B: 30, A: 255})
	if b, err = pipe.Tick(); err != nil {
		t.Fatal(err)
	}
	if len(b.Updates) != 3 {
		t.Fatalf("whole-window tick: %d updates, want 3 bands", len(b.Updates))
	}
	deliver(t, viewer, pz, b)
	if !viewer.NeedsRefresh() {
		t.Fatal("a banded whole-window tick cleared the refresh latch")
	}
	if b, err = pipe.FullRefresh(); err != nil {
		t.Fatal(err)
	}
	if len(b.Updates) != 1 {
		t.Fatalf("full refresh: %d updates, want one per window", len(b.Updates))
	}
	deliver(t, viewer, pz, b)
	if viewer.NeedsRefresh() {
		t.Fatal("the full refresh did not clear the latch")
	}
}
