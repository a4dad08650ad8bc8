// Package codec implements the screen-content codecs negotiable for
// RegionUpdate payloads (draft Section 4.2 and 5.2.2) and the registry
// that maps RTP payload-type numbers to them.
//
// The draft mandates PNG ("All AH and participant software implementations
// MUST support PNG images") because screen content is dominated by
// computer-generated imagery where lossless compression excels. JPEG is
// provided for photographic content, and Raw as an uncompressed baseline
// for the evaluation harness. JPEG 2000, Theora and H.264 from the draft's
// list are not reproduced; PNG and JPEG span the lossless-synthetic versus
// lossy-photographic axis the draft discusses.
//
// A region update's width and height are not carried by the remoting
// protocol; every codec here produces a self-describing payload from which
// the decoder recovers the dimensions.
package codec

import (
	"bytes"
	"errors"
	"fmt"
	"image"
	"image/draw"
	"image/jpeg"
	"image/png"
	"slices"

	"appshare/internal/wire"
)

// Default RTP payload-type numbers in the dynamic range (RFC 3551 Section
// 6). The remoting/HIP stream payload types live in internal/sdp; these
// identify the content encoding inside a RegionUpdate parameter field.
const (
	PayloadTypePNG  = 96
	PayloadTypeJPEG = 97
	PayloadTypeRaw  = 98
)

// Codec encodes and decodes rectangular screen regions.
type Codec interface {
	// Name returns the codec's short name ("png", "jpeg", "raw").
	Name() string
	// PayloadType returns the default RTP payload-type number.
	PayloadType() uint8
	// Lossless reports whether Decode(Encode(img)) reproduces img
	// pixel-exactly.
	Lossless() bool
	// Encode serializes the image into a self-describing payload. An
	// implementation must not retain img (or its Pix) after returning:
	// the pipeline passes pooled scratch images that are recycled the
	// moment Encode returns. Encode must also be deterministic — the
	// payload cache assumes identical pixels encode to identical bytes.
	Encode(img *image.RGBA) ([]byte, error)
	// Decode reverses Encode.
	Decode(data []byte) (*image.RGBA, error)
}

// PNG is the mandatory lossless codec.
type PNG struct {
	// Level selects the compression level; zero value means default.
	Level png.CompressionLevel
}

// Name implements Codec.
func (PNG) Name() string { return "png" }

// PayloadType implements Codec.
func (PNG) PayloadType() uint8 { return PayloadTypePNG }

// Lossless implements Codec.
func (PNG) Lossless() bool { return true }

// Encode implements Codec.
func (c PNG) Encode(img *image.RGBA) ([]byte, error) {
	buf := getBuffer()
	defer putBuffer(buf)
	enc := png.Encoder{CompressionLevel: c.Level, BufferPool: pngBuffersFor(c.Level)}
	if err := enc.Encode(buf, img); err != nil {
		return nil, fmt.Errorf("codec: png encode: %w", err)
	}
	return append([]byte(nil), buf.Bytes()...), nil
}

// Decode implements Codec.
func (PNG) Decode(data []byte) (*image.RGBA, error) {
	img, err := png.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("codec: png decode: %w", err)
	}
	return toRGBA(img), nil
}

// JPEG is the lossy codec for photographic content.
type JPEG struct {
	// Quality in [1, 100]; zero value means jpeg.DefaultQuality.
	Quality int
}

// Name implements Codec.
func (JPEG) Name() string { return "jpeg" }

// PayloadType implements Codec.
func (JPEG) PayloadType() uint8 { return PayloadTypeJPEG }

// Lossless implements Codec.
func (JPEG) Lossless() bool { return false }

// Encode implements Codec.
func (c JPEG) Encode(img *image.RGBA) ([]byte, error) {
	q := c.Quality
	if q == 0 {
		q = jpeg.DefaultQuality
	}
	buf := getBuffer()
	defer putBuffer(buf)
	if err := jpeg.Encode(buf, img, &jpeg.Options{Quality: q}); err != nil {
		return nil, fmt.Errorf("codec: jpeg encode: %w", err)
	}
	return append([]byte(nil), buf.Bytes()...), nil
}

// Decode implements Codec.
func (JPEG) Decode(data []byte) (*image.RGBA, error) {
	img, err := jpeg.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("codec: jpeg decode: %w", err)
	}
	return toRGBA(img), nil
}

// Raw is the uncompressed baseline: a 8-byte dimension header followed by
// RGBA pixels row by row.
type Raw struct{}

// Name implements Codec.
func (Raw) Name() string { return "raw" }

// PayloadType implements Codec.
func (Raw) PayloadType() uint8 { return PayloadTypeRaw }

// Lossless implements Codec.
func (Raw) Lossless() bool { return true }

// Encode implements Codec.
func (Raw) Encode(img *image.RGBA) ([]byte, error) {
	b := img.Bounds()
	w := wire.NewWriter(8 + 4*b.Dx()*b.Dy())
	w.Uint32(uint32(b.Dx()))
	w.Uint32(uint32(b.Dy()))
	for y := b.Min.Y; y < b.Max.Y; y++ {
		row := img.Pix[img.PixOffset(b.Min.X, y):img.PixOffset(b.Max.X, y)]
		w.Write(row)
	}
	return w.Bytes(), nil
}

// Decode implements Codec.
func (Raw) Decode(data []byte) (*image.RGBA, error) {
	r := wire.NewReader(data)
	width := int(r.Uint32())
	height := int(r.Uint32())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("codec: raw decode: %w", err)
	}
	if width <= 0 || height <= 0 || width > 1<<15 || height > 1<<15 {
		return nil, fmt.Errorf("codec: raw decode: implausible dimensions %dx%d", width, height)
	}
	pix := r.Bytes(4 * width * height)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("codec: raw decode: %w", err)
	}
	img := image.NewRGBA(image.Rect(0, 0, width, height))
	copy(img.Pix, pix)
	return img, nil
}

// Registry maps content payload-type numbers to codecs, modelling the
// media-type negotiation of Section 5.2.2 ("they should negotiate
// supported media types during the session establishment").
type Registry struct {
	byPT map[uint8]Codec
}

// NewRegistry returns a registry holding the given codecs.
func NewRegistry(codecs ...Codec) (*Registry, error) {
	r := &Registry{byPT: make(map[uint8]Codec, len(codecs))}
	for _, c := range codecs {
		if err := r.Register(c.PayloadType(), c); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// DefaultRegistry returns a registry with PNG (mandatory), JPEG and Raw.
func DefaultRegistry() *Registry {
	r, err := NewRegistry(PNG{}, JPEG{}, Raw{})
	if err != nil {
		panic("codec: default registry: " + err.Error()) // impossible: distinct PTs
	}
	return r
}

// Register binds a payload-type number to a codec.
func (r *Registry) Register(pt uint8, c Codec) error {
	if pt > 0x7F {
		return fmt.Errorf("codec: payload type %d exceeds 7 bits", pt)
	}
	if _, dup := r.byPT[pt]; dup {
		return fmt.Errorf("codec: payload type %d already registered", pt)
	}
	r.byPT[pt] = c
	return nil
}

// Lookup returns the codec for a payload-type number.
func (r *Registry) Lookup(pt uint8) (Codec, error) {
	c, ok := r.byPT[pt]
	if !ok {
		return nil, fmt.Errorf("codec: no codec registered for payload type %d", pt)
	}
	return c, nil
}

// PayloadTypes returns the registered payload-type numbers in ascending
// order, so SDP offers and logs derived from it are deterministic.
func (r *Registry) PayloadTypes() []uint8 {
	out := make([]uint8, 0, len(r.byPT))
	for pt := range r.byPT {
		out = append(out, pt)
	}
	slices.Sort(out)
	return out
}

// ErrEmptyImage is returned when encoding a zero-area image.
var ErrEmptyImage = errors.New("codec: empty image")

// EncodeSubImage crops src to r (image rectangle semantics) into a
// pooled scratch RGBA and encodes it with c. This is the capture
// pipeline's path from a dirty rectangle to RegionUpdate content.
func EncodeSubImage(c Codec, src *image.RGBA, r image.Rectangle) ([]byte, error) {
	r = r.Intersect(src.Bounds())
	if r.Empty() {
		return nil, ErrEmptyImage
	}
	out := GetRGBA(r.Dx(), r.Dy())
	defer PutRGBA(out)
	draw.Draw(out, out.Bounds(), src, r.Min, draw.Src)
	return c.Encode(out)
}

// toRGBA converts any decoded image to *image.RGBA with a zero origin.
func toRGBA(img image.Image) *image.RGBA {
	if rgba, ok := img.(*image.RGBA); ok && rgba.Bounds().Min == (image.Point{}) {
		return rgba
	}
	b := img.Bounds()
	out := image.NewRGBA(image.Rect(0, 0, b.Dx(), b.Dy()))
	draw.Draw(out, out.Bounds(), img, b.Min, draw.Src)
	return out
}
