package codec

import (
	"bytes"
	"image"
	"image/png"
	"sync"
)

// Pooling of encode-path scratch memory. The capture pipeline encodes
// many small regions per tick; without reuse every region costs a fresh
// crop image, a fresh bytes.Buffer (grown in several steps by the
// compressors) and a fresh zlib state inside image/png. The pools below
// keep those allocations out of the steady state. All pools are safe for
// concurrent use, which the parallel encode workers rely on.

// maxPooledBufBytes bounds the capacity of a bytes.Buffer kept for
// reuse; a pathological giant encode should not pin memory forever.
const maxPooledBufBytes = 4 << 20

// maxPooledPixBytes bounds the pixel backing arrays kept for reuse
// (4 MiB holds a 1024x1024 RGBA crop).
const maxPooledPixBytes = 4 << 20

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// getBuffer returns an empty scratch buffer.
func getBuffer() *bytes.Buffer {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

// putBuffer returns a scratch buffer to the pool.
func putBuffer(b *bytes.Buffer) {
	if b.Cap() > maxPooledBufBytes {
		return
	}
	bufPool.Put(b)
}

var rgbaPool sync.Pool

// GetRGBA returns a zero-origin w x h RGBA whose pixel contents are
// undefined, reusing a pooled backing array when one is large enough.
// Callers that do not overwrite every pixel must clear it themselves.
// Return it with PutRGBA once nothing references its pixels.
func GetRGBA(w, h int) *image.RGBA {
	need := 4 * w * h
	if v := rgbaPool.Get(); v != nil {
		img := v.(*image.RGBA)
		if cap(img.Pix) >= need {
			return &image.RGBA{
				Pix:    img.Pix[:need],
				Stride: 4 * w,
				Rect:   image.Rect(0, 0, w, h),
			}
		}
	}
	return image.NewRGBA(image.Rect(0, 0, w, h))
}

// PutRGBA recycles an image obtained from GetRGBA (or any zero-origin
// RGBA the caller owns). The caller must not touch the image afterwards.
func PutRGBA(img *image.RGBA) {
	if img == nil || cap(img.Pix) == 0 || cap(img.Pix) > maxPooledPixBytes {
		return
	}
	rgbaPool.Put(img)
}

// pngBufferPool adapts sync.Pool to png.EncoderBufferPool so the zlib
// and filter state inside image/png is reused across encodes.
type pngBufferPool struct{ p sync.Pool }

func (pp *pngBufferPool) Get() *png.EncoderBuffer {
	v := pp.p.Get()
	if v == nil {
		return nil
	}
	return v.(*png.EncoderBuffer)
}

func (pp *pngBufferPool) Put(b *png.EncoderBuffer) { pp.p.Put(b) }

// pngBuffers holds one pool per compression level, indexed by -level
// (default, none, best speed, best compression): image/png rebuilds a
// pooled buffer's zlib writer whenever the buffer was last used at
// another level, so levels sharing one pool would each pay that on
// every encode.
var pngBuffers [1 - png.BestCompression]pngBufferPool

// pngBuffersFor returns the buffer pool of level l. image/png treats an
// unknown level as the default, and so does this.
func pngBuffersFor(l png.CompressionLevel) *pngBufferPool {
	if l < png.BestCompression || l > png.DefaultCompression {
		l = png.DefaultCompression
	}
	return &pngBuffers[-l]
}
