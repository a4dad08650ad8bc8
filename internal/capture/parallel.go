// Parallel encode layer: the dirty rectangles of one tick (or one full
// refresh) are gathered into a job list, encoded by a bounded worker
// pool, and reassembled in gathering order. The output is byte-identical
// to a serial encode — job order fixes message order and every codec is
// deterministic — so parallelism is purely a throughput lever.
package capture

import (
	"image"
	"runtime"
	"sync"
	"sync/atomic"

	"appshare/internal/codec"
	"appshare/internal/display"
	"appshare/internal/region"
)

// encodeJob is one window-local rectangle awaiting encoding. banded
// marks a band of a rectangle of at least bandMinArea pixels, whose PNG
// effort follows its content class.
type encodeJob struct {
	win    *display.Window
	local  region.Rect
	banded bool
}

// EncodeMetrics is a snapshot of the pipeline's encode-layer counters:
// payload-cache effectiveness and worker-pool utilisation.
type EncodeMetrics struct {
	// Cache is the payload cache snapshot (zero value when the cache
	// is disabled).
	Cache codec.CacheStats
	// ParallelJobs counts region encodes dispatched to the worker
	// pool; SerialJobs counts encodes performed inline (single-job
	// batches, or a pool of one worker).
	ParallelJobs, SerialJobs uint64
	// Batches counts encode batches processed.
	Batches uint64
	// Workers is the configured pool width.
	Workers int
}

// resolveWorkers maps the Options.EncodeWorkers knob to a pool width:
// zero means one worker per CPU, negative means serial.
func resolveWorkers(n int) int {
	if n == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		return 1
	}
	return n
}

// encodeJobs encodes every job and returns the updates in job order.
// Jobs are independent — each reads its own window buffer region — so
// they fan out across the worker pool; results are reassembled by index
// to keep batches deterministic.
func (p *Pipeline) encodeJobs(jobs []encodeJob) ([]Update, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	atomic.AddUint64(&p.encodeBatches, 1)
	if p.workers <= 1 || len(jobs) == 1 {
		atomic.AddUint64(&p.serialJobs, uint64(len(jobs)))
		out := make([]Update, 0, len(jobs))
		for _, j := range jobs {
			up, err := p.encodeWindowRect(j.win, j.local, j.banded)
			if err != nil {
				return nil, err
			}
			out = append(out, up)
		}
		return out, nil
	}

	atomic.AddUint64(&p.parallelJobs, uint64(len(jobs)))
	out := make([]Update, len(jobs))
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	workers := min(p.workers, len(jobs))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				out[i], errs[i] = p.encodeWindowRect(jobs[i].win, jobs[i].local, jobs[i].banded)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// gatherRegion appends the jobs of every shared window overlapping the
// absolute desktop rectangle dr, mirroring EncodeRegion's traversal:
// one job per overlap, or with band set one per band of it (bands.go).
func (p *Pipeline) gatherRegion(jobs []encodeJob, dr region.Rect, band bool) []encodeJob {
	for _, w := range p.desk.SharedWindows() {
		overlap := dr.Intersect(w.Bounds())
		if overlap.Empty() {
			continue
		}
		local := overlap.Translate(-w.Bounds().Left, -w.Bounds().Top)
		if !band || local.Width*local.Height < bandMinArea {
			jobs = append(jobs, encodeJob{win: w, local: local})
			continue
		}
		h := bandHeight(local, p.opts.TileSize)
		for y := 0; y < local.Height; y += h {
			jobs = append(jobs, encodeJob{
				win:    w,
				local:  region.XYWH(local.Left, local.Top+y, local.Width, min(h, local.Height-y)),
				banded: true,
			})
		}
	}
	return jobs
}

// encodeCached produces the payload for the pixels of src inside r with
// codec c, consulting the content-addressed payload cache first under a
// key salted with salt when it is non-zero. The returned slice may be
// shared with the cache and other messages; it must be treated as
// read-only.
func (p *Pipeline) encodeCached(c codec.Codec, salt uint32, src *image.RGBA, r image.Rectangle) ([]byte, error) {
	r = r.Intersect(src.Bounds())
	if r.Empty() {
		return nil, codec.ErrEmptyImage
	}
	if p.cache == nil {
		return codec.EncodeSubImage(c, src, r)
	}
	var key codec.CacheKey
	if salt == 0 {
		key = codec.KeyFor(c.PayloadType(), src, r)
	} else {
		key = codec.KeyForTier(c.PayloadType(), salt, src, r)
	}
	if payload, ok := p.cache.Get(key); ok {
		return payload, nil
	}
	payload, err := codec.EncodeSubImage(c, src, r)
	if err != nil {
		return nil, err
	}
	p.cache.Put(key, payload)
	return payload, nil
}

// Metrics returns the pipeline's cumulative encode counters. Safe to
// call concurrently with encoding.
func (p *Pipeline) Metrics() EncodeMetrics {
	m := EncodeMetrics{
		ParallelJobs: atomic.LoadUint64(&p.parallelJobs),
		SerialJobs:   atomic.LoadUint64(&p.serialJobs),
		Batches:      atomic.LoadUint64(&p.encodeBatches),
		Workers:      p.workers,
	}
	if p.cache != nil {
		m.Cache = p.cache.Stats()
	}
	return m
}
