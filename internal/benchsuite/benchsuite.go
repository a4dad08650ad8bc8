// Package benchsuite is the single home of the tracked benchmark bodies
// (the paper-shape experiments E03–E11, E19–E22 and the tile-store legs)
// and of the in-memory transports they run over. Two entry points
// import it: bench_test.go, so that `go test -bench E22 -cpuprofile`
// profiles the measured program, and cmd/ads-bench, which records the
// same bodies into BENCH_baseline.json and gates CI on them — one body
// each, so the two cannot drift apart.
package benchsuite

import (
	"fmt"
	"image"
	"image/color"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"appshare"
	"appshare/internal/capture"
	"appshare/internal/codec"
	"appshare/internal/workload"
)

// Case is one leaf benchmark. Name is the `go test -bench` name without
// the "Benchmark" prefix ("E22ShardedFanout/viewers-1000/sharded") and
// the key of its entry in the recorded file.
type Case struct {
	Name string
	Run  func(*testing.B)
}

// Cases lists every tracked benchmark, in recording order.
func Cases() []Case {
	var cs []Case
	add := func(run func(*testing.B), format string, args ...any) {
		cs = append(cs, Case{Name: fmt.Sprintf(format, args...), Run: run})
	}
	for _, mtu := range []int{256, 512, 1200, 1400, 8192, 65000} {
		add(func(b *testing.B) { fragmentation(b, mtu) }, "E03Fragmentation/mtu-%d", mtu)
	}
	add(func(b *testing.B) { scroll(b, true) }, "E04Scroll/move")
	add(func(b *testing.B) { scroll(b, false) }, "E04Scroll/update-only")
	for _, sz := range []struct{ w, h int }{{320, 240}, {640, 480}, {1024, 768}} {
		add(func(b *testing.B) { lateJoin(b, sz.w, sz.h) }, "E08LateJoin/%dx%d", sz.w, sz.h)
	}
	for _, c := range []appshare.Codec{codec.PNG{}, codec.JPEG{Quality: 75}, codec.Raw{}} {
		add(func(b *testing.B) { codecFrame(b, c, textFrame) }, "E10Codecs/%s/synthetic", c.Name())
		add(func(b *testing.B) { codecFrame(b, c, photo) }, "E10Codecs/%s/photo", c.Name())
	}
	add(func(b *testing.B) { backlog(b, true) }, "E11Backlog/coalesce")
	add(func(b *testing.B) { backlog(b, false) }, "E11Backlog/naive")
	for _, rects := range []int{2, 8, 16} {
		add(func(b *testing.B) { parallelEncode(b, rects, -1) }, "E19ParallelEncode/rects-%d/serial", rects)
		add(func(b *testing.B) { parallelEncode(b, rects, 0) }, "E19ParallelEncode/rects-%d/parallel", rects)
	}
	add(func(b *testing.B) { videoEncode(b, -1) }, "E19ParallelEncode/video/serial")
	add(func(b *testing.B) { videoEncode(b, 0) }, "E19ParallelEncode/video/parallel")
	add(func(b *testing.B) { refreshCache(b, 0) }, "E20RefreshCache/cache")
	add(func(b *testing.B) { refreshCache(b, -1) }, "E20RefreshCache/nocache")
	for _, tier := range []appshare.QualityTier{appshare.TierFull, appshare.TierDecimated, appshare.TierScaled, appshare.TierKeyframeOnly} {
		add(func(b *testing.B) { ladderTier(b, tier) }, "E21LadderTiers/%s", tier) // full, decimated, scaled, keyframe
	}
	for _, viewers := range []int{128, 1000, 4000, 10000} {
		// single-lock pins SendShards=1 (one mutex, inline fan-out);
		// sharded follows GOMAXPROCS (the production config; on one proc
		// it clamps to one shard and matches single-lock).
		add(func(b *testing.B) { shardedFanout(b, viewers, 1) }, "E22ShardedFanout/viewers-%d/single-lock", viewers)
		add(func(b *testing.B) { shardedFanout(b, viewers, 0) }, "E22ShardedFanout/viewers-%d/sharded", viewers)
	}
	for _, p := range tileProfiles {
		add(func(b *testing.B) { tileLeg(b, p, false) }, "TileStore/%s/store-off", p.name)
		add(func(b *testing.B) { tileLeg(b, p, true) }, "TileStore/%s/store-on", p.name)
	}
	return cs
}

// RunGroup runs every case named group/... as a sub-benchmark of b
// under the rest of its name.
func RunGroup(b *testing.B, group string) {
	for _, c := range Cases() {
		if sub, ok := strings.CutPrefix(c.Name, group+"/"); ok {
			b.Run(sub, c.Run)
		}
	}
}

// parallelEncode (E19) measures one capture tick encoding rects dirty
// rects, serial (workers -1) versus the GOMAXPROCS-sized worker pool
// (0). Fill colours change per iteration so no tick is trivially empty.
func parallelEncode(b *testing.B, rects, workers int) {
	encodeTicks(b, workers, 1536, 1152, func(win *appshare.Window, i int) {
		for r := 0; r < rects; r++ {
			c := color.RGBA{R: byte(i), G: byte(r * 37), B: byte(i >> 8), A: 255}
			win.Fill(appshare.XYWH((r%4)*380, (r/4)*280, 160, 120), c)
		}
	})
}

// videoEncode (E19) measures one capture tick of video_relay's content:
// a 341×256 photo frame (one of 8, generated outside the timer) blitted
// where the video workload plays it in a 1024×768 window. The frame is
// one dirty rectangle, which the pipeline splits into bands: encoded
// one after another (workers -1) or across the pool (0).
func videoEncode(b *testing.B, workers int) {
	frames := make([]*image.RGBA, 8)
	for i := range frames {
		frames[i] = workload.Photo(341, 256, int64(i))
	}
	encodeTicks(b, workers, 1024, 768, func(win *appshare.Window, i int) {
		win.Blit(frames[i%len(frames)], 8, 8)
	})
}

// encodeTicks times paint-then-Tick on a w×h window with the given
// encode pool width. The payload cache is disabled so every dirty rect
// is a real encode.
func encodeTicks(b *testing.B, workers, w, h int, paint func(win *appshare.Window, i int)) {
	desk := appshare.NewDesktop(w+64, h+48)
	win := desk.CreateWindow(1, appshare.XYWH(0, 0, w, h))
	pipe, err := capture.New(desk, appshare.CaptureOptions{
		EncodeWorkers: workers,
		CacheBytes:    -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Drain the initial full-window damage so iterations measure
	// steady-state encoding only.
	if _, err := pipe.Tick(); err != nil {
		b.Fatal(err)
	}
	var payload uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paint(win, i)
		batch, err := pipe.Tick()
		if err != nil {
			b.Fatal(err)
		}
		for _, up := range batch.Updates {
			payload += uint64(len(up.Msg.Content))
		}
	}
	b.ReportMetric(float64(payload)/float64(b.N), "payload-bytes/tick")
}

// refreshCache (E20) measures serving a full refresh to 8 stream
// participants (a late-joiner storm) with the payload cache on (0) or
// off (-1). With the cache, static content is encoded once per window
// and the other seven refreshes are pure hits; without it every refresh
// re-encodes everything.
func refreshCache(b *testing.B, cacheBytes int) {
	const joiners = 8
	desk := appshare.NewDesktop(1280, 1024)
	win := desk.CreateWindow(1, appshare.XYWH(64, 48, 640, 480))
	win.Fill(appshare.XYWH(0, 0, 640, 480), color.RGBA{R: 40, G: 90, B: 160, A: 255})
	win.DrawText(16, 20, "static slide content", color.RGBA{A: 255})
	host, err := appshare.NewHost(appshare.HostConfig{
		Desktop: desk,
		Capture: appshare.CaptureOptions{CacheBytes: cacheBytes},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer host.Close()
	var remotes []*appshare.Remote
	for i := 0; i < joiners; i++ {
		hostEnd, partEnd := StreamPair()
		go io.Copy(io.Discard, partEnd)
		r, err := host.AttachStream(fmt.Sprintf("p%d", i), hostEnd, appshare.StreamOptions{})
		if err != nil {
			b.Fatal(err)
		}
		remotes = append(remotes, r)
	}
	if err := host.Tick(); err != nil {
		b.Fatal(err)
	}
	before := host.EncodeMetrics()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range remotes {
			if err := host.RequestRefresh(r); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	m := host.EncodeMetrics()
	encodes := (m.ParallelJobs + m.SerialJobs) - (before.ParallelJobs + before.SerialJobs)
	if cacheBytes >= 0 {
		encodes = m.Cache.Misses - before.Cache.Misses
		if lookups := (m.Cache.Hits + m.Cache.Misses) - (before.Cache.Hits + before.Cache.Misses); lookups > 0 {
			hits := m.Cache.Hits - before.Cache.Hits
			b.ReportMetric(float64(hits)/float64(lookups), "hit-rate")
		}
	}
	// Encodes per 8-participant refresh storm: ~1 per window with the
	// cache, ~8 per window without.
	b.ReportMetric(float64(encodes)/float64(b.N), "encodes/fanout")
}

// ladderTier (E21) measures one host tick delivering a video region to
// a viewer pinned on one quality-ladder rung: the per-tier cost a
// congested viewer pays (ns/op) and the wire bytes the tier actually
// ships.
func ladderTier(b *testing.B, tier appshare.QualityTier) {
	desk := appshare.NewDesktop(1280, 1024)
	win := desk.CreateWindow(1, appshare.XYWH(100, 80, 512, 384))
	// A generous backlog limit keeps Section 7 backpressure out of the
	// measurement: the tier policy alone decides what ships.
	host, err := appshare.NewHost(appshare.HostConfig{Desktop: desk, BacklogLimit: 8 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer host.Close()
	hostEnd, partEnd := StreamPair()
	go io.Copy(io.Discard, partEnd)
	r, err := host.AttachStream("v", hostEnd, appshare.StreamOptions{})
	if err != nil {
		b.Fatal(err)
	}
	vid := workload.NewVideoRegion(win, appshare.XYWH(0, 0, 192, 144), 17)
	if err := host.Tick(); err != nil { // drain attach-time state
		b.Fatal(err)
	}
	r.PinQualityTier(tier)
	before := r.Health().SentOctets
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vid.Step()
		if err := host.Tick(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	sent := r.Health().SentOctets - before
	b.ReportMetric(float64(sent)/float64(b.N), "wire-bytes/tick")
}

// shardedFanout (E22) measures one host tick fanning a small typing
// region out to viewers attached discard-conn UDP remotes: the
// viewers-vs-tick-latency curve behind the sharded send path.
func shardedFanout(b *testing.B, viewers, shards int) {
	desk := appshare.NewDesktop(640, 480)
	win := desk.CreateWindow(1, appshare.XYWH(0, 0, 512, 384))
	host, err := appshare.NewHost(appshare.HostConfig{Desktop: desk, SendShards: shards})
	if err != nil {
		b.Fatal(err)
	}
	defer host.Close()
	for i := 0; i < viewers; i++ {
		if _, err := host.AttachPacketConn(fmt.Sprintf("v%d", i), NewDiscardConn(nil), appshare.PacketOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	ty := workload.NewTyping(win, 64, 7)
	if err := host.Tick(); err != nil { // drain initial damage
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ty.Step()
		if err := host.Tick(); err != nil {
			b.Fatal(err)
		}
	}
}

// tileProfile is one content-revisit workload of the tile-store legs
// with its warmup split: warmup covers the first lap (every page
// still novel), measure covers pure revisits. Boundaries are multiples
// of the generators' flip intervals.
type tileProfile struct {
	name, workload  string
	warmup, measure int
}

var tileProfiles = []tileProfile{
	{"scroll-back", "pageflip", 4, 40},      // interval 2, 2 pages: both shown by tick 4
	{"re-expose", "reexpose", 3, 39},        // interval 3, 1 page: the first re-blit is a revisit
	{"slide-revisit", "slidecycle", 20, 40}, // interval 5, 4 pages: the first lap ends at tick 20
}

// tileMetrics names the revisit-phase counters a tile leg reports:
// every datagram byte the viewer's conn accepted (RTP headers included),
// the payload bytes split by message kind, the TileReference messages
// substituted, and the content-cache misses — actual PNG encodes, which
// revisits should avoid in both legs; the store saves wire bytes on top.
var tileMetrics = [...]string{"wire-bytes", "update-bytes", "tile-ref-bytes", "tile-refs", "encodes"}

// tileLeg runs one revisit profile against a single UDP viewer, tile
// store on or off; one iteration is the whole leg. The counters are over
// deterministic virtual content, so they depend on neither b.N nor the
// machine, only on what the Go version's PNG encoder emits. The desktop
// mirrors the netsim default: the shared 256x192 window is an exact 8x6
// grid of default-size tiles.
func tileLeg(b *testing.B, p tileProfile, store bool) {
	var before, after [len(tileMetrics)]uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		desk := appshare.NewDesktop(320, 240)
		win := desk.CreateWindow(1, appshare.XYWH(12, 10, 256, 192))
		coll := appshare.NewStats()
		cfg := appshare.HostConfig{Desktop: desk, Stats: coll}
		if store {
			cfg.TileStore = &appshare.TileStoreConfig{}
		}
		host, err := appshare.NewHost(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var sent atomic.Uint64 // sender goroutines deliver, hence atomic
		if _, err := host.AttachPacketConn("v", NewDiscardConn(&sent), appshare.PacketOptions{TileStore: store}); err != nil {
			b.Fatal(err)
		}
		wl, err := workload.ByName(p.workload, desk, win, 7)
		if err != nil {
			b.Fatal(err)
		}
		run := func(ticks int) [len(tileMetrics)]uint64 {
			for ; ticks > 0; ticks-- {
				wl.Step()
				if err := host.Tick(); err != nil {
					b.Fatal(err)
				}
			}
			ref := coll.Get("TileReference")
			return [...]uint64{sent.Load(), coll.Get("RegionUpdate").Bytes, ref.Bytes, ref.Messages, coll.Get("EncodeCacheMiss").Messages}
		}
		before, after = run(p.warmup), run(p.measure)
		host.Close()
	}
	for k, name := range tileMetrics {
		b.ReportMetric(float64(after[k]-before[k]), name)
	}
}

// DiscardConn is a packet conn that accepts everything and blocks Recv
// until Close — the cheapest possible UDP viewer, so the fan-out
// benchmarks measure the host's send path, not a peer. It implements
// SendBatch so the sharded path's batched writes take their fast path,
// as a real sendmmsg-backed socket would.
type DiscardConn struct {
	sent *atomic.Uint64
	done chan struct{}
	once sync.Once
}

// NewDiscardConn returns a conn that adds every accepted datagram's
// length to sent, or counts nothing when sent is nil.
func NewDiscardConn(sent *atomic.Uint64) *DiscardConn {
	return &DiscardConn{sent: sent, done: make(chan struct{})}
}

func (c *DiscardConn) Send(pkt []byte) error {
	if c.sent != nil {
		c.sent.Add(uint64(len(pkt)))
	}
	return nil
}

func (c *DiscardConn) SendBatch(pkts [][]byte) (int, error) {
	if c.sent != nil {
		for _, pkt := range pkts {
			c.sent.Add(uint64(len(pkt)))
		}
	}
	return len(pkts), nil
}

func (c *DiscardConn) Recv() ([]byte, error) {
	<-c.done
	return nil, io.EOF
}

func (c *DiscardConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}

// duplex is one end of a StreamPair: it reads one io.Pipe and writes
// the other.
type duplex struct {
	*io.PipeReader
	*io.PipeWriter
}

func (d duplex) Close() error {
	d.PipeWriter.Close() // always nil
	return d.PipeReader.Close()
}

// StreamPair returns two connected in-memory stream endpoints.
func StreamPair() (a, b io.ReadWriteCloser) {
	ar, bw := io.Pipe()
	br, aw := io.Pipe()
	return duplex{ar, aw}, duplex{br, bw}
}
