package benchsuite

import (
	"image"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"appshare"
	"appshare/internal/codec"
	"appshare/internal/core"
	"appshare/internal/remoting"
	"appshare/internal/workload"
)

// The paper-shape legs (E03, E04, E08, E10, E11): each iteration runs
// the whole experiment on deterministic content and reports its byte and
// message counters as metrics{}, so the numbers depend on neither b.N
// nor the machine — only on the Go version's PNG and JPEG encoders.

// photo is the 640×480 photographic frame of E03 and E10; photoPNG is
// its PNG encoding, E03's RegionUpdate content.
var (
	photo    = sync.OnceValue(func() *image.RGBA { return workload.Photo(640, 480, 11) })
	photoPNG = sync.OnceValues(func() ([]byte, error) { return codec.PNG{}.Encode(photo()) })
)

// textFrame is E10's synthetic (rendered-text) 640×480 frame.
var textFrame = sync.OnceValue(func() *image.RGBA {
	desk := appshare.NewDesktop(800, 600)
	win := desk.CreateWindow(1, appshare.XYWH(0, 0, 640, 480))
	workload.NewTyping(win, 4000, 9).Step() // about one full page
	return win.Snapshot()
})

// fragmentation (E03) splits one PNG RegionUpdate of the photo at mtu
// and reassembles it: the Table 2 machinery and its per-fragment header
// cost. wire-bytes counts each fragment plus its 12-byte RTP header.
func fragmentation(b *testing.B, mtu int) {
	content, err := photoPNG()
	if err != nil {
		b.Fatal(err)
	}
	update := &remoting.RegionUpdate{WindowID: 1, ContentPT: codec.PayloadTypePNG, Content: content}
	ra := core.NewReassembler()
	var packets, wire int
	b.SetBytes(int64(len(content)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frags, err := update.Fragments(mtu)
		if err != nil {
			b.Fatal(err)
		}
		packets, wire = len(frags), 0
		var msg *core.Message
		for _, f := range frags {
			wire += len(f.Payload) + 12
			if msg, err = ra.Push(f.Payload, f.Marker); err != nil {
				b.Fatal(err)
			}
		}
		if msg == nil {
			b.Fatal("message did not complete")
		}
	}
	b.ReportMetric(float64(packets), "packets")
	b.ReportMetric(float64(wire), "wire-bytes")
}

// scroll (E04) scrolls a 640×480 document 20 steps × 3 lines to one UDP
// viewer, with MoveRectangle detection on (move) or off (update-only),
// and counts what the scroll itself put on the wire (§5.2.3). Twenty
// steps keep the update-only leg's full-window PNG re-encodes under 1 s.
func scroll(b *testing.B, move bool) {
	var wire, msgs uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		desk := appshare.NewDesktop(1280, 1024)
		win := desk.CreateWindow(1, appshare.XYWH(100, 80, 640, 480))
		coll := appshare.NewStats()
		host, err := appshare.NewHost(appshare.HostConfig{
			Desktop: desk,
			Stats:   coll,
			Capture: appshare.CaptureOptions{DisableMoveDetection: !move},
		})
		if err != nil {
			b.Fatal(err)
		}
		var sent atomic.Uint64
		if _, err := host.AttachPacketConn("v", NewDiscardConn(&sent), appshare.PacketOptions{}); err != nil {
			b.Fatal(err)
		}
		if err := host.Tick(); err != nil { // ship the initial window
			b.Fatal(err)
		}
		wire, msgs = sent.Load(), coll.Total().Messages
		sc := workload.NewScrolling(win, 3, 7)
		for s := 0; s < 20; s++ {
			sc.Step()
			if err := host.Tick(); err != nil {
				b.Fatal(err)
			}
		}
		wire, msgs = sent.Load()-wire, coll.Total().Messages-msgs
		host.Close()
	}
	b.ReportMetric(float64(wire), "wire-bytes")
	b.ReportMetric(float64(msgs), "messages")
}

// lateJoin (E08) serves the PLI full refresh (§4.3, §5.3.1) of a w×h
// text window to a UDP viewer that joins after the session's activity.
func lateJoin(b *testing.B, w, h int) {
	var wire uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		desk := appshare.NewDesktop(1280, 1024)
		win := desk.CreateWindow(1, appshare.XYWH(100, 80, w, h))
		host, err := appshare.NewHost(appshare.HostConfig{Desktop: desk})
		if err != nil {
			b.Fatal(err)
		}
		workload.NewTyping(win, w*h/(6*9), 3).Step() // one 6×9 px cell per char: a page
		if err := host.Tick(); err != nil { // drain damage pre-join
			b.Fatal(err)
		}
		var sent atomic.Uint64
		r, err := host.AttachPacketConn("late", NewDiscardConn(&sent), appshare.PacketOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if err := host.RequestRefresh(r); err != nil {
			b.Fatal(err)
		}
		wire = sent.Load()
		host.Close()
	}
	b.ReportMetric(float64(wire), "wire-bytes")
}

// codecFrame (E10) encodes one 640×480 frame of synthetic or
// photographic content: §4.2's codec × content matrix.
func codecFrame(b *testing.B, c appshare.Codec, img func() *image.RGBA) {
	in := img()
	var size int
	b.SetBytes(int64(len(in.Pix)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := c.Encode(in)
		if err != nil {
			b.Fatal(err)
		}
		size = len(data)
	}
	b.ReportMetric(float64(size), "bytes/frame")
}

// backlog (E11) streams 40 frames of a 256×192 video region to a TCP
// viewer whose link drains 1 B/s — effectively never — with §7
// coalescing on or off: deferred frames and the bytes left queued. The
// coalescing sender queues one frame, the naive one all 40.
func backlog(b *testing.B, coalesce bool) {
	var deferrals uint64
	var queued int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		desk := appshare.NewDesktop(1280, 1024)
		win := desk.CreateWindow(1, appshare.XYWH(100, 80, 256, 192))
		host, err := appshare.NewHost(appshare.HostConfig{Desktop: desk})
		if err != nil {
			b.Fatal(err)
		}
		hostEnd, partEnd := StreamPair()
		go io.Copy(io.Discard, partEnd)
		r, err := host.AttachStream("slow", hostEnd, appshare.StreamOptions{BytesPerSecond: 1, DisableCoalescing: !coalesce})
		if err != nil {
			b.Fatal(err)
		}
		vid := workload.NewVideoRegion(win, appshare.XYWH(0, 0, 256, 192), 13)
		for t := 0; t < 40; t++ {
			vid.Step()
			if err := host.Tick(); err != nil {
				b.Fatal(err)
			}
		}
		deferrals, queued = r.Deferrals(), r.QueuedBytes()
		host.Close()
	}
	b.ReportMetric(float64(deferrals), "deferrals")
	b.ReportMetric(float64(queued), "queued-bytes")
}
