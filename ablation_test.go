// Ablation benchmarks for the tunable design choices DESIGN.md calls
// out: damage coalescing budget, content-adaptive codec selection and
// capture mode.
package appshare_test

import (
	"fmt"
	"testing"

	"appshare"
	"appshare/internal/capture"
	"appshare/internal/stats"
	"appshare/internal/workload"
)

// BenchmarkAblationCoalesceWaste sweeps the damage coalescing budget on
// a typing workload (many small dirty rects). Small budgets send many
// small updates (header overhead); huge budgets re-encode untouched
// pixels between the rects.
func BenchmarkAblationCoalesceWaste(b *testing.B) {
	for _, waste := range []int{0, 1 << 10, 64 << 10, 1 << 30} {
		b.Run(fmt.Sprintf("waste-%d", waste), func(b *testing.B) {
			desk := appshare.NewDesktop(1280, 1024)
			win := desk.CreateWindow(1, appshare.XYWH(100, 80, 640, 480))
			st := stats.NewCollector()
			host, err := appshare.NewHost(appshare.HostConfig{
				Desktop: desk,
				Stats:   st,
				Capture: appshare.CaptureOptions{CoalesceWaste: waste},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer host.Close()
			hostSide, partSide := appshare.SimulatedLink(appshare.LinkConfig{Seed: 1}, appshare.LinkConfig{Seed: 2})
			if _, err := host.AttachPacketConn("p", hostSide, appshare.PacketOptions{}); err != nil {
				b.Fatal(err)
			}
			go func() {
				for {
					if _, err := partSide.Recv(); err != nil {
						return
					}
				}
			}()
			ty := workload.NewTyping(win, 48, 5)
			if err := host.Tick(); err != nil {
				b.Fatal(err)
			}
			st.Reset()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ty.Step()
				if err := host.Tick(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			t := st.Total()
			if t.Messages > 0 {
				b.ReportMetric(float64(t.Bytes)/float64(b.N), "bytes/tick")
				b.ReportMetric(float64(t.Messages)/float64(b.N), "msgs/tick")
			}
		})
	}
}

// BenchmarkAblationAutoCodec compares fixed-PNG against content-adaptive
// codec selection on a mixed desktop (text window + embedded video
// region). AutoSelect should cut bytes on the photographic region while
// keeping text lossless.
func BenchmarkAblationAutoCodec(b *testing.B) {
	for _, mode := range []struct {
		name string
		auto bool
	}{{"png-only", false}, {"auto", true}} {
		b.Run(mode.name, func(b *testing.B) {
			desk := appshare.NewDesktop(1280, 1024)
			win := desk.CreateWindow(1, appshare.XYWH(100, 80, 640, 480))
			st := stats.NewCollector()
			host, err := appshare.NewHost(appshare.HostConfig{
				Desktop: desk,
				Stats:   st,
				Capture: appshare.CaptureOptions{AutoSelect: mode.auto},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer host.Close()
			hostSide, partSide := appshare.SimulatedLink(appshare.LinkConfig{Seed: 1}, appshare.LinkConfig{Seed: 2})
			if _, err := host.AttachPacketConn("p", hostSide, appshare.PacketOptions{}); err != nil {
				b.Fatal(err)
			}
			go func() {
				for {
					if _, err := partSide.Recv(); err != nil {
						return
					}
				}
			}()
			ty := workload.NewTyping(win, 32, 5)
			vid := workload.NewVideoRegion(win, appshare.XYWH(320, 240, 200, 150), 7)
			if err := host.Tick(); err != nil {
				b.Fatal(err)
			}
			st.Reset()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ty.Step()
				vid.Step()
				if err := host.Tick(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if t := st.Total(); t.Messages > 0 {
				b.ReportMetric(float64(t.Bytes)/float64(b.N), "bytes/tick")
			}
		})
	}
}

// BenchmarkAblationCaptureMode compares event-driven (journal) capture
// against polling capture with tile hashing and scroll detection — the
// cost a real AH pays when the window system provides no damage events.
func BenchmarkAblationCaptureMode(b *testing.B) {
	b.Run("journal", func(b *testing.B) {
		desk := appshare.NewDesktop(1280, 1024)
		win := desk.CreateWindow(1, appshare.XYWH(100, 80, 640, 480))
		p, err := capture.New(desk, capture.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ty := workload.NewTyping(win, 48, 5)
		if _, err := p.Tick(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ty.Step()
			if _, err := p.Tick(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("polling", func(b *testing.B) {
		desk := appshare.NewDesktop(1280, 1024)
		win := desk.CreateWindow(1, appshare.XYWH(100, 80, 640, 480))
		p, err := capture.New(desk, capture.Options{})
		if err != nil {
			b.Fatal(err)
		}
		po := capture.NewPoller(p, 32, 40)
		ty := workload.NewTyping(win, 48, 5)
		if _, err := po.Tick(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ty.Step()
			if _, err := po.Tick(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
