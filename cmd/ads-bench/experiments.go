package main

import (
	"fmt"
	"image"
	"io"
	"log"
	"time"

	"appshare"
	"appshare/internal/benchsuite"
	"appshare/internal/bfcp"
	"appshare/internal/capture"
	"appshare/internal/codec"
	"appshare/internal/framing"
	"appshare/internal/remoting"
	"appshare/internal/workload"
)

// session bundles one host + one simulated-link participant for the
// experiments.
type session struct {
	desk *appshare.Desktop
	win  *appshare.Window
	host *appshare.Host
	st   *appshare.Stats
	p    *appshare.Participant
	conn *appshare.Connection
}

func newSession(hostCfg appshare.HostConfig, link appshare.LinkConfig, winW, winH int) *session {
	s := &session{}
	s.desk = appshare.NewDesktop(1280, 1024)
	s.win = s.desk.CreateWindow(1, appshare.XYWH(100, 80, winW, winH))
	s.st = appshare.NewStats()
	hostCfg.Desktop = s.desk
	hostCfg.Stats = s.st
	host, err := appshare.NewHost(hostCfg)
	if err != nil {
		log.Fatal(err)
	}
	s.host = host
	hostSide, partSide := appshare.SimulatedLink(link, appshare.LinkConfig{Seed: 999})
	if _, err := host.AttachPacketConn("bench", hostSide, appshare.PacketOptions{}); err != nil {
		log.Fatal(err)
	}
	s.p = appshare.NewParticipant(appshare.ParticipantConfig{})
	s.conn = appshare.ConnectPacket(s.p, partSide)
	return s
}

func (s *session) close() {
	s.conn.Close()
	s.host.Close()
}

func (s *session) join() {
	if err := s.conn.SendPLI(); err != nil {
		log.Fatal(err)
	}
	// The PLI-triggered refresh is served on the next Tick.
	waitUntil(func() bool {
		if err := s.host.Tick(); err != nil {
			log.Fatal(err)
		}
		return len(s.p.Windows()) > 0
	})
}

func waitUntil(cond func() bool) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	log.Fatal("bench: timeout")
}

// runE03Fragmentation measures RTP packet counts and header overhead of
// fragmenting one RegionUpdate across MTUs (Table 2 machinery).
func runE03Fragmentation() {
	img := workload.Photo(640, 480, 42)
	content, err := (codec.PNG{}).Encode(img)
	if err != nil {
		log.Fatal(err)
	}
	update := &remoting.RegionUpdate{WindowID: 1, ContentPT: codec.PayloadTypePNG, Content: content}
	fmt.Printf("PNG content: %d bytes (640x480 photo)\n", len(content))
	fmt.Printf("%8s %10s %14s %12s\n", "MTU", "packets", "wire bytes", "overhead")
	for _, mtu := range []int{256, 512, 1200, 1400, 8192, 65000} {
		frags, err := update.Fragments(mtu)
		if err != nil {
			log.Fatal(err)
		}
		wire := 0
		for _, f := range frags {
			wire += len(f.Payload) + 12 // + RTP header
		}
		over := float64(wire-len(content)) / float64(len(content)) * 100
		fmt.Printf("%8d %10d %14d %11.2f%%\n", mtu, len(frags), wire, over)
	}
}

// runE04Scroll compares MoveRectangle against pixel re-encoding on a
// scrolling document.
func runE04Scroll() {
	const steps = 60
	run := func(useMove bool) (msgs, bytes uint64) {
		s := newSession(appshare.HostConfig{
			Capture: appshare.CaptureOptions{DisableMoveDetection: !useMove},
		}, appshare.LinkConfig{Seed: 4}, 640, 480)
		defer s.close()
		s.join()
		s.st.Reset()
		sc := workload.NewScrolling(s.win, 3, 7)
		for i := 0; i < steps; i++ {
			sc.Step()
			if err := s.host.Tick(); err != nil {
				log.Fatal(err)
			}
		}
		t := s.st.Total()
		return t.Messages, t.Bytes
	}
	mMsgs, mBytes := run(true)
	nMsgs, nBytes := run(false)
	fmt.Printf("%-26s %10s %12s\n", "strategy", "messages", "bytes")
	fmt.Printf("%-26s %10d %12d\n", "MoveRectangle+updates", mMsgs, mBytes)
	fmt.Printf("%-26s %10d %12d\n", "RegionUpdate only", nMsgs, nBytes)
	fmt.Printf("savings: %.1fx\n", float64(nBytes)/float64(mBytes))
}

// runE08LateJoin measures the bytes and time for a PLI-triggered full
// refresh at several shared-region sizes.
func runE08LateJoin() {
	fmt.Printf("%12s %14s %12s\n", "window", "refresh bytes", "time")
	for _, size := range []struct{ w, h int }{{320, 240}, {640, 480}, {1024, 768}} {
		desk := appshare.NewDesktop(1280, 1024)
		win := desk.CreateWindow(1, appshare.XYWH(100, 80, size.w, size.h))
		st := appshare.NewStats()
		host, err := appshare.NewHost(appshare.HostConfig{Desktop: desk, Stats: st})
		if err != nil {
			log.Fatal(err)
		}
		// Session activity before the participant exists: text content.
		ty := workload.NewTyping(win, 2000, 3)
		for i := 0; i < 20; i++ {
			ty.Step()
		}
		if err := host.Tick(); err != nil { // drain damage pre-join
			log.Fatal(err)
		}
		st.Reset()

		// Now the late joiner appears and PLIs (Section 4.3).
		hostSide, partSide := appshare.SimulatedLink(appshare.LinkConfig{Seed: 8}, appshare.LinkConfig{Seed: 9})
		if _, err := host.AttachPacketConn("late", hostSide, appshare.PacketOptions{}); err != nil {
			log.Fatal(err)
		}
		p := appshare.NewParticipant(appshare.ParticipantConfig{})
		conn := appshare.ConnectPacket(p, partSide)
		start := time.Now()
		if err := conn.SendPLI(); err != nil {
			log.Fatal(err)
		}
		waitUntil(func() bool {
			if err := host.Tick(); err != nil {
				log.Fatal(err)
			}
			return len(p.Windows()) > 0
		})
		elapsed := time.Since(start)
		time.Sleep(50 * time.Millisecond) // let trailing refresh packets record
		fmt.Printf("%5dx%-6d %14d %12v\n", size.w, size.h, st.Total().Bytes, elapsed.Round(time.Millisecond))
		conn.Close()
		host.Close()
	}
}

// runE09NACK sweeps loss rates and reports stream completeness with and
// without retransmissions.
func runE09NACK() {
	const ticks = 40
	run := func(loss float64, retrans bool) (missingAfter int, retransBytes uint64) {
		s := newSession(appshare.HostConfig{Retransmissions: retrans},
			appshare.LinkConfig{LossRate: loss, Seed: 17}, 480, 360)
		defer s.close()
		s.join()
		ty := workload.NewTyping(s.win, 64, 5)
		for i := 0; i < ticks; i++ {
			ty.Step()
			if err := s.host.Tick(); err != nil {
				log.Fatal(err)
			}
			if retrans {
				if err := s.conn.SendNACKIfNeeded(); err != nil {
					log.Fatal(err)
				}
			}
		}
		// Repair rounds.
		if retrans {
			for round := 0; round < 30; round++ {
				time.Sleep(5 * time.Millisecond)
				if len(s.p.MissingSequences()) == 0 {
					break
				}
				if err := s.conn.SendNACKIfNeeded(); err != nil {
					log.Fatal(err)
				}
			}
		}
		time.Sleep(20 * time.Millisecond)
		return len(s.p.MissingSequences()), s.st.Get("Retransmission").Bytes
	}
	fmt.Printf("%8s %22s %22s %14s\n", "loss", "missing (no retrans)", "missing (w/ retrans)", "repair bytes")
	for _, loss := range []float64{0.01, 0.05, 0.10, 0.20} {
		noR, _ := run(loss, false)
		withR, rb := run(loss, true)
		fmt.Printf("%7.0f%% %22d %22d %14d\n", loss*100, noR, withR, rb)
	}
}

// runE10Codecs prints the codec x content matrix of Section 4.2.
func runE10Codecs() {
	synth := image.NewRGBA(image.Rect(0, 0, 640, 480))
	{
		// Text-like content via the typing workload on a scratch window.
		desk := appshare.NewDesktop(800, 600)
		win := desk.CreateWindow(1, appshare.XYWH(0, 0, 640, 480))
		ty := workload.NewTyping(win, 4000, 9)
		for i := 0; i < 12; i++ {
			ty.Step()
		}
		synth = win.Snapshot()
	}
	photo := workload.Photo(640, 480, 11)

	codecs := []appshare.Codec{codec.PNG{}, codec.JPEG{Quality: 75}, codec.Raw{}}
	raw := 640 * 480 * 4
	fmt.Printf("%-8s %-14s %12s %10s %10s %10s\n", "codec", "content", "bytes", "ratio", "lossless", "enc time")
	for _, c := range codecs {
		for _, in := range []struct {
			name string
			img  *image.RGBA
		}{{"synthetic", synth}, {"photographic", photo}} {
			start := time.Now()
			data, err := c.Encode(in.img)
			if err != nil {
				log.Fatal(err)
			}
			enc := time.Since(start)
			fmt.Printf("%-8s %-14s %12d %9.1fx %10v %10v\n",
				c.Name(), in.name, len(data), float64(raw)/float64(len(data)), c.Lossless(), enc.Round(time.Microsecond))
		}
	}
}

// pumpStream feeds framed remoting packets into a participant until EOF.
func pumpStream(p *appshare.Participant, src io.Reader) {
	fr := framing.NewReader(src)
	for {
		pkt, err := fr.ReadFrame()
		if err != nil {
			return
		}
		_ = p.HandlePacket(pkt)
	}
}

// runE11Backlog compares screen freshness on a slow TCP link with the
// Section 7 coalescing on and off.
func runE11Backlog() {
	const (
		ticks = 40
		rate  = 64 << 10 // 64 KB/s link
	)
	run := func(coalesce bool) (deferred uint64, queuedAfter int, sent uint64) {
		desk := appshare.NewDesktop(1280, 1024)
		win := desk.CreateWindow(1, appshare.XYWH(100, 80, 512, 384))
		st := appshare.NewStats()
		host, err := appshare.NewHost(appshare.HostConfig{Desktop: desk, Stats: st})
		if err != nil {
			log.Fatal(err)
		}
		defer host.Close()
		hostEnd, partEnd := benchsuite.StreamPair()
		p := appshare.NewParticipant(appshare.ParticipantConfig{})
		go pumpStream(p, partEnd)
		remote, err := host.AttachStream("slow", hostEnd, appshare.StreamOptions{
			BytesPerSecond:    rate,
			DisableCoalescing: !coalesce,
		})
		if err != nil {
			log.Fatal(err)
		}
		vid := workload.NewVideoRegion(win, appshare.XYWH(0, 0, 512, 384), 13)
		for i := 0; i < ticks; i++ {
			vid.Step()
			if err := host.Tick(); err != nil {
				log.Fatal(err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		return remote.Deferrals(), remote.QueuedBytes(), st.Total().Bytes
	}
	cDef, cQueue, cSent := run(true)
	nDef, nQueue, nSent := run(false)
	fmt.Printf("video region on a %d KB/s link, %d frames:\n", rate>>10, ticks)
	fmt.Printf("%-22s %10s %16s %14s\n", "mode", "deferred", "queued at end", "bytes offered")
	fmt.Printf("%-22s %10d %16d %14d\n", "coalescing (Sec. 7)", cDef, cQueue, cSent)
	fmt.Printf("%-22s %10d %16d %14d\n", "naive (send all)", nDef, nQueue, nSent)
	fmt.Printf("queued-backlog reduction: %.1fx\n", float64(nQueue+1)/float64(cQueue+1))
}

// runE15Floor measures floor grant churn through the FIFO queue.
func runE15Floor() {
	const users = 200
	granted := 0
	floor := appshare.NewFloor(1, func(uid uint16, m *bfcp.Message) {
		if m.Primitive == bfcp.FloorGranted {
			granted++
		}
	})
	start := time.Now()
	for u := uint16(1); u <= users; u++ {
		if err := floor.Request(u); err != nil {
			log.Fatal(err)
		}
	}
	for {
		h, ok := floor.Holder()
		if !ok {
			break
		}
		if err := floor.Release(h); err != nil {
			log.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("%d users requested, %d grants issued in FIFO order, %v total (%v per transition)\n",
		users, granted, elapsed.Round(time.Microsecond), (elapsed / users).Round(time.Nanosecond))
}

// runE19CaptureModes compares the journaled capture path against polling
// with tile hashing and scroll detection (Section 4.2's "Detecting a
// change in the GUI" under an opaque framebuffer).
func runE19CaptureModes() {
	const ticks = 40
	measure := func(poll bool) (time.Duration, int) {
		desk := appshare.NewDesktop(1280, 1024)
		win := desk.CreateWindow(1, appshare.XYWH(100, 80, 640, 480))
		pipe, err := capture.New(desk, capture.Options{})
		if err != nil {
			log.Fatal(err)
		}
		var poller *capture.Poller
		if poll {
			poller = capture.NewPoller(pipe, 32, 40)
		}
		tick := func() (*capture.Batch, error) {
			if poll {
				return poller.Tick()
			}
			return pipe.Tick()
		}
		ty := workload.NewTyping(win, 48, 5)
		sc := workload.NewScrolling(win, 1, 6)
		if _, err := tick(); err != nil {
			log.Fatal(err)
		}
		bytesOut := 0
		start := time.Now()
		for i := 0; i < ticks; i++ {
			if i%4 == 3 {
				sc.Step()
			} else {
				ty.Step()
			}
			b, err := tick()
			if err != nil {
				log.Fatal(err)
			}
			for _, up := range b.Updates {
				bytesOut += len(up.Msg.Content)
			}
			bytesOut += 28 * len(b.Moves)
		}
		return time.Since(start) / ticks, bytesOut / ticks
	}
	jTime, jBytes := measure(false)
	pTime, pBytes := measure(true)
	fmt.Printf("%-28s %14s %16s\n", "capture mode", "tick time", "payload B/tick")
	fmt.Printf("%-28s %14v %16d\n", "journal (window events)", jTime.Round(time.Microsecond), jBytes)
	fmt.Printf("%-28s %14v %16d\n", "polling (hash+scrolldetect)", pTime.Round(time.Microsecond), pBytes)
	fmt.Printf("polling CPU overhead: %.1fx\n", float64(pTime)/float64(jTime))
}
