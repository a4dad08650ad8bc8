package main

import (
	"fmt"
	"image"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"appshare"
	"appshare/internal/ah"
	"appshare/internal/capture"
	"appshare/internal/codec"
	"appshare/internal/core"
	"appshare/internal/display"
	"appshare/internal/region"
	"appshare/internal/relay"
	"appshare/internal/rtp"
	"appshare/internal/stats"
	"appshare/internal/workload"
)

// The direct-drive pass replays a workload's seeded step sequence on twin
// desktops and calls one layer's public functions at a time, so each
// layer gets a number that no other layer's time is mixed into. The twins
// see the same pixels as the live session: same seed, same steps.

const (
	directSteps  = 90 // steps replayed through capture/codec/remoting/rtp/core
	refreshEvery = 15 // FullRefresh after each 15th step
	// The two send paths replay at most sendSteps steps into sendViewers
	// sinks, and stop once sendPkts payloads are captured: every relay
	// viewer retains up to 1 024 datagrams, so 40 video steps (4 900
	// datagrams) into 1 000 sinks would hold 1.2 GB, while 100 sinks would
	// leave typing's one or two datagrams a step within the timer's noise.
	sendSteps   = 40
	sendPkts    = 100
	sendViewers = 1000

	recordCalls   = 200000
	udpProbePkts  = 4000
	udpProbeBytes = 1200
)

// twin builds a desktop, window and workload identical to a session's.
func twin(sp *spec, seed int64) (*display.Desktop, *display.Window, workload.Workload, error) {
	desk := display.NewDesktop(deskW, deskH)
	win := desk.CreateWindow(1, region.XYWH(100, 80, 1024, 768))
	wl, err := sp.load(desk, win, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	for i := 0; i < sp.prefill; i++ {
		wl.Step()
	}
	return desk, win, wl, nil
}

// directDrive returns the direct-drive layer metrics of sp.
func directDrive(sp *spec, seed int64) (map[string]float64, error) {
	m := make(map[string]float64)
	if err := driveCapture(sp, seed, m); err != nil {
		return nil, fmt.Errorf("direct-drive capture: %w", err)
	}
	if err := driveSendPaths(sp, seed, m); err != nil {
		return nil, fmt.Errorf("direct-drive send paths: %w", err)
	}
	driveStats(m)
	if err := driveUDP(m); err != nil {
		return nil, fmt.Errorf("direct-drive udp: %w", err)
	}
	return m, nil
}

// driveCapture times capture, codec, remoting, rtp and core over the
// updates each step produces.
func driveCapture(sp *spec, seed int64, m map[string]float64) error {
	desk, win, wl, err := twin(sp, seed)
	if err != nil {
		return err
	}
	pipe, err := capture.New(desk, capture.Options{})
	if err != nil {
		return err
	}
	if _, err := pipe.Tick(); err != nil { // the prefill's damage
		return err
	}
	png := codec.PNG{}
	pz := rtp.NewPacketizer(1, ah.DefaultRemotingPT, time.Now())
	re := core.NewReassembler()
	var (
		tickNs, refreshNs                  []int64
		encodeNs, hashNs, decodeNs, fragNs int64
		marshalNs, pushNs, payload, pkts   int64
	)
	since := func(t time.Time) int64 { return int64(time.Since(t)) }
	for i := 1; i <= directSteps; i++ {
		wl.Step()
		t := time.Now()
		b, err := pipe.Tick()
		tickNs = append(tickNs, since(t))
		if err != nil {
			return err
		}
		for _, up := range b.Updates {
			local := up.Rect.Translate(-win.Bounds().Left, -win.Bounds().Top)
			r := image.Rect(local.Left, local.Top, local.Right(), local.Bottom())
			t = time.Now()
			if _, err := codec.EncodeSubImage(png, win.Image(), r); err != nil {
				return err
			}
			encodeNs += since(t)
			t = time.Now()
			codec.KeyFor(codec.PayloadTypePNG, win.Image(), r)
			hashNs += since(t)
			t = time.Now()
			if _, err := png.Decode(up.Msg.Content); err != nil {
				return err
			}
			decodeNs += since(t)
			payload += int64(len(up.Msg.Content))

			t = time.Now()
			frags, err := up.Msg.Fragments(ah.DefaultMTU)
			fragNs += since(t)
			if err != nil {
				return err
			}
			now := time.Now()
			t = time.Now()
			for _, f := range frags {
				if _, err := pz.Packetize(f.Payload, f.Marker, now).Marshal(); err != nil {
					return err
				}
			}
			marshalNs += since(t)
			t = time.Now()
			for _, f := range frags {
				if _, err := re.Push(f.Payload, f.Marker); err != nil {
					return err
				}
			}
			pushNs += since(t)
			pkts += int64(len(frags))
		}
		if i%refreshEvery == 0 {
			t = time.Now()
			if _, err := pipe.FullRefresh(); err != nil {
				return err
			}
			refreshNs = append(refreshNs, since(t))
		}
	}
	ticks := nsToSortedMs(tickNs)
	m["capture.tick_us_p50"] = quantile(ticks, 0.5) * 1e3
	m["capture.tick_us_p99"] = quantile(ticks, 0.99) * 1e3
	m["capture.full_refresh_ms"] = quantile(nsToSortedMs(refreshNs), 0.5)
	m["codec.encode_us_per_tick"] = float64(encodeNs) / directSteps / 1e3
	m["codec.hash_us_per_tick"] = float64(hashNs) / directSteps / 1e3
	m["codec.decode_us_per_tick"] = float64(decodeNs) / directSteps / 1e3
	m["codec.payload_bytes_per_tick"] = float64(payload) / directSteps
	m["remoting.fragment_us_per_tick"] = float64(fragNs) / directSteps / 1e3
	m["rtp.marshal_ns_per_pkt"] = float64(marshalNs) / float64(max(pkts, 1))
	m["core.reassemble_ns_per_pkt"] = float64(pushNs) / float64(max(pkts, 1))
	return nil
}

// payloadTap is a Forwarder that keeps every batch it is handed.
type payloadTap struct {
	batches [][]ah.PreparedPayload
}

func (p *payloadTap) ForwardBatch(_ uint32, msgs []ah.PreparedPayload) error {
	p.batches = append(p.batches, msgs)
	return nil
}

func (p *payloadTap) pkts() int {
	n := 0
	for _, b := range p.batches {
		n += len(b)
	}
	return n
}

func (p *payloadTap) ForwardRefresh(uint32, []ah.PreparedPayload) error { return nil }

// driveSendPaths puts the product's two per-viewer send paths side by
// side over the same payloads: the origin's (Host.Tick into sendViewers
// sinks, minus the same ticks on a host with none) and the relay's
// (Relay.ForwardBatch into as many sinks). It also prices one attach and
// reads the batch the origin hands a BatchSender in one call.
func driveSendPaths(sp *spec, seed int64, m map[string]float64) error {
	var off atomic.Bool
	newHost := func() (*ah.Host, workload.Workload, error) {
		desk, _, wl, err := twin(sp, seed)
		if err != nil {
			return nil, nil, err
		}
		h, err := ah.New(ah.Config{Desktop: desk})
		return h, wl, err
	}
	bare, bareLoad, err := newHost()
	if err != nil {
		return err
	}
	defer bare.Close()
	tap := &payloadTap{}
	bare.AttachForwarder(tap)
	full, fullLoad, err := newHost()
	if err != nil {
		return err
	}
	defer full.Close()

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC() // the second cycle finishes sweeping what the first freed
	runtime.ReadMemStats(&m0)
	began := time.Now()
	sinks := make([]*sinkConn, sendViewers)
	for i := range sinks {
		sinks[i] = newSinkConn(nil, &off)
		if _, err := full.AttachPacketConn(fmt.Sprintf("sink-%d", i), sinks[i], ah.PacketOptions{}); err != nil {
			return err
		}
	}
	attachNs := int64(time.Since(began))
	runtime.GC()
	runtime.ReadMemStats(&m1)
	m["ah.attach_us_per_viewer"] = float64(attachNs) / sendViewers / 1e3
	m["ah.heap_bytes_per_viewer"] = (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / sendViewers

	var bareNs, fullNs int64
	pkts := 0
	for i := 0; i <= sendSteps && pkts < sendPkts; i++ {
		bareLoad.Step()
		fullLoad.Step()
		t := time.Now()
		if err := bare.Tick(); err != nil {
			return err
		}
		mid := time.Now()
		if err := full.Tick(); err != nil {
			return err
		}
		if i == 0 { // the prefill's damage, on both
			tap.batches = nil
			for _, sink := range sinks {
				sink.calls, sink.pkts = 0, 0
			}
			continue
		}
		bareNs += int64(mid.Sub(t))
		fullNs += int64(time.Since(mid))
		pkts = tap.pkts()
	}
	if pkts == 0 {
		return fmt.Errorf("no payloads captured in %d steps", sendSteps)
	}
	m["ah.send_ns_per_viewer_pkt"] = float64(fullNs-bareNs) / float64(pkts) / sendViewers
	// Tick's barrier orders the senders' writes of the counters before
	// these reads.
	var calls, sent uint64
	for _, sink := range sinks {
		calls += sink.calls
		sent += sink.pkts
	}
	m["transport.pkts_per_sendbatch"] = float64(sent) / float64(max(calls, 1))

	rl := relay.New(relay.Config{})
	defer rl.Close()
	for i := 0; i < sendViewers; i++ {
		if _, err := rl.AttachPacketConn(fmt.Sprintf("sink-%d", i), newSinkConn(nil, &off)); err != nil {
			return err
		}
	}
	began = time.Now()
	for _, b := range tap.batches {
		if err := rl.ForwardBatch(0, b); err != nil {
			return err
		}
	}
	m["relay.forward_ns_per_viewer_pkt"] = float64(time.Since(began)) / float64(pkts) / sendViewers
	return nil
}

// driveStats prices one Collector.Record, alone and from every processor
// at once.
func driveStats(m map[string]float64) {
	c := stats.NewCollector()
	began := time.Now()
	for i := 0; i < recordCalls; i++ {
		c.Record("RegionUpdate", 1200)
	}
	m["stats.record_ns"] = float64(time.Since(began)) / recordCalls

	procs := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	began = time.Now()
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < recordCalls; i++ {
				c.Record("RegionUpdate", 1200)
			}
		}()
	}
	wg.Wait()
	// Wall time per call of one goroutine while the others contend.
	m["stats.record_ns_contended"] = float64(time.Since(began)) / recordCalls
}

// driveUDP prices one datagram through the product's UDP adapter on
// loopback, sender side, with a reader draining the other end.
func driveUDP(m map[string]float64) error {
	rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	defer rx.Close()
	if err := rx.SetReadBuffer(viewerReadBytes); err != nil {
		return err
	}
	tx, err := net.DialUDP("udp", nil, rx.LocalAddr().(*net.UDPAddr))
	if err != nil {
		return err
	}
	defer tx.Close()
	var drained sync.WaitGroup
	drained.Add(1)
	go func() {
		defer drained.Done()
		buf := make([]byte, 2048)
		for {
			if _, err := rx.Read(buf); err != nil {
				return // the read deadline set once sending is over
			}
		}
	}()
	adapter := &appshare.UDPAdapter{Conn: tx}
	batch := make([][]byte, 16)
	for i := range batch {
		batch[i] = make([]byte, udpProbeBytes)
	}
	began := time.Now()
	sent := 0
	for sent < udpProbePkts {
		n, err := adapter.SendBatch(batch)
		sent += n
		if err != nil {
			break
		}
	}
	elapsed := time.Since(began)
	if err := rx.SetReadDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		return err
	}
	drained.Wait()
	if sent == 0 {
		return fmt.Errorf("no datagram sent")
	}
	m["transport.udp_send_ns_per_pkt"] = float64(elapsed) / float64(sent)
	return nil
}

func mean(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	var sum int64
	for _, v := range ns {
		sum += v
	}
	return float64(sum) / float64(len(ns))
}
