package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"appshare"
	"appshare/internal/ah"
	"appshare/internal/display"
	"appshare/internal/participant"
	"appshare/internal/region"
	"appshare/internal/relay"
	"appshare/internal/rtcp"
	"appshare/internal/stats"
	"appshare/internal/workload"
)

// spec is one named workload: a topology, a load and a loop type.
type spec struct {
	name string
	why  string
	// hz is the open-loop tick rate; 0 is a closed loop (the next tick
	// starts as soon as the last returns).
	hz int
	// relay routes the stream origin → TCP loopback → relay → viewers.
	relay bool
	// sinks is the in-process fan-out population attached to the origin.
	sinks int
	// residents is the number of real UDP viewers that are sampled.
	residents int
	// lossRate is the share of received datagrams each resident's
	// decorator drops; retrans turns HostConfig.Retransmissions on.
	lossRate float64
	retrans  bool
	// joinEvery schedules one transient joiner at a time.
	joinEvery time.Duration
	// prefill steps run before the host exists, so the first refresh and
	// every measured tick see the workload's steady state (a full page
	// of text that scrolls, not an empty window).
	prefill   int
	warmTicks int
	load      func(desk *display.Desktop, win *display.Window, seed int64) (workload.Workload, error)
}

func typingLoad(_ *display.Desktop, win *display.Window, seed int64) (workload.Workload, error) {
	return workload.NewTyping(win, 12, seed), nil
}

func namedLoad(name string) func(*display.Desktop, *display.Window, int64) (workload.Workload, error) {
	return func(desk *display.Desktop, win *display.Window, seed int64) (workload.Workload, error) {
		return workload.ByName(name, desk, win, seed)
	}
}

// specs are the benchmark's workloads; BENCHMARK.json repeats the names.
var specs = []*spec{
	{
		name: "typing_direct", hz: 30, residents: 2, prefill: 600, warmTicks: 30, load: typingLoad,
		why: "smallest update on the direct path: fixed per-tick cost is everything; bypasses encode, fan-out and relay",
	},
	{
		name: "video_relay", hz: 30, relay: true, residents: 2, warmTicks: 15, load: namedLoad("video"),
		why: "341x256 noise every tick through a TCP-fed relay: encode-, bytes- and hop-heavy; bypasses fan-out-set size",
	},
	{
		name: "fanout_4k", sinks: 4000, residents: 2, prefill: 600, warmTicks: 30, load: typingLoad,
		why: "closed loop over 4000 in-process viewers plus 2 UDP probes: per-viewer stamp/copy/allocate cost; encode is negligible",
	},
	{
		name: "churn_lossy", hz: 30, residents: 2, lossRate: 0.03, retrans: true, joinEvery: 500 * time.Millisecond,
		warmTicks: 30, load: namedLoad("scrolling"),
		why: "3% loss with NACK repair plus a joiner every 500 ms: reads the retransmit log, PLI latch and full-refresh encode",
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

const (
	windowID        = 1
	viewerReadBytes = 4 << 20
	updateDeadline  = time.Second
	joinDeadline    = 2 * time.Second
	repairInterval  = 50 * time.Millisecond
)

// viewer is one real UDP participant.
type viewer struct {
	// id is the viewer's socket address, the id ServeUDP attaches it under.
	id   string
	p    *participant.Participant
	vc   *viewerConn
	conn *appshare.Connection
	stop chan struct{} // stops its repair loop
}

// session is one built topology, ready to tick.
type session struct {
	sp    *spec
	clock *tickClock
	desk  *display.Desktop
	win   *display.Window
	wl    workload.Workload

	host       *ah.Host
	hostStats  *stats.Collector
	relay      *relay.Relay
	relayDone  <-chan error
	stream     *streamConn
	viewerAddr *net.UDPAddr
	sockets    []interface{ Close() error }

	residents []*viewer
	sinks     []*sinkConn
	sinkBytes atomic.Bool

	// k is the last issued tick.
	k      int
	wg     sync.WaitGroup // serve loops and repair loops
	closed bool

	// Set-up measurements.
	setupNs int64
	joinNs  []int64
}

// build makes the topology of sp, joins the residents and warms up. The
// time it takes is the workload's set-up time.
func build(sp *spec, seed int64) (s *session, err error) {
	began := time.Now()
	s = &session{sp: sp, clock: newTickClock()}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	s.desk = display.NewDesktop(deskW, deskH)
	s.win = s.desk.CreateWindow(1, region.XYWH(100, 80, 1024, 768))
	if s.wl, err = sp.load(s.desk, s.win, seed); err != nil {
		return s, err
	}
	for i := 0; i < sp.prefill; i++ {
		s.wl.Step()
	}
	s.hostStats = stats.NewCollector()
	s.host, err = ah.New(ah.Config{Desktop: s.desk, Stats: s.hostStats, Retransmissions: sp.retrans})
	if err != nil {
		return s, err
	}
	hostUDP, err := s.listenUDP()
	if err != nil {
		return s, err
	}
	s.serve(func() error { return appshare.ServeUDP(s.host, hostUDP, appshare.PacketOptions{}) })
	s.viewerAddr = hostUDP.LocalAddr().(*net.UDPAddr)

	if sp.relay {
		if err = s.buildRelay(); err != nil {
			return s, err
		}
	}
	if sp.sinks > 0 {
		if err = s.attachSinks(sp.sinks); err != nil {
			return s, err
		}
	}
	// Residents join one at a time on an otherwise idle host, so a join
	// costs what a join costs and not what its neighbours do meanwhile.
	for i := 0; i < sp.residents; i++ {
		if !sp.relay {
			// The origin answers a PLI with a full refresh; a step first
			// makes that a fresh encode, as it is for any viewer joining a
			// live session. (A relay paints joiners from its cache, which
			// must still match the origin: no step.)
			s.wl.Step()
		}
		v, err := s.dialViewer(sp.lossRate, seed*1000+int64(i))
		if err != nil {
			return s, err
		}
		s.residents = append(s.residents, v)
		if err = s.tickUntilPainted(v); err != nil {
			return s, err
		}
		s.joinNs = append(s.joinNs, v.vc.joinedAt.Load()-v.vc.joinStart)
	}
	if err = s.warmUp(); err != nil {
		return s, err
	}
	for _, v := range s.residents {
		// Loss starts after set-up: a join under loss takes a varying
		// number of PLI rounds, which belongs to the measured window's
		// repair numbers, not to set-up time.
		v.vc.lossOn.Store(sp.lossRate > 0)
	}
	s.setupNs = int64(time.Since(began))
	return s, nil
}

func (s *session) listenUDP() (*net.UDPConn, error) {
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	s.sockets = append(s.sockets, c)
	return c, nil
}

// serve runs a blocking accept/demux loop until its socket is closed.
func (s *session) serve(loop func() error) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = loop() // ends with the socket's close error
	}()
}

// buildRelay attaches a relay to the origin over TCP loopback, seeds its
// refresh cache and points the viewers at the relay's UDP socket.
func (s *session) buildRelay() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	down, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	s.sockets = append(s.sockets, down)
	up, err := ln.Accept()
	if err != nil {
		return err
	}
	s.sockets = append(s.sockets, up)
	s.stream = newStreamConn(up, s.clock)
	if _, err := s.host.AttachStream("relay", s.stream, ah.StreamOptions{}); err != nil {
		return err
	}
	s.relay = relay.New(relay.Config{})
	if s.relayDone, err = appshare.SubscribeRelayStream(s.relay, down, true); err != nil {
		return err
	}
	// The subscription latches a refresh request; the origin serves it
	// from a Tick. Tick until the snapshot has crossed the stream, so
	// the residents join a relay that can paint them from its cache.
	deadline := time.Now().Add(5 * time.Second)
	for s.relay.Stats().CacheRefills == 0 {
		if time.Now().After(deadline) {
			return errors.New("relay cache never filled")
		}
		if err := s.host.Tick(); err != nil {
			return err
		}
		time.Sleep(200 * time.Microsecond)
	}
	relayUDP, err := s.listenUDP()
	if err != nil {
		return err
	}
	s.serve(func() error { return appshare.RelayServeUDP(s.relay, relayUDP) })
	s.viewerAddr = relayUDP.LocalAddr().(*net.UDPAddr)
	return nil
}

// attachSinks adds the in-process population.
func (s *session) attachSinks(n int) error {
	for i := 0; i < n; i++ {
		pli, err := rtcp.Marshal(&rtcp.PLI{SenderSSRC: uint32(i + 1)})
		if err != nil {
			return err
		}
		sink := newSinkConn(pli, &s.sinkBytes)
		if _, err := s.host.AttachPacketConn(fmt.Sprintf("sink-%d", i), sink, ah.PacketOptions{}); err != nil {
			return err
		}
		s.sinks = append(s.sinks, sink)
	}
	// One tick answers all their PLIs from one shared refresh.
	return s.idleTick()
}

// dialViewer connects one participant over UDP loopback and announces it
// with a PLI, the draft's joining flow. Its feedback is the product's.
func (s *session) dialViewer(lossRate float64, lossSeed int64) (*viewer, error) {
	sock, err := net.DialUDP("udp", nil, s.viewerAddr)
	if err != nil {
		return nil, err
	}
	// Large enough that the kernel never drops: loss seen by the
	// benchmark must be the program's or the decorator's.
	if err := sock.SetReadBuffer(viewerReadBytes); err != nil {
		_ = sock.Close()
		return nil, err
	}
	p := participant.New(participant.Config{})
	vc := newViewerConn(&appshare.UDPAdapter{Conn: sock}, p, s.clock, lossRate, lossSeed)
	v := &viewer{id: sock.LocalAddr().String(), p: p, vc: vc, stop: make(chan struct{})}
	v.conn = appshare.ConnectPacket(p, vc)
	if err := v.conn.SendPLI(); err != nil {
		s.closeViewer(v)
		return nil, err
	}
	// Every viewer runs the product's repair loop, as ads-view does.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = v.conn.RepairLoop(v.stop, repairInterval, 0) // ends when the viewer closes
	}()
	return v, nil
}

// closeViewer closes the viewer's socket, waits for its pump and detaches
// it at the origin: the host learns of a UDP departure only from a
// liveness timeout, which the default configuration leaves off.
func (s *session) closeViewer(v *viewer) {
	close(v.stop)
	_ = v.conn.Close()
	<-v.conn.Done()
	if r := s.host.FindRemote(v.id); r != nil { // nil for a relay's viewer
		_ = r.Close()
	}
}

// tickUntilPainted ticks the host, changing nothing but the pointer, until
// the viewer is fully painted: the origin serves a PLI from a Tick.
func (s *session) tickUntilPainted(v *viewer) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := s.idleTick(); err != nil {
			return err
		}
		select {
		case <-v.vc.painted:
			return nil
		case <-time.After(200 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			return errors.New("set-up: a resident was never painted")
		}
	}
}

// warmUp runs warmTicks ticks in lock step with the residents.
func (s *session) warmUp() error {
	for i := 0; i < s.sp.warmTicks; i++ {
		if _, _, err := s.tick(s.clock.now(), true); err != nil {
			return err
		}
		if !s.waitStamped(s.k, updateDeadline) {
			return fmt.Errorf("warm-up: tick %d not delivered", s.k)
		}
	}
	return nil
}

// tick runs one driver tick due at the given instant: step the workload
// (unless step is false), stamp, Host.Tick. It returns the step and
// Host.Tick durations. A tick without a step moves only the pointer:
// trailing traffic that lets a lossy viewer notice a gap at the very end
// of the stream and a joiner's PLI be served, and changes no pixel.
func (s *session) tick(due int64, step bool) (stepNs, tickNs int64, err error) {
	if s.k+1 >= maxTicks {
		return 0, 0, errors.New("tick id space exhausted")
	}
	s.k++
	s.clock.issue(s.k, due)
	t0 := s.clock.now()
	if step {
		s.wl.Step()
	}
	s.desk.MoveCursor(stampXY(s.k))
	t1 := s.clock.now()
	err = s.host.Tick()
	return t1 - t0, s.clock.now() - t1, err
}

// idleTick is a tick without a step, due now.
func (s *session) idleTick() error {
	_, _, err := s.tick(s.clock.now(), false)
	return err
}

// waitStamped waits until every resident has stamped tick k.
func (s *session) waitStamped(k int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		all := true
		for _, v := range s.residents {
			if !v.vc.track.reached(k) {
				all = false
			}
		}
		if all {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// drain lets every resident finish tick k: repairs complete and queued
// datagrams are handled, within the bound.
func (s *session) drain(k int, bound time.Duration) error {
	deadline := time.Now().Add(bound)
	for !s.waitStamped(k, 10*time.Millisecond) {
		if time.Now().After(deadline) {
			return nil // the missing stamps are counted as failed updates
		}
		if err := s.idleTick(); err != nil {
			return err
		}
	}
	return nil
}

// setTraced switches per-packet clock reads and byte counting on or off.
func (s *session) setTraced(on bool) {
	s.sinkBytes.Store(on)
	for _, v := range s.residents {
		v.vc.traced.Store(on)
	}
}

// converged compares every resident's window with the origin's, byte for
// byte (PNG is lossless).
func (s *session) converged() error {
	want := s.desk.Window(windowID).Snapshot()
	for i, v := range s.residents {
		got := v.p.WindowImage(windowID)
		if got == nil {
			return fmt.Errorf("resident %d has no window %d", i, windowID)
		}
		if got.Rect != want.Rect || string(got.Pix) != string(want.Pix) {
			return fmt.Errorf("resident %d's window differs from the origin's", i)
		}
	}
	return nil
}

// close stops every goroutine and socket the session started and waits
// for them. Closing twice is harmless.
func (s *session) close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, v := range s.residents {
		s.closeViewer(v)
	}
	s.residents = nil
	if s.relay != nil {
		_ = s.relay.Close()
	}
	if s.host != nil {
		_ = s.host.Close()
	}
	for _, c := range s.sockets {
		_ = c.Close()
	}
	if s.relayDone != nil {
		<-s.relayDone
	}
	s.wg.Wait()
}
