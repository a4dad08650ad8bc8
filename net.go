package appshare

import (
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"net"
	"sync"
	"time"

	"appshare/internal/framing"
	"appshare/internal/keycodes"
	"appshare/internal/trace"
	"appshare/internal/transport"
)

// Network glue over real sockets: TCP participants use RFC 4571 framing
// (draft Section 4.4); UDP participants exchange raw RTP/RTCP datagrams
// (Section 4.3) behind a per-source demultiplexer.

// ServeTCP accepts connections on ln and attaches each as a stream
// participant with the given options. It blocks until the listener
// fails or the host closes; callers usually run it in a goroutine.
//
// A connection that fails to attach (duplicate remote ID, failed initial
// state push) is closed and skipped — one bad viewer must not kill the
// accept loop for every future one.
func ServeTCP(h *Host, ln net.Listener, opts StreamOptions) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		if _, err := h.AttachStream(conn.RemoteAddr().String(), conn, opts); err != nil {
			_ = conn.Close()
			if errors.Is(err, ErrHostClosed) {
				return err
			}
			continue
		}
	}
}

// Connection binds a Participant to a network path toward a Host: it
// pumps incoming remoting packets into the participant and offers send
// helpers for HIP events and RTCP feedback.
type Connection struct {
	p *Participant

	mu     sync.Mutex
	sendFn func(pkt []byte) error
	// batchFn ships a run of packets in as few transport operations as
	// the path allows (framing.WriteFrames writev on streams,
	// transport.Batched on packet conns).
	batchFn  func(pkts [][]byte) error
	closer   io.Closer
	recorder *trace.Writer

	done chan struct{}
	err  error
	mtu  int
}

// Participant returns the bound participant.
func (c *Connection) Participant() *Participant { return c.p }

// Done is closed when the receive pump stops.
func (c *Connection) Done() <-chan struct{} { return c.done }

// Err returns the terminal pump error (nil on clean close).
func (c *Connection) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close tears the connection down.
func (c *Connection) Close() error {
	if c.closer != nil {
		return c.closer.Close()
	}
	return nil
}

func (c *Connection) finish(err error) {
	c.mu.Lock()
	if c.err == nil && !errors.Is(err, io.EOF) {
		c.err = err
	}
	closer := c.closer
	c.mu.Unlock()
	// Pump teardown releases the transport: once the receive side is
	// dead the connection cannot recover, so holding the socket open
	// only leaks it (Close stays idempotent for explicit callers).
	if closer != nil {
		_ = closer.Close()
	}
	close(c.done)
}

// send ships one packet toward the host.
func (c *Connection) send(pkt []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sendFn(pkt)
}

// sendBatch ships a run of packets toward the host in one transport
// operation when the path supports it.
func (c *Connection) sendBatch(pkts [][]byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.batchFn(pkts)
}

// SendHIP ships a prebuilt HIP RTP packet (from the Participant's
// builders) toward the host.
func (c *Connection) SendHIP(pkt []byte) error { return c.send(pkt) }

// SendPLI requests a full refresh (Section 5.3.1).
func (c *Connection) SendPLI() error {
	pli, err := c.p.BuildPLI()
	if err != nil {
		return err
	}
	return c.send(pli)
}

// SendNACKIfNeeded requests retransmission of currently missing packets
// (Section 5.3.2); it is a no-op when nothing is missing.
func (c *Connection) SendNACKIfNeeded() error {
	nack, err := c.p.BuildNACK()
	if err != nil || nack == nil {
		return err
	}
	return c.send(nack)
}

// Click sends a MousePressed followed by MouseReleased at absolute
// coordinates.
func (c *Connection) Click(windowID uint16, x, y int, button uint8) error {
	press, err := c.p.MousePress(windowID, x, y, button)
	if err != nil {
		return err
	}
	if err := c.send(press); err != nil {
		return err
	}
	release, err := c.p.MouseRelease(windowID, x, y, button)
	if err != nil {
		return err
	}
	return c.send(release)
}

// MoveMouse sends a MouseMoved event.
func (c *Connection) MoveMouse(windowID uint16, x, y int) error {
	pkt, err := c.p.MouseMove(windowID, x, y)
	if err != nil {
		return err
	}
	return c.send(pkt)
}

// Wheel sends a MouseWheelMoved event (distance: 120 per notch).
func (c *Connection) Wheel(windowID uint16, x, y int, distance int32) error {
	pkt, err := c.p.MouseWheel(windowID, x, y, distance)
	if err != nil {
		return err
	}
	return c.send(pkt)
}

// PressKey sends KeyPressed then KeyReleased for a virtual key.
func (c *Connection) PressKey(windowID uint16, code KeyCode) error {
	press, err := c.p.KeyPress(windowID, keycodes.Code(code))
	if err != nil {
		return err
	}
	if err := c.send(press); err != nil {
		return err
	}
	release, err := c.p.KeyRelease(windowID, keycodes.Code(code))
	if err != nil {
		return err
	}
	return c.send(release)
}

// Type sends the text as KeyTyped messages (Section 6.8).
func (c *Connection) Type(windowID uint16, text string) error {
	pkts, err := c.p.TypeText(windowID, text, c.mtu)
	if err != nil {
		return err
	}
	return c.sendBatch(pkts)
}

// ConnectStream binds the participant to an established reliable stream
// (e.g. a dialed TCP connection): framed remoting packets are pumped in,
// and HIP/RTCP go out framed.
func ConnectStream(p *Participant, rw io.ReadWriteCloser) *Connection {
	fw := framing.NewWriter(rw)
	c := &Connection{
		p:       p,
		sendFn:  fw.WriteFrame,
		batchFn: fw.WriteFrames,
		closer:  rw,
		done:    make(chan struct{}),
		mtu:     1200,
	}
	go func() {
		fr := framing.NewReader(rw)
		for {
			pkt, err := fr.ReadFrame()
			if err != nil {
				c.finish(err)
				return
			}
			c.dispatch(pkt)
		}
	}()
	return c
}

// dispatch demuxes one incoming packet: RTCP (RFC 5761 range) goes to
// the participant's report handler, everything else to the remoting
// stream. When a recorder is attached the packet is journaled first.
func (c *Connection) dispatch(pkt []byte) {
	c.mu.Lock()
	rec := c.recorder
	c.mu.Unlock()
	if rec != nil {
		_ = rec.Record(time.Now(), pkt)
	}
	if len(pkt) >= 2 && pkt[1] >= 200 && pkt[1] <= 207 {
		_, _ = c.p.HandleRTCP(pkt)
		return
	}
	_ = c.p.HandlePacket(pkt) // tolerate stray packets
}

// RecordTo journals every incoming packet (remoting RTP and RTCP) to the
// trace writer, for offline replay with cmd/ads-replay. Pass nil to stop
// recording.
func (c *Connection) RecordTo(w *trace.Writer) {
	c.mu.Lock()
	c.recorder = w
	c.mu.Unlock()
}

// DialTCP connects to a host's TCP remoting port and binds p to it.
func DialTCP(p *Participant, addr string) (*Connection, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("appshare: dial %s: %w", addr, err)
	}
	return ConnectStream(p, conn), nil
}

// UseHIPStream redirects this connection's outgoing HIP and RTCP onto a
// dedicated stream (framed per RFC 4571) — the draft's two-port layout
// where remoting and HIP travel on different connections (SDP example:
// ports 6000 and 6006). Incoming remoting packets keep flowing on the
// original path.
func (c *Connection) UseHIPStream(rw io.WriteCloser) {
	fw := framing.NewWriter(rw)
	c.mu.Lock()
	c.sendFn = fw.WriteFrame
	c.batchFn = fw.WriteFrames
	c.mu.Unlock()
}

// ConnectPacket binds the participant to a datagram path (simulated link
// or adapted UDP socket).
func ConnectPacket(p *Participant, conn PacketConn) *Connection {
	batched := transport.Batch(conn)
	c := &Connection{
		p:      p,
		sendFn: conn.Send,
		batchFn: func(pkts [][]byte) error {
			_, err := batched.SendBatch(pkts)
			return err
		},
		closer: closerFunc(conn.Close),
		done:   make(chan struct{}),
		mtu:    1200,
	}
	go func() {
		for {
			pkt, err := conn.Recv()
			if err != nil {
				c.finish(err)
				return
			}
			c.dispatch(pkt)
		}
	}()
	return c
}

// SendReceiverReport ships an RTCP RR describing reception quality.
func (c *Connection) SendReceiverReport() error {
	rr, err := c.p.BuildReceiverReport()
	if err != nil {
		return err
	}
	return c.send(rr)
}

// RepairLoop runs the participant's feedback maintenance until stop is
// closed or the connection dies: every interval it sends a PLI if the
// stream lost synchronization, otherwise a NACK for any missing packets.
// jitter adds a random delay before each NACK, the draft's Section 5.3.2
// storm precaution for multicast members ("waiting random amount of time
// before sending a NACK Request"). Run it in a goroutine.
func (c *Connection) RepairLoop(stop <-chan struct{}, interval, jitter time.Duration) error {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var lastPLI time.Time
	for {
		select {
		case <-stop:
			return nil
		case <-c.done:
			return c.Err()
		case <-ticker.C:
			// Gaps are always NACKed — even while waiting for a PLI
			// refresh, whose packets can themselves be lost and need
			// retransmission.
			if len(c.p.MissingSequences()) > 0 {
				if jitter > 0 {
					delay := time.Duration(mrand.Int63n(int64(jitter)))
					select {
					case <-stop:
						return nil
					case <-time.After(delay):
					}
				}
				// Re-check: another group member's NACK may already
				// have repaired the stream during the hold-down.
				if err := c.SendNACKIfNeeded(); err != nil {
					return err
				}
			}
			if c.p.NeedsRefresh() && time.Since(lastPLI) >= 250*time.Millisecond {
				// Keep requesting until the refresh actually lands
				// (NeedsRefresh stays true until then), but no more
				// than a few times per second — the host rate-limits
				// PLI service anyway.
				lastPLI = time.Now()
				if err := c.SendPLI(); err != nil {
					return err
				}
			}
		}
	}
}

type closerFunc func() error

func (f closerFunc) Close() error { return f() }

// UDPAdapter wraps a connected *net.UDPConn as a PacketConn. Recv must
// not be called from two goroutines at once: it reads into one buffer
// (a connection has one pump goroutine).
type UDPAdapter struct {
	Conn *net.UDPConn
	// rbuf is the datagram-sized buffer Recv reads into, allocated on
	// first use.
	rbuf []byte
}

// Send implements PacketConn.
func (u *UDPAdapter) Send(pkt []byte) error {
	_, err := u.Conn.Write(pkt)
	return err
}

// SendBatch implements transport.BatchSender with a per-datagram loop.
// Unlike the stream path, UDP must NOT gather the run into one write: a
// net.Buffers writev on a datagram socket coalesces every buffer into a
// single (oversized) datagram, destroying the packet boundaries RTP
// depends on. The batch still saves the per-packet call overhead above
// this layer; collapsing the loop into one sendmmsg would need
// golang.org/x/net, which this module deliberately does not depend on.
func (u *UDPAdapter) SendBatch(pkts [][]byte) (int, error) {
	for i, pkt := range pkts {
		if _, err := u.Conn.Write(pkt); err != nil {
			return i, err
		}
	}
	return len(pkts), nil
}

// Recv implements PacketConn. The socket is read into the adapter's one
// reusable 64 KiB buffer and the datagram returned as an exact-length
// copy, which the caller may keep.
func (u *UDPAdapter) Recv() ([]byte, error) {
	if u.rbuf == nil {
		u.rbuf = make([]byte, 64<<10)
	}
	n, err := u.Conn.Read(u.rbuf)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), u.rbuf[:n]...), nil
}

// Close implements PacketConn.
func (u *UDPAdapter) Close() error { return u.Conn.Close() }

// DialUDP connects to a host's UDP remoting port and binds p to it.
// Callers should follow with SendPLI, the Section 4.3 joining flow.
func DialUDP(p *Participant, addr string) (*Connection, error) {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, fmt.Errorf("appshare: dial udp %s: %w", addr, err)
	}
	return ConnectPacket(p, &UDPAdapter{Conn: conn}), nil
}

// DialSession joins a sharing session described by an SDP offer (draft
// Section 10): it parses the offer, prefers the UDP remoting stream when
// offered (falling back to TCP), dials host:port and binds p. For UDP
// sessions the caller should follow with SendPLI per Section 4.3.
func DialSession(p *Participant, host, offer string) (*Connection, *SDPSession, error) {
	sess, err := ParseSDPOffer(offer)
	if err != nil {
		return nil, nil, err
	}
	if sess.RemotingUDPPort != 0 {
		conn, err := DialUDP(p, fmt.Sprintf("%s:%d", host, sess.RemotingUDPPort))
		return conn, sess, err
	}
	conn, err := DialTCP(p, fmt.Sprintf("%s:%d", host, sess.RemotingTCPPort))
	return conn, sess, err
}

// ServeUDP serves UDP participants from one socket, demultiplexing by
// source address: the first datagram from a new source (typically its
// PLI) attaches it as a participant. Blocks until the socket fails.
func ServeUDP(h *Host, conn *net.UDPConn, opts PacketOptions) error {
	srv := &udpServer{
		conn:    conn,
		remotes: make(map[string]*udpRemote),
		attach: func(id string, pc transport.PacketConn) error {
			_, err := h.AttachPacketConn(id, pc, opts)
			return err
		},
	}
	return srv.run()
}

type udpServer struct {
	conn *net.UDPConn
	// attach binds one demultiplexed source to a receiver — a Host
	// participant (ServeUDP) or a relay viewer (RelayServeUDP).
	attach  func(id string, pc transport.PacketConn) error
	mu      sync.Mutex
	remotes map[string]*udpRemote
}

// udpRemote adapts one peer address of a shared socket to PacketConn.
type udpRemote struct {
	srv   *udpServer
	addr  *net.UDPAddr
	inbox chan []byte
	once  sync.Once
	dead  chan struct{}
}

func (r *udpRemote) Send(pkt []byte) error {
	_, err := r.srv.conn.WriteToUDP(pkt, r.addr)
	return err
}

// SendBatch implements transport.BatchSender. Per-datagram writes for
// the same reason as UDPAdapter.SendBatch: gathering datagrams into one
// write would merge them. The shared socket's destination address is
// resolved once per call here instead of once per packet upstream.
func (r *udpRemote) SendBatch(pkts [][]byte) (int, error) {
	for i, pkt := range pkts {
		if _, err := r.srv.conn.WriteToUDP(pkt, r.addr); err != nil {
			return i, err
		}
	}
	return len(pkts), nil
}

func (r *udpRemote) Recv() ([]byte, error) {
	select {
	case pkt := <-r.inbox:
		return pkt, nil
	case <-r.dead:
		return nil, io.EOF
	}
}

func (r *udpRemote) Close() error {
	r.once.Do(func() {
		close(r.dead)
		r.srv.mu.Lock()
		delete(r.srv.remotes, r.addr.String())
		r.srv.mu.Unlock()
	})
	return nil
}

func (s *udpServer) run() error {
	buf := make([]byte, 64<<10)
	for {
		n, addr, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			return err
		}
		pkt := append([]byte(nil), buf[:n]...)
		key := addr.String()
		s.mu.Lock()
		r, ok := s.remotes[key]
		if !ok {
			r = &udpRemote{srv: s, addr: addr, inbox: make(chan []byte, 256), dead: make(chan struct{})}
			s.remotes[key] = r
			s.mu.Unlock()
			if err := s.attach(key, r); err != nil {
				_ = r.Close()
				continue
			}
		} else {
			s.mu.Unlock()
		}
		select {
		case r.inbox <- pkt:
		default: // participant is not draining; drop like UDP would
		}
	}
}

// Ensure the adapters satisfy the interfaces (including the batched
// fast path the host's packet sink resolves at attach).
var (
	_ transport.PacketConn  = (*UDPAdapter)(nil)
	_ transport.BatchSender = (*UDPAdapter)(nil)
	_ transport.PacketConn  = (*udpRemote)(nil)
	_ transport.BatchSender = (*udpRemote)(nil)
)
