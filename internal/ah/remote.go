package ah

import (
	"errors"
	"io"
	"time"

	"appshare/internal/capture"
	"appshare/internal/codec"
	"appshare/internal/fanout"
	"appshare/internal/framing"
	"appshare/internal/region"
	"appshare/internal/rtp"
	"appshare/internal/transport"
)

// sink ships encoded RTP/RTCP packets toward one participant (or one
// multicast group) — the stream core's fanout.Sink — and reports the
// congestion signals the host's delivery policy reads.
type sink interface {
	fanout.Sink
	// backlogged reports whether screen data should be deferred right
	// now (Section 7 for TCP; rate budget for UDP).
	backlogged(pending int) bool
	// queued returns the bytes accepted but not yet on the wire (zero
	// for datagram sinks).
	queued() int
	// stalled reports how long the send path has made no drain progress
	// while bytes were queued (zero for datagram sinks, which never
	// queue).
	stalled() time.Duration
	// drainStats reports the cumulative bytes shipped to the wire and
	// bytes discarded by teardown or a write error (both zero for
	// datagram sinks, which never queue). Together with queued() they
	// satisfy drained + discarded + queued == bytes accepted — the
	// counter-consistency invariant the netsim oracles check.
	drainStats() (drained, discarded int64)
	// close releases transport resources.
	close() error
}

// Remote is one attached participant (or multicast group): an RTP stream
// plus the host's delivery policy for it — deferral bookkeeping, health
// and ladder state, tile seen-set.
type Remote struct {
	host *Host
	// sh is the shard this remote is assigned to (round-robin at
	// creation, immutable). sh.Mu guards all mutable per-remote state
	// below — the stream, the pending set, the health and ladder clocks,
	// and the counters.
	sh     *shard
	id     string
	userID uint16
	// sink is st.Sink under the host's wider interface; the two change
	// together (ResumePacketConn).
	sink sink
	// st is the RTP stream: packetizer, retransmission log (UDP
	// participants, Section 5.3.2; nil with retransmissions off), sent
	// counters and the PLI limiter (Config.MinRefreshInterval).
	st fanout.Stream

	// tileSeen is the tile-store seen-set of this remote — the tiles it
	// has received at full fidelity this session, in arrival order (see
	// tilestore.go). nil unless both the host config and the remote's
	// attach options enabled the store. tileRefs counts substituted
	// TileReference messages. Guarded by sh.Mu.
	tileSeen *codec.TileDict
	tileRefs uint64

	// Deferred screen state under backlog (Section 7): regions to
	// re-capture once the link drains, plus a pointer refresh flag.
	pending        *region.Set
	pendingPointer bool
	deferrals      uint64

	// Health/liveness tracking (see health.go); guarded by sh.Mu.
	attachedAt       time.Time
	lastHeard        time.Time
	lastRRAt         time.Time
	rtt              time.Duration
	backlogHighSince time.Time
	deferStreak      int
	maxDeferStreak   int
	evictReason      string

	// Quality-ladder state (see ladder.go); guarded by sh.Mu.
	tier            QualityTier
	tierSince       time.Time
	tierPinned      bool
	congestedSince  time.Time
	cleanSince      time.Time
	lastPromoteAt   time.Time
	promoteWait     time.Duration
	tierTransitions uint64
	tierFlaps       uint64
	decimTicks      int

	// lastRR is the most recent RTCP receiver report.
	lastRR ReceptionQuality

	// refreshRequested latches an admitted PLI for the next Tick.
	refreshRequested bool

	// forwardOnly marks a remote that completed the RelaySubscribe
	// handshake (see forward.go): it receives the stream's prepared
	// batches via its attached remoteForwarder — with StreamDescriptor
	// delimiters — and is skipped by the ordinary capture fan-out.
	forwardOnly bool

	closed bool
}

// ID returns the identifier the remote was attached with.
func (r *Remote) ID() string { return r.id }

// UserID returns the BFCP user identity of this participant.
func (r *Remote) UserID() uint16 { return r.userID }

// SSRC returns the RTP synchronization source of the remoting stream
// sent to this participant.
func (r *Remote) SSRC() uint32 { return r.st.Packetizer.SSRC() }

// Deferrals reports how many ticks deferred screen data due to backlog.
func (r *Remote) Deferrals() uint64 {
	r.sh.Mu.Lock()
	defer r.sh.Mu.Unlock()
	return r.deferrals
}

// QueuedBytes reports the bytes sitting unsent in this remote's send
// queue — the Section 7 backlog signal (zero for datagram remotes).
func (r *Remote) QueuedBytes() int { return r.sink.queued() }

// AbsorbedPLIs reports how many PLIs were answered by an
// already-in-flight refresh under the rate limit.
func (r *Remote) AbsorbedPLIs() uint64 {
	r.sh.Mu.Lock()
	defer r.sh.Mu.Unlock()
	return r.st.AbsorbedPLIs
}

// Close detaches the remote from the host and closes its transport.
func (r *Remote) Close() error {
	r.host.dropRemote(r)
	r.sh.Mu.Lock()
	if r.closed {
		r.sh.Mu.Unlock()
		return nil
	}
	r.closed = true
	r.sh.Mu.Unlock()
	return r.sink.close()
}

// newRemote wires common remote state. Callers hold no locks.
func (h *Host) newRemote(id string, userID uint16, s sink) *Remote {
	sh := h.shardFor()
	retransLog := 0
	if h.cfg.Retransmissions {
		retransLog = h.cfg.RetransLog
	}
	return &Remote{
		host:    h,
		sh:      sh,
		id:      id,
		userID:  userID,
		sink:    s,
		st:      fanout.NewStream(&sh.Shard, s, h.cfg.Entropy, h.cfg.RemotingPT, retransLog),
		pending: region.NewSet(),
	}
}

// deliver sends one capture batch to the participant, deferring screen
// data under backlog per Section 7. prep is the batch marshalled once
// for all remotes; only RTP packetization happens per participant. The
// owning shard's lock is held.
func (r *Remote) deliver(b *capture.Batch, prep *preparedBatch) error {
	if r.forwardOnly {
		// Relay subscribers receive this tick's batch on the forwarder
		// path (descriptor-delimited); delivering it here too would
		// duplicate every payload on their wire.
		return nil
	}
	approx := approxBatchSize(b)
	backlogged := r.sink.backlogged(approx)
	if backlogged {
		r.deferStreak++
		if r.deferStreak > r.maxDeferStreak {
			r.maxDeferStreak = r.deferStreak
		}
	} else {
		r.deferStreak = 0
	}

	block := 0 // full fidelity
	switch r.tier {
	case TierKeyframeOnly:
		// Keyframe-only mode: stop accumulating per-region detail for a
		// viewer that cannot keep up — the pending set is what a wedged
		// remote grows without bound. Window structure still goes out;
		// the pixels are owed as one full refresh on the way back up
		// (promoteLocked or PinQualityTier latches it).
		r.pending.Clear()
		r.pendingPointer = false
		return r.st.Send(prep.wmOnly())

	case TierScaled:
		// Pixelated delivery: every batch takes the fold-and-flush path
		// below, re-encoded at reduced detail.
		block = r.host.scaleBlock()

	case TierDecimated:
		// Frame decimation: pixels flush on every Nth tick only; the
		// off-cycle ticks fold their damage into the pending set, so
		// what eventually ships is the freshest content, coalesced.
		r.decimTicks++
		if r.decimTicks%r.host.decimateEvery() != 0 {
			if backlogged {
				r.deferScreenData(b)
			} else {
				r.foldScreenData(b)
			}
			return r.st.Send(prep.wmOnly())
		}
		// On-cycle: fall through to the full-fidelity path below.
	}

	if backlogged {
		r.deferScreenData(b)
		// Window state is tiny and ordering-critical; it still goes
		// out so the participant tracks structure while pixels wait.
		return r.st.Send(prep.wmOnly())
	}

	// Link is clear. With deferred regions outstanding, this batch's
	// moves cannot be sent as MoveRectangle: a move shifts the
	// participant's *current* pixels, but deferred regions mean the
	// participant is behind, and the flushed updates below already carry
	// post-move content — applying the move on top would double-shift
	// it. Fold the whole batch into the pending set and flush everything
	// as freshly captured updates (Section 7's "most recent screen
	// data"). The scaled rung always goes this way, for the same reason.
	// Window state still leads the flush.
	if block != 0 || !r.pending.Empty() || r.pendingPointer {
		r.foldScreenData(b)
		if err := r.st.Send(prep.wmOnly()); err != nil {
			return err
		}
		return r.flushPending(block)
	}
	return r.st.Send(r.tileCompose(prep, true))
}

// deferScreenData folds the batch into the pending set AND counts a
// deferral (the link refused this tick's pixels).
func (r *Remote) deferScreenData(b *capture.Batch) {
	r.deferrals++
	r.foldScreenData(b)
}

// foldScreenData merges the batch's damage into the pending set without
// counting a deferral — used when folding is a delivery-policy choice
// (outstanding regions, decimation off-cycle) rather than backpressure.
func (r *Remote) foldScreenData(b *capture.Batch) {
	for _, mv := range b.Moves {
		r.pending.Add(mv.Src())
		r.pending.Add(mv.Dst())
	}
	for _, up := range b.Updates {
		r.pending.Add(up.Rect)
	}
	if b.Pointer != nil {
		r.pendingPointer = true
	}
}

// flushPending re-captures and ships the pending set, pixelated at block
// (0 = full fidelity). Shard lock held.
func (r *Remote) flushPending(block int) error {
	var ups []capture.Update
	for _, rect := range r.pending.Coalesce(1024) {
		u, err := r.host.encodeRegion(rect, block)
		if err != nil {
			return err
		}
		ups = append(ups, u...)
	}
	flush := batchFromUpdates(ups, nil)
	if r.pendingPointer {
		refresh, err := r.host.capturePointer()
		if err != nil {
			return err
		}
		flush.Pointer = refresh
	}
	r.pending.Clear()
	r.pendingPointer = false
	// A flush is ordinary delivery — the viewer's state is trusted — so
	// tile references are fair game for regions it has already seen.
	return r.sendBatch(flush, true)
}

// sendBatch marshals and ships a batch to this remote alone, routing it
// through the tile store (allowRefs false on refresh paths, which must
// carry real pixels). The owning shard's lock is held. (Tick's fan-out
// paths marshal once via prepareBatch and send the result directly.)
func (r *Remote) sendBatch(b *capture.Batch, allowRefs bool) error {
	var ts *TileStoreConfig
	if r.tileSeen != nil {
		ts = r.host.cfg.TileStore
	}
	prep, err := prepareBatch(b, r.host.cfg.MTU, ts)
	if err != nil {
		return err
	}
	return r.st.Send(r.tileCompose(prep, allowRefs))
}

// fullRefresh sends the complete state to this remote (PLI service and
// the TCP initial push). Shard lock held.
//
// The refresh is tier-coherent: a remote pinned or demoted to TierScaled
// gets its screen content re-encoded pixelated at the tier's block size
// (cached under codec.KeyForTier, so N scaled refreshers share one
// encode), not the full-resolution payloads — a late joiner attached
// onto a congested rung must not receive exactly the bytes the ladder
// demoted it to avoid.
func (r *Remote) fullRefresh() error {
	b, err := r.host.captureFullRefresh()
	if err != nil {
		return err
	}
	if r.tier == TierScaled {
		block := r.host.scaleBlock()
		var ups []capture.Update
		for _, up := range b.Updates {
			du, err := r.host.encodeRegion(up.Rect, block)
			if err != nil {
				return err
			}
			ups = append(ups, du...)
		}
		b = &capture.Batch{WMInfo: b.WMInfo, Updates: ups, Pointer: b.Pointer}
	}
	r.pending.Clear()
	r.pendingPointer = false
	// Refreshes ship pixels only: the requester's state is stale or
	// unknown, and its tile dictionary may be too. The seen-set restarts
	// empty and the lossless updates reseed it, re-synchronizing both
	// dictionaries from the refresh onward.
	r.tileReset()
	return r.sendBatch(b, false)
}

// approxBatchSize estimates the wire size of a batch for rate budgeting.
func approxBatchSize(b *capture.Batch) int {
	n := 0
	if b.WMInfo != nil {
		n += 4 + 20*len(b.WMInfo.Windows) + rtp.HeaderSize
	}
	n += len(b.Moves) * (28 + rtp.HeaderSize)
	for _, up := range b.Updates {
		n += len(up.Msg.Content) + 12 + rtp.HeaderSize
	}
	if b.Pointer != nil {
		n += len(b.Pointer.Image) + 12 + rtp.HeaderSize
	}
	return n
}

// --- sink implementations -------------------------------------------------

// streamSink ships framed packets over a reliable stream through a
// RatedWriter whose backlog models the TCP send buffer (Section 7).
type streamSink struct {
	rw      io.Closer
	rated   *transport.RatedWriter
	framer  *framing.Writer
	limit   int
	noDefer bool
}

func (s *streamSink) Send(pkt []byte) error { return s.framer.WriteFrame(pkt) }

// SendBatch concatenates the frames and hands them to the RatedWriter in
// ONE write — the writev analogue for the modeled TCP send buffer. The
// byte stream is identical to per-frame writes (RFC 4571 framing is
// position-independent), and the write is all-or-nothing, so either
// every packet is accepted or none is.
func (s *streamSink) SendBatch(pkts [][]byte) (int, error) {
	if err := s.framer.WriteFrames(pkts); err != nil {
		return 0, err
	}
	return len(pkts), nil
}

func (s *streamSink) backlogged(int) bool {
	if s.noDefer {
		return false
	}
	return s.rated.Backlog() > s.limit
}

func (s *streamSink) queued() int { return s.rated.Backlog() }

func (s *streamSink) stalled() time.Duration { return s.rated.StallDuration() }

func (s *streamSink) drainStats() (int64, int64) { return s.rated.Drained(), s.rated.Discarded() }

func (s *streamSink) close() error {
	// Close the transport FIRST: if the drain goroutine is wedged in a
	// Write toward a dead peer, tearing the socket down unblocks it with
	// an error, letting RatedWriter.Close (which waits for the drain to
	// exit) complete instead of deadlocking.
	var err error
	if s.rw != nil {
		err = s.rw.Close()
	}
	_ = s.rated.Close()
	return err
}

// StreamOptions configures AttachStream.
type StreamOptions struct {
	// UserID is the participant's BFCP identity.
	UserID uint16
	// BytesPerSecond caps the modeled link rate (0 = unlimited).
	BytesPerSecond int
	// DisableCoalescing turns off the Section 7 backlog deferral — the
	// naive "blindly send every screen update" behavior, kept for the
	// E11 comparison benchmark.
	DisableCoalescing bool
	// ReadIdleTimeout, when positive and the stream supports read
	// deadlines (net.Conn does), bounds each feedback read: a viewer
	// that sends nothing for this long gets its pump torn down and the
	// remote detached. This catches black-holed TCP peers the transport
	// alone would keep alive for minutes.
	ReadIdleTimeout time.Duration
	// TileStore marks the participant as having negotiated the tile-store
	// capability (the "tilestore" fmtp parameter). Effective only when
	// the host itself has Config.TileStore; un-negotiated viewers always
	// receive plain pixel updates.
	TileStore bool
	// PinTier, when above TierFull, attaches the remote already pinned to
	// that ladder rung (PinQualityTier before the initial push), so the
	// join-time full refresh is tier-coherent from the first packet — a
	// viewer negotiated onto a scaled tier receives tier-keyed payloads,
	// never a full-resolution burst.
	PinTier QualityTier
}

// readDeadliner is the subset of net.Conn the idle-timeout wiring needs.
type readDeadliner interface {
	SetReadDeadline(t time.Time) error
}

// idleReader arms a fresh read deadline before every read, so a silent
// peer surfaces as a read error at the pump within the timeout.
type idleReader struct {
	r       io.Reader
	d       readDeadliner
	timeout time.Duration
}

func (ir *idleReader) Read(p []byte) (int, error) {
	_ = ir.d.SetReadDeadline(time.Now().Add(ir.timeout))
	return ir.r.Read(p)
}

// AttachStream adds a TCP (or any reliable-stream) participant. The host
// writes RFC 4571 framed remoting RTP onto rw and reads framed HIP RTP
// and RTCP feedback from it. A goroutine pumps the read side until EOF.
func (h *Host) AttachStream(id string, rw io.ReadWriteCloser, opts StreamOptions) (*Remote, error) {
	rated := transport.NewRatedWriterAt(rw, opts.BytesPerSecond, h.cfg.Now)
	s := &streamSink{
		rw:      rw,
		rated:   rated,
		framer:  framing.NewWriter(rated),
		limit:   h.cfg.BacklogLimit,
		noDefer: opts.DisableCoalescing,
	}
	r := h.newRemote(id, opts.UserID, s)
	if opts.TileStore && h.cfg.TileStore != nil {
		// Seen-set starts empty: a late joiner has seen nothing, so its
		// initial full refresh below ships pixels and seeds both sides.
		r.tileSeen = codec.NewTileDict(h.cfg.TileStore.DictCapacity)
	}
	if opts.PinTier > TierFull {
		r.PinQualityTier(opts.PinTier)
	}
	if err := h.addRemoteUnique(r); err != nil {
		_ = s.close()
		return nil, err
	}
	src := io.Reader(rw)
	if opts.ReadIdleTimeout > 0 {
		if d, ok := rw.(readDeadliner); ok {
			src = &idleReader{r: rw, d: d, timeout: opts.ReadIdleTimeout}
		}
	}
	go h.pumpStream(r, src)
	if err := h.initialState(r); err != nil {
		// Detach rather than leak: the pump and sink of a remote that
		// never got its initial state must not outlive this failure.
		_ = r.Close()
		return nil, err
	}
	return r, nil
}

// pumpStream reads framed feedback (HIP RTP + RTCP) from a stream
// participant.
func (h *Host) pumpStream(r *Remote, src io.Reader) {
	reader := framing.NewReader(src)
	for {
		pkt, err := reader.ReadFrame()
		if err != nil {
			_ = r.Close()
			return
		}
		h.handleIncoming(r, pkt)
	}
}

// BindHIPStream attaches a dedicated HIP connection to an existing
// remote — the draft's SDP example carries HIP on its own port (6006)
// distinct from the remoting port (6000). The association between the
// two connections comes from session signalling (out of band, as in the
// draft); the caller passes the resolved remote. Framed HIP RTP and RTCP
// read from rw are processed until EOF.
func (h *Host) BindHIPStream(r *Remote, rw io.ReadCloser) {
	go func() {
		defer rw.Close()
		reader := framing.NewReader(rw)
		for {
			pkt, err := reader.ReadFrame()
			if err != nil {
				return
			}
			h.handleIncoming(r, pkt)
		}
	}()
}

// FindRemote returns the attached remote with the given ID, or nil.
func (h *Host) FindRemote(id string) *Remote {
	for _, s := range h.shards {
		s.Mu.Lock()
		for r := range s.remotes {
			if r.id == id {
				s.Mu.Unlock()
				return r
			}
		}
		s.Mu.Unlock()
	}
	return nil
}

// PacketOptions configures AttachPacketConn.
type PacketOptions struct {
	// UserID is the participant's BFCP identity.
	UserID uint16
	// BytesPerSecond is the AH-enforced transmission rate for this UDP
	// participant (Section 4.3: "The AH controls the transmission rate
	// for participants using UDP"). 0 = unlimited.
	BytesPerSecond int
	// TileStore marks the participant as having negotiated the
	// tile-store capability (see StreamOptions.TileStore).
	TileStore bool
	// PinTier, when above TierFull, attaches the remote already pinned to
	// that ladder rung (see StreamOptions.PinTier); the refresh answering
	// its announcement PLI is then tier-coherent.
	PinTier QualityTier
}

// packetSink ships datagrams with an AH-enforced rate budget.
type packetSink struct {
	conn   transport.Batched
	rate   int
	tokens float64
	last   time.Time
	now    func() time.Time
}

func (h *Host) newPacketSink(conn transport.PacketConn, rate int) *packetSink {
	return &packetSink{conn: transport.Batch(conn), rate: rate, now: h.cfg.Now}
}

func (s *packetSink) Send(pkt []byte) error {
	if s.rate > 0 {
		s.refill()
		s.tokens -= float64(len(pkt))
	}
	return s.conn.Send(pkt)
}

// SendBatch sends a run of datagrams (one endpoint lock acquisition per
// batch instead of per packet where the conn batches; see
// transport.Batched). The token budget is charged for exactly the
// packets the transport accepted — the same per-packet accounting Send
// does — so a mid-run send error or a short-count batch sender cannot
// leave the bucket charged for datagrams that never reached the wire.
func (s *packetSink) SendBatch(pkts [][]byte) (int, error) {
	n, err := s.conn.SendBatch(pkts)
	if s.rate > 0 && n > 0 {
		s.refill()
		for _, p := range pkts[:n] {
			s.tokens -= float64(len(p))
		}
	}
	return n, err
}

func (s *packetSink) backlogged(pending int) bool {
	if s.rate <= 0 {
		return false
	}
	s.refill()
	return s.tokens < float64(pending)
}

func (s *packetSink) refill() {
	now := s.now()
	if !s.last.IsZero() {
		s.tokens += now.Sub(s.last).Seconds() * float64(s.rate)
		if cap := float64(s.rate); s.tokens > cap {
			s.tokens = cap
		}
	} else {
		s.tokens = float64(s.rate)
	}
	s.last = now
}

func (s *packetSink) queued() int { return 0 }

func (s *packetSink) stalled() time.Duration { return 0 }

func (s *packetSink) drainStats() (int64, int64) { return 0, 0 }

func (s *packetSink) close() error { return s.conn.Close() }

// AttachPacketConn adds a UDP participant. The host sends remoting RTP
// datagrams on conn and reads HIP RTP and RTCP feedback from it. Unlike
// TCP participants, no initial state is pushed: per Section 4.3 the
// participant announces itself with a PLI. The refresh it triggers is
// served at the start of the next Tick — feedback arrives on pump
// goroutines, and only the Tick caller's goroutine may observe the
// desktop (keep driving Tick at your frame rate).
func (h *Host) AttachPacketConn(id string, conn transport.PacketConn, opts PacketOptions) (*Remote, error) {
	s := h.newPacketSink(conn, opts.BytesPerSecond)
	r := h.newRemote(id, opts.UserID, s)
	if opts.TileStore && h.cfg.TileStore != nil {
		r.tileSeen = codec.NewTileDict(h.cfg.TileStore.DictCapacity)
	}
	if opts.PinTier > TierFull {
		r.PinQualityTier(opts.PinTier)
	}
	// No ID-uniqueness here: packet IDs are caller-chosen labels (ServeUDP
	// already keys by unique source address), and sharing one ID across
	// conns is an established pattern (e.g. multicast-style fan-out tests).
	if err := h.addRemote(r); err != nil {
		_ = s.close()
		return nil, err
	}
	go h.pumpPackets(r, conn)
	return r, nil
}

func (h *Host) pumpPackets(r *Remote, conn transport.PacketConn) {
	for {
		pkt, err := conn.Recv()
		if err != nil {
			_ = r.Close()
			return
		}
		h.handleIncoming(r, pkt)
	}
}

// busSink publishes to a multicast group, optionally under a rate
// budget. Section 4.3: "Several simultaneous multicast sessions with
// different transmission rates can be created at the AH" — each group
// gets its own budget and the standard deferral machinery, so a slow
// group receives coalesced final states while a fast one gets every
// frame.
type busSink struct {
	bus    *transport.Bus
	budget *packetSink // nil when unlimited; reused for its token bucket
}

func (s *busSink) Send(pkt []byte) error {
	if s.budget != nil {
		s.budget.refill()
		s.budget.tokens -= float64(len(pkt))
	}
	s.bus.Publish(pkt)
	return nil
}

func (s *busSink) SendBatch(pkts [][]byte) (int, error) {
	for _, p := range pkts {
		_ = s.Send(p)
	}
	return len(pkts), nil
}

func (s *busSink) backlogged(pending int) bool {
	if s.budget == nil {
		return false
	}
	s.budget.refill()
	return s.budget.tokens < float64(pending)
}

func (s *busSink) queued() int                { return 0 }
func (s *busSink) stalled() time.Duration     { return 0 }
func (s *busSink) drainStats() (int64, int64) { return 0, 0 }
func (s *busSink) close() error               { return nil }

// MulticastOptions configures AttachMulticast.
type MulticastOptions struct {
	// BytesPerSecond caps the group's transmission rate (0 = unlimited).
	BytesPerSecond int
}

// AttachMulticast adds a multicast group as a receiver. Group members
// send their RTCP feedback over unicast paths (attach those with
// AttachPacketConn or route them via HandleFeedback).
func (h *Host) AttachMulticast(id string, bus *transport.Bus, opts ...MulticastOptions) (*Remote, error) {
	s := &busSink{bus: bus}
	if len(opts) > 0 && opts[0].BytesPerSecond > 0 {
		s.budget = &packetSink{rate: opts[0].BytesPerSecond, now: h.cfg.Now}
	}
	r := h.newRemote(id, 0, s)
	if err := h.addRemote(r); err != nil {
		return nil, err
	}
	return r, nil
}

// initialState pushes WindowManagerInfo plus a full screen image, the
// TCP joining flow of Section 4.4 ("right after the TCP connection
// establishment").
func (h *Host) initialState(r *Remote) error {
	r.sh.Mu.Lock()
	defer r.sh.Mu.Unlock()
	return r.fullRefresh()
}

// RequestRefresh performs the PLI action for a remote directly (useful
// for multicast groups whose feedback arrives out of band).
func (h *Host) RequestRefresh(r *Remote) error {
	r.sh.Mu.Lock()
	defer r.sh.Mu.Unlock()
	if r.closed {
		// Same race as the feedback path: the remote may be marked
		// evicted while its sink teardown is still pending.
		return nil
	}
	return r.fullRefresh()
}

// ErrUnknownRemote is returned when feedback names no attached remote.
var ErrUnknownRemote = errors.New("ah: unknown remote")
