package ah

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"appshare/internal/capture"
	"appshare/internal/codec"
	"appshare/internal/display"
	"appshare/internal/fanout"
	"appshare/internal/region"
	"appshare/internal/rtp"
	"appshare/internal/transport"
	"appshare/internal/wire"
)

// Live session migration (see DESIGN.md "Session broker & migration").
// SnapshotSession serializes everything a host owes its viewers — the
// framebuffer, each remote's RTP stream position, tile-store seen-set,
// pending-region and retransmission state, health/ladder clocks — and
// RestoreSession rebuilds a host that continues the session so exactly
// that viewers cannot tell the handoff happened: the next packet each
// viewer receives is byte-identical to the one the original host would
// have sent. Resumed tile-store viewers keep their dictionaries, so a
// migration costs zero full-refresh encodes.

// SessionSnapshot is the migratable state of one sharing session.
type SessionSnapshot struct {
	// Epoch is the original host's stream restart-epoch. The restored
	// host announces the SAME epoch in its StreamDescriptors, so
	// downstream relays keep their caches across the handoff.
	Epoch uint32
	// StreamID names the session's remoting stream.
	StreamID uint32
	// NextShard is the round-robin attach cursor, so attaches after a
	// restore continue the original shard assignment sequence.
	NextShard uint64
	// Desktop is the full framebuffer and window-manager state.
	Desktop display.DesktopState
	// Remotes carries one entry per attached remote, sorted by ID.
	Remotes []RemoteSnapshot
}

// RetransEntry is one logged packet of a remote's retransmission log,
// in log (eviction) order.
type RetransEntry struct {
	Seq uint16
	Pkt []byte
}

// RemoteSnapshot is the serialized state of one attached remote.
type RemoteSnapshot struct {
	ID          string
	UserID      uint16
	ShardIndex  uint32
	ForwardOnly bool

	// Packetizer is the RTP stream position (SSRC, next sequence,
	// timestamp origin) the restored remote continues from.
	Packetizer rtp.PacketizerState

	// TileDictCapacity is the remote's negotiated tile dictionary bound
	// (0 = tile store not negotiated); TileKeys is its seen-set in
	// eviction order; TileRefs the lifetime reference-substitution count.
	TileDictCapacity uint32
	TileKeys         []codec.TileKey
	TileRefs         uint64

	// Deferred screen state (Section 7).
	Pending        []region.Rect
	PendingPointer bool
	Deferrals      uint64

	// Health clocks (health.go). Times are Unix nanoseconds, 0 meaning
	// "never".
	AttachedAt       int64
	LastHeard        int64
	LastRRAt         int64
	RTT              int64
	BacklogHighSince int64
	DeferStreak      int32
	MaxDeferStreak   int32

	// Quality-ladder state and clocks (ladder.go).
	Tier            uint8
	TierSince       int64
	TierPinned      bool
	CongestedSince  int64
	CleanSince      int64
	LastPromoteAt   int64
	PromoteWait     int64
	TierTransitions uint64
	TierFlaps       uint64
	DecimTicks      int32

	// Retransmission log in queue order (oldest first).
	Retrans []RetransEntry

	// RTCP stream counters and the last receiver report.
	SentPackets    uint64
	SentOctets     uint64
	LastRRValid    bool
	LastRRFraction uint8
	LastRRCumLost  uint32
	LastRRJitter   uint32
	LastRRHighSeq  uint32

	// PLI service state.
	LastRefresh      int64
	AbsorbedPLIs     uint64
	RefreshRequested bool
}

// timeToNano flattens a time for the snapshot; the zero time maps to 0.
func timeToNano(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// nanoToTime is timeToNano's inverse.
func nanoToTime(n int64) time.Time {
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n)
}

// SnapshotSession captures the host's migratable session state. It
// serializes against Tick (the snapshot is always a between-ticks
// checkpoint) and takes each shard lock one at a time; it mutates
// nothing, so a host that is heartbeat-snapshotted every tick produces
// exactly the wire bytes it would have produced unobserved.
func (h *Host) SnapshotSession() (*SessionSnapshot, error) {
	h.tickMu.Lock()
	defer h.tickMu.Unlock()
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, ErrHostClosed
	}
	h.mu.Unlock()

	snap := &SessionSnapshot{
		Epoch:     h.epoch,
		StreamID:  h.cfg.StreamID,
		NextShard: h.nextShard.Load(),
	}
	// The desktop is read under capMu: attach-time full refreshes
	// capture outside tickMu, and both walk the same window buffers.
	h.capMu.Lock()
	snap.Desktop = h.cfg.Desktop.State()
	h.capMu.Unlock()

	for si, s := range h.shards {
		s.Mu.Lock()
		for r := range s.remotes {
			if r.closed {
				continue
			}
			snap.Remotes = append(snap.Remotes, r.snapshotLocked(uint32(si)))
		}
		s.Mu.Unlock()
	}
	sort.Slice(snap.Remotes, func(i, j int) bool { return snap.Remotes[i].ID < snap.Remotes[j].ID })
	return snap, nil
}

// snapshotLocked serializes one remote. Shard lock held.
func (r *Remote) snapshotLocked(shardIndex uint32) RemoteSnapshot {
	rs := RemoteSnapshot{
		ID:          r.id,
		UserID:      r.userID,
		ShardIndex:  shardIndex,
		ForwardOnly: r.forwardOnly,
		Packetizer:  r.st.Packetizer.State(),

		TileRefs:       r.tileRefs,
		Pending:        r.pending.Rects(),
		PendingPointer: r.pendingPointer,
		Deferrals:      r.deferrals,

		AttachedAt:       timeToNano(r.attachedAt),
		LastHeard:        timeToNano(r.lastHeard),
		LastRRAt:         timeToNano(r.lastRRAt),
		RTT:              int64(r.rtt),
		BacklogHighSince: timeToNano(r.backlogHighSince),
		DeferStreak:      int32(r.deferStreak),
		MaxDeferStreak:   int32(r.maxDeferStreak),

		Tier:            uint8(r.tier),
		TierSince:       timeToNano(r.tierSince),
		TierPinned:      r.tierPinned,
		CongestedSince:  timeToNano(r.congestedSince),
		CleanSince:      timeToNano(r.cleanSince),
		LastPromoteAt:   timeToNano(r.lastPromoteAt),
		PromoteWait:     int64(r.promoteWait),
		TierTransitions: r.tierTransitions,
		TierFlaps:       r.tierFlaps,
		DecimTicks:      int32(r.decimTicks),

		SentPackets: r.st.SentPackets,
		SentOctets:  r.st.SentOctets,

		LastRefresh:      timeToNano(r.st.LastRefresh),
		AbsorbedPLIs:     r.st.AbsorbedPLIs,
		RefreshRequested: r.refreshRequested,
	}
	if r.tileSeen != nil {
		rs.TileDictCapacity = uint32(r.tileSeen.Capacity())
		rs.TileKeys = r.tileSeen.Keys()
	}
	if r.lastRR.Valid {
		rs.LastRRValid = true
		rs.LastRRFraction = r.lastRR.FractionLost
		rs.LastRRCumLost = r.lastRR.CumulativeLost
		rs.LastRRJitter = r.lastRR.Jitter
		rs.LastRRHighSeq = r.lastRR.HighestSeq
	}
	if r.st.Retrans != nil {
		// The log holds payload references, not datagrams: re-stamp each
		// entry into the bytes that went on the wire.
		r.st.Retrans.Each(func(e rtp.LoggedPacket) {
			pkt := make([]byte, 0, rtp.HeaderSize+len(e.Payload))
			rs.Retrans = append(rs.Retrans, RetransEntry{Seq: e.Seq, Pkt: r.st.Packetizer.AppendLogged(pkt, e)})
		})
	}
	return rs
}

// ErrNotRestorable is returned by RestoreSession on a host that already
// has attached remotes or has ticked its own desktop.
var ErrNotRestorable = errors.New("ah: restore requires a fresh host with no remotes")

// RestoreSession rebuilds the snapshotted session on this host. The
// host must be freshly constructed (no attached remotes). Its desktop
// is REPLACED by the snapshot's — callers re-resolve window pointers
// via Desktop() afterward — and its capture pipeline restarts primed,
// so the first post-restore Tick emits no WindowManagerInfo the
// viewers already hold. Restored remotes are created detached (their
// transports died with the old host); bind each one with
// ResumePacketConn before the next Tick. No entropy is drawn anywhere
// on this path: the restored session's wire bytes continue the
// original's exactly.
func (h *Host) RestoreSession(snap *SessionSnapshot) error {
	desk, err := display.NewDesktopFromState(snap.Desktop)
	if err != nil {
		return fmt.Errorf("ah: restore desktop: %w", err)
	}
	h.tickMu.Lock()
	defer h.tickMu.Unlock()
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return ErrHostClosed
	}
	h.mu.Unlock()
	if h.nRemotes.Load() != 0 {
		return ErrNotRestorable
	}

	cfg := h.cfg
	cfg.Desktop = desk
	pipeline, err := capture.New(desk, cfg.Capture)
	if err != nil {
		return fmt.Errorf("ah: restore pipeline: %w", err)
	}
	// The snapshot was taken after a completed tick: the original
	// pipeline had already transmitted the current window-manager state,
	// so the restored one starts primed rather than fresh.
	pipeline.Prime()

	h.capMu.Lock()
	h.cfg = cfg
	h.cfg.StreamID = snap.StreamID
	h.pipeline = pipeline
	h.capMu.Unlock()
	h.epoch = snap.Epoch
	h.nextShard.Store(snap.NextShard)

	for i := range snap.Remotes {
		rs := &snap.Remotes[i]
		if err := h.restoreRemote(rs); err != nil {
			return err
		}
	}
	return nil
}

// restoreRemote rebuilds one remote in detached (null-sink) state.
func (h *Host) restoreRemote(rs *RemoteSnapshot) error {
	if int(rs.Tier) > int(TierKeyframeOnly) {
		return fmt.Errorf("ah: restore remote %q: bad tier %d", rs.ID, rs.Tier)
	}
	sh := h.shards[int(rs.ShardIndex)%len(h.shards)]
	r := &Remote{
		host:        h,
		sh:          sh,
		id:          rs.ID,
		userID:      rs.UserID,
		sink:        nullSink{},
		pending:     region.NewSet(),
		forwardOnly: rs.ForwardOnly,

		tileRefs:       rs.TileRefs,
		pendingPointer: rs.PendingPointer,
		deferrals:      rs.Deferrals,

		attachedAt:       nanoToTime(rs.AttachedAt),
		lastHeard:        nanoToTime(rs.LastHeard),
		lastRRAt:         nanoToTime(rs.LastRRAt),
		rtt:              time.Duration(rs.RTT),
		backlogHighSince: nanoToTime(rs.BacklogHighSince),
		deferStreak:      int(rs.DeferStreak),
		maxDeferStreak:   int(rs.MaxDeferStreak),

		tier:            QualityTier(rs.Tier),
		tierSince:       nanoToTime(rs.TierSince),
		tierPinned:      rs.TierPinned,
		congestedSince:  nanoToTime(rs.CongestedSince),
		cleanSince:      nanoToTime(rs.CleanSince),
		lastPromoteAt:   nanoToTime(rs.LastPromoteAt),
		promoteWait:     time.Duration(rs.PromoteWait),
		tierTransitions: rs.TierTransitions,
		tierFlaps:       rs.TierFlaps,
		decimTicks:      int(rs.DecimTicks),

		st: fanout.Stream{
			Shard:        &sh.Shard,
			Sink:         nullSink{},
			Packetizer:   rtp.NewPacketizerFromState(rs.Packetizer),
			SentPackets:  rs.SentPackets,
			SentOctets:   rs.SentOctets,
			LastRefresh:  nanoToTime(rs.LastRefresh),
			AbsorbedPLIs: rs.AbsorbedPLIs,
		},
		refreshRequested: rs.RefreshRequested,
	}
	for _, rect := range rs.Pending {
		r.pending.Add(rect)
	}
	if rs.LastRRValid {
		r.lastRR = ReceptionQuality{
			FractionLost:   rs.LastRRFraction,
			CumulativeLost: rs.LastRRCumLost,
			Jitter:         rs.LastRRJitter,
			HighestSeq:     rs.LastRRHighSeq,
			Valid:          true,
		}
	}
	if rs.TileDictCapacity > 0 {
		if h.cfg.TileStore == nil {
			return fmt.Errorf("ah: restore remote %q: snapshot has a tile seen-set but the host has no tile store", rs.ID)
		}
		// Replaying the seen-set keys in eviction order reproduces the
		// dictionary's residency AND its eviction order — the viewer's
		// copy stays in lockstep, so no refresh is owed after resume.
		r.tileSeen = codec.NewTileDict(int(rs.TileDictCapacity))
		for _, k := range rs.TileKeys {
			r.tileSeen.Learn(k, nil)
		}
	}
	if h.cfg.Retransmissions {
		r.st.Retrans = rtp.NewRetransLog(h.cfg.RetransLog)
		for _, e := range rs.Retrans {
			// Parse the datagram back into the fields the log keeps; the
			// restored packetizer supplies SSRC and payload type again.
			var p rtp.Packet
			if err := p.Unmarshal(e.Pkt); err != nil {
				return fmt.Errorf("ah: restore remote %q: retransmission log entry %d: %w", rs.ID, e.Seq, err)
			}
			if p.SequenceNumber != e.Seq {
				return fmt.Errorf("ah: restore remote %q: retransmission log entry %d holds sequence %d", rs.ID, e.Seq, p.SequenceNumber)
			}
			r.st.Retrans.Put(rtp.LoggedPacket{
				Payload:   append([]byte(nil), p.Payload...),
				Timestamp: p.Timestamp,
				Seq:       e.Seq,
				Marker:    p.Marker,
			})
		}
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return ErrHostClosed
	}
	sh.Mu.Lock()
	for o := range sh.remotes {
		if o.id == r.id {
			sh.Mu.Unlock()
			return fmt.Errorf("ah: restore remote %q: already attached", r.id)
		}
	}
	sh.remotes[r] = struct{}{}
	sh.size.Add(1)
	sh.Mu.Unlock()
	h.nRemotes.Add(1)
	return nil
}

// ResumePacketConn binds a transport to a remote restored by
// RestoreSession, replacing its null sink and starting the feedback
// pump. Unlike AttachPacketConn nothing is announced and nothing is
// pushed: the viewer keeps its decoder and tile-dictionary state, and
// the next packet it receives continues the original stream. The
// remote must exist and still be detached.
func (h *Host) ResumePacketConn(id string, conn transport.PacketConn, opts PacketOptions) (*Remote, error) {
	r := h.FindRemote(id)
	if r == nil {
		return nil, fmt.Errorf("ah: resume %q: %w", id, ErrUnknownRemote)
	}
	s := h.newPacketSink(conn, opts.BytesPerSecond)
	r.sh.Mu.Lock()
	if r.closed {
		r.sh.Mu.Unlock()
		return nil, fmt.Errorf("ah: resume %q: remote closed", id)
	}
	if _, detached := r.sink.(nullSink); !detached {
		r.sh.Mu.Unlock()
		return nil, fmt.Errorf("ah: resume %q: remote already has a transport", id)
	}
	r.sink, r.st.Sink = s, s
	r.sh.Mu.Unlock()
	go h.pumpPackets(r, conn)
	return r, nil
}

// Epoch returns the host's stream restart-epoch (the StreamDescriptor
// Epoch field): preserved across RestoreSession, so relays keep their
// caches through a migration.
func (h *Host) Epoch() uint32 { return h.epoch }

// nullSink is the placeholder transport of a restored-but-not-resumed
// remote. Shipping into it is an error — a Tick must not run between
// RestoreSession and ResumePacketConn, or viewers would silently miss
// packets the sequence space claims were sent.
type nullSink struct{}

var errNotResumed = errors.New("ah: remote restored but not resumed")

func (nullSink) Send([]byte) error               { return errNotResumed }
func (nullSink) SendBatch([][]byte) (int, error) { return 0, errNotResumed }
func (nullSink) backlogged(int) bool             { return false }
func (nullSink) queued() int                     { return 0 }
func (nullSink) stalled() time.Duration          { return 0 }
func (nullSink) drainStats() (int64, int64)      { return 0, 0 }
func (nullSink) close() error                    { return nil }

// --- snapshot wire encoding ------------------------------------------------

// sessionSnapshotVersion guards the Marshal encoding.
const sessionSnapshotVersion = 2

// Marshal encodes the snapshot for a broker heartbeat or migration
// transfer. The encoding is deterministic: equal snapshots produce
// equal bytes.
func (s *SessionSnapshot) Marshal() ([]byte, error) {
	w := wire.NewWriter(64 + len(s.Desktop.Windows)*4096)
	w.Uint8(sessionSnapshotVersion)
	w.Uint32(s.Epoch)
	w.Uint32(s.StreamID)
	w.Uint64(s.NextShard)
	appendDesktopState(w, &s.Desktop)
	w.Uint32(uint32(len(s.Remotes)))
	for i := range s.Remotes {
		if err := appendRemoteSnapshot(w, &s.Remotes[i]); err != nil {
			return nil, err
		}
	}
	return w.Bytes(), nil
}

func appendBool(w *wire.Writer, b bool) {
	if b {
		w.Uint8(1)
	} else {
		w.Uint8(0)
	}
}

func appendBytes(w *wire.Writer, b []byte) {
	w.Uint32(uint32(len(b)))
	_, _ = w.Write(b)
}

func appendRect(w *wire.Writer, r region.Rect) {
	w.Int32(int32(r.Left))
	w.Int32(int32(r.Top))
	w.Int32(int32(r.Width))
	w.Int32(int32(r.Height))
}

func appendDesktopState(w *wire.Writer, d *display.DesktopState) {
	w.Int32(int32(d.Width))
	w.Int32(int32(d.Height))
	w.Uint16(d.NextID)
	w.Uint64(d.Generation)
	w.Int32(int32(d.CursorX))
	w.Int32(int32(d.CursorY))
	w.Int32(int32(d.SpriteW))
	w.Int32(int32(d.SpriteH))
	appendBytes(w, d.SpritePix)
	w.Uint16(d.FocusID)
	w.Uint16(uint16(len(d.Windows)))
	for i := range d.Windows {
		win := &d.Windows[i]
		w.Uint16(win.ID)
		w.Uint8(win.Group)
		appendRect(w, win.Bounds)
		appendBool(w, win.Shared)
		appendBytes(w, win.Pix)
	}
}

func appendRemoteSnapshot(w *wire.Writer, rs *RemoteSnapshot) error {
	if len(rs.ID) > 0xFFFF {
		return fmt.Errorf("ah: snapshot remote id %q too long", rs.ID)
	}
	w.Uint16(uint16(len(rs.ID)))
	_, _ = w.Write([]byte(rs.ID))
	w.Uint16(rs.UserID)
	w.Uint32(rs.ShardIndex)
	appendBool(w, rs.ForwardOnly)

	w.Uint32(rs.Packetizer.SSRC)
	w.Uint8(rs.Packetizer.PT)
	w.Uint16(rs.Packetizer.Seq)
	w.Uint64(uint64(rs.Packetizer.ClockOrigin))
	w.Uint32(rs.Packetizer.ClockOffset)

	w.Uint32(rs.TileDictCapacity)
	w.Uint32(uint32(len(rs.TileKeys)))
	for _, k := range rs.TileKeys {
		w.Int32(int32(k.W))
		w.Int32(int32(k.H))
		w.Uint64(k.H1)
		w.Uint64(k.H2)
	}
	w.Uint64(rs.TileRefs)

	w.Uint32(uint32(len(rs.Pending)))
	for _, r := range rs.Pending {
		appendRect(w, r)
	}
	appendBool(w, rs.PendingPointer)
	w.Uint64(rs.Deferrals)

	w.Uint64(uint64(rs.AttachedAt))
	w.Uint64(uint64(rs.LastHeard))
	w.Uint64(uint64(rs.LastRRAt))
	w.Uint64(uint64(rs.RTT))
	w.Uint64(uint64(rs.BacklogHighSince))
	w.Int32(rs.DeferStreak)
	w.Int32(rs.MaxDeferStreak)

	w.Uint8(rs.Tier)
	w.Uint64(uint64(rs.TierSince))
	appendBool(w, rs.TierPinned)
	w.Uint64(uint64(rs.CongestedSince))
	w.Uint64(uint64(rs.CleanSince))
	w.Uint64(uint64(rs.LastPromoteAt))
	w.Uint64(uint64(rs.PromoteWait))
	w.Uint64(rs.TierTransitions)
	w.Uint64(rs.TierFlaps)
	w.Int32(rs.DecimTicks)

	w.Uint32(uint32(len(rs.Retrans)))
	for _, e := range rs.Retrans {
		w.Uint16(e.Seq)
		appendBytes(w, e.Pkt)
	}

	w.Uint64(rs.SentPackets)
	w.Uint64(rs.SentOctets)
	appendBool(w, rs.LastRRValid)
	w.Uint8(rs.LastRRFraction)
	w.Uint32(rs.LastRRCumLost)
	w.Uint32(rs.LastRRJitter)
	w.Uint32(rs.LastRRHighSeq)

	w.Uint64(uint64(rs.LastRefresh))
	w.Uint64(rs.AbsorbedPLIs)
	appendBool(w, rs.RefreshRequested)
	return nil
}

// UnmarshalSessionSnapshot decodes a Marshal encoding.
func UnmarshalSessionSnapshot(b []byte) (*SessionSnapshot, error) {
	r := wire.NewReader(b)
	if v := r.Uint8(); r.Err() == nil && v != sessionSnapshotVersion {
		return nil, fmt.Errorf("ah: session snapshot version %d unsupported", v)
	}
	s := &SessionSnapshot{}
	s.Epoch = r.Uint32()
	s.StreamID = r.Uint32()
	s.NextShard = r.Uint64()
	if err := readDesktopState(r, &s.Desktop); err != nil {
		return nil, err
	}
	nRemotes := int(r.Uint32())
	for i := 0; i < nRemotes && r.Err() == nil; i++ {
		var rs RemoteSnapshot
		readRemoteSnapshot(r, &rs)
		s.Remotes = append(s.Remotes, rs)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("ah: session snapshot: %w", err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("ah: session snapshot: %d trailing bytes", r.Len())
	}
	return s, nil
}

func readBool(r *wire.Reader) bool { return r.Uint8() != 0 }

func readBytes(r *wire.Reader) []byte {
	n := int(r.Uint32())
	if r.Err() != nil || n == 0 {
		return nil
	}
	b := r.Bytes(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

func readRect(r *wire.Reader) region.Rect {
	return region.Rect{
		Left:   int(r.Int32()),
		Top:    int(r.Int32()),
		Width:  int(r.Int32()),
		Height: int(r.Int32()),
	}
}

func readDesktopState(r *wire.Reader, d *display.DesktopState) error {
	d.Width = int(r.Int32())
	d.Height = int(r.Int32())
	d.NextID = r.Uint16()
	d.Generation = r.Uint64()
	d.CursorX = int(r.Int32())
	d.CursorY = int(r.Int32())
	d.SpriteW = int(r.Int32())
	d.SpriteH = int(r.Int32())
	d.SpritePix = readBytes(r)
	d.FocusID = r.Uint16()
	nWin := int(r.Uint16())
	for i := 0; i < nWin && r.Err() == nil; i++ {
		var w display.WindowState
		w.ID = r.Uint16()
		w.Group = r.Uint8()
		w.Bounds = readRect(r)
		w.Shared = readBool(r)
		w.Pix = readBytes(r)
		d.Windows = append(d.Windows, w)
	}
	return r.Err()
}

func readRemoteSnapshot(r *wire.Reader, rs *RemoteSnapshot) {
	idLen := int(r.Uint16())
	if id := r.Bytes(idLen); id != nil {
		rs.ID = string(id)
	}
	rs.UserID = r.Uint16()
	rs.ShardIndex = r.Uint32()
	rs.ForwardOnly = readBool(r)

	rs.Packetizer.SSRC = r.Uint32()
	rs.Packetizer.PT = r.Uint8()
	rs.Packetizer.Seq = r.Uint16()
	rs.Packetizer.ClockOrigin = int64(r.Uint64())
	rs.Packetizer.ClockOffset = r.Uint32()

	rs.TileDictCapacity = r.Uint32()
	nKeys := int(r.Uint32())
	for i := 0; i < nKeys && r.Err() == nil; i++ {
		rs.TileKeys = append(rs.TileKeys, codec.TileKey{
			W:  int(r.Int32()),
			H:  int(r.Int32()),
			H1: r.Uint64(),
			H2: r.Uint64(),
		})
	}
	rs.TileRefs = r.Uint64()

	nPending := int(r.Uint32())
	for i := 0; i < nPending && r.Err() == nil; i++ {
		rs.Pending = append(rs.Pending, readRect(r))
	}
	rs.PendingPointer = readBool(r)
	rs.Deferrals = r.Uint64()

	rs.AttachedAt = int64(r.Uint64())
	rs.LastHeard = int64(r.Uint64())
	rs.LastRRAt = int64(r.Uint64())
	rs.RTT = int64(r.Uint64())
	rs.BacklogHighSince = int64(r.Uint64())
	rs.DeferStreak = r.Int32()
	rs.MaxDeferStreak = r.Int32()

	rs.Tier = r.Uint8()
	rs.TierSince = int64(r.Uint64())
	rs.TierPinned = readBool(r)
	rs.CongestedSince = int64(r.Uint64())
	rs.CleanSince = int64(r.Uint64())
	rs.LastPromoteAt = int64(r.Uint64())
	rs.PromoteWait = int64(r.Uint64())
	rs.TierTransitions = r.Uint64()
	rs.TierFlaps = r.Uint64()
	rs.DecimTicks = r.Int32()

	nRetrans := int(r.Uint32())
	for i := 0; i < nRetrans && r.Err() == nil; i++ {
		var e RetransEntry
		e.Seq = r.Uint16()
		e.Pkt = readBytes(r)
		rs.Retrans = append(rs.Retrans, e)
	}

	rs.SentPackets = r.Uint64()
	rs.SentOctets = r.Uint64()
	rs.LastRRValid = readBool(r)
	rs.LastRRFraction = r.Uint8()
	rs.LastRRCumLost = r.Uint32()
	rs.LastRRJitter = r.Uint32()
	rs.LastRRHighSeq = r.Uint32()

	rs.LastRefresh = int64(r.Uint64())
	rs.AbsorbedPLIs = r.Uint64()
	rs.RefreshRequested = readBool(r)
}
