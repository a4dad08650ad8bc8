// Package relay implements the edge tier of the relay cascade (see
// DESIGN.md "Relay cascade"): a node that subscribes to an ah.Host's
// (or another relay's) prepared-batch stream and re-fans the shared
// payloads to its own viewer set, absorbing late joiners and PLIs with
// a cached refresh snapshot instead of propagating them to the origin.
//
// The relay receives each tick's payloads exactly as the origin's local
// shards do — marshalled once, addressed by stream id — and pays only
// per-viewer RTP re-stamping, the same split the origin's sharded send
// path makes between "encode & batch" and "remote set" — and the same
// code: a Viewer's RTP stream is the fanout.Stream an ah.Remote's is.
// Viewer repair stays local: NACKs are served from a per-viewer
// retransmission log,
// PLIs from the cached refresh. The only upstream refresh traffic is
// the cadence-driven cache refill (Config.RefreshEvery), so a storm of
// edge joins or losses costs the origin zero additional encodes.
package relay

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"appshare/internal/ah"
	"appshare/internal/fanout"
	"appshare/internal/rtcp"
	"appshare/internal/stats"
	"appshare/internal/transport"
)

// Default configuration values, matching the ah defaults where the
// concepts coincide.
const (
	DefaultRemotingPT = 99
	DefaultRetransLog = 1024
)

// Upstream is the subscription surface a relay attaches to. *ah.Host
// satisfies it, and so does *Relay — relays chain into trees.
type Upstream interface {
	AttachForwarder(ah.Forwarder)
	DetachForwarder(ah.Forwarder)
	// RequestStreamRefresh latches a refresh-snapshot request for the
	// stream; the upstream answers from its own refresh source (the
	// origin encodes one, a parent relay serves its cache).
	RequestStreamRefresh(streamID uint32)
	StreamID() uint32
}

// Config configures a Relay.
type Config struct {
	// StreamID is the stream the relay subscribes to; batches published
	// under any other id are ignored.
	StreamID uint32
	// RemotingPT is the RTP payload type stamped on re-fanned packets
	// (default 99, the draft's SDP example).
	RemotingPT uint8
	// RetransLog is the number of recent packets retained per viewer for
	// NACK service (default 1024).
	RetransLog int
	// MinRefreshInterval rate-limits cache serves per viewer, exactly
	// like the origin's PLI limiter: PLIs inside the window of the last
	// serve are absorbed outright. Zero means 500ms; negative disables.
	MinRefreshInterval time.Duration
	// RefreshEvery, when positive, requests a fresh snapshot from the
	// upstream every N forwarded batches — the ONLY path on which relay
	// activity generates upstream refresh work. Edge events (late
	// joins, PLIs) are always served from the cache and latched for the
	// next scheduled refill, never forwarded.
	RefreshEvery int
	// Now supplies time (defaults to time.Now); injectable for tests.
	Now func() time.Time
	// Entropy seeds the per-viewer RTP identifiers (see ah.Config).
	Entropy func() uint32
	// Stats, when non-nil, receives per-message-kind traffic counts.
	Stats *stats.Collector
}

// Stats is a snapshot of the relay's cascade counters.
type Stats struct {
	// Batches counts upstream prepared batches re-fanned downstream.
	Batches uint64
	// CacheRefills counts refresh snapshots received from upstream.
	CacheRefills uint64
	// CacheServes counts viewer refreshes served from the cached
	// snapshot (late joins and post-PLI serves).
	CacheServes uint64
	// AbsorbedPLIs counts PLIs swallowed by the rate limiter.
	AbsorbedPLIs uint64
	// UpstreamRefreshRequests counts cadence-driven cache refill
	// requests sent upstream.
	UpstreamRefreshRequests uint64
}

// Relay is one edge node of the cascade.
type Relay struct {
	cfg Config
	// sh is the viewer set's scaffold — lock, send arena, stats tally —
	// the same one each of the origin's shards carries (a relay's fan-out
	// is already off the origin's tick path, so it holds exactly one).
	// sh.Mu guards viewers and every Viewer's state. Lock order: sh.Mu →
	// mu (fan-out and feedback hold sh.Mu and bump the cascade counters
	// under mu); no path acquires sh.Mu while holding mu.
	sh       fanout.Shard
	viewers  map[*Viewer]struct{}
	nViewers atomic.Int64

	// mu guards the refresh cache, the upstream handle, the child
	// forwarder set and the cascade counters.
	mu       sync.Mutex
	upstream Upstream
	cache    []fanout.Payload
	children []ah.Forwarder
	// childRefresh latches a child relay's snapshot request; it is
	// served from this relay's own cache at the next batch — absorption
	// applies at every tier, not just the leaf.
	childRefresh bool
	st           Stats
	closed       bool
}

// New returns a Relay ready to attach to an upstream.
func New(cfg Config) *Relay {
	if cfg.RemotingPT == 0 {
		cfg.RemotingPT = DefaultRemotingPT
	}
	if cfg.RetransLog == 0 {
		cfg.RetransLog = DefaultRetransLog
	}
	if cfg.MinRefreshInterval == 0 {
		cfg.MinRefreshInterval = 500 * time.Millisecond
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Relay{
		cfg:     cfg,
		sh:      fanout.Shard{Now: cfg.Now, Stats: cfg.Stats},
		viewers: make(map[*Viewer]struct{}),
	}
}

// ErrRelayClosed is returned by operations on a closed Relay.
var ErrRelayClosed = errors.New("relay: closed")

// AttachUpstream subscribes the relay to up's stream and, when the
// relay wants its cache seeded before the first viewer joins, latches
// an immediate refresh request.
func (r *Relay) AttachUpstream(up Upstream, wantRefresh bool) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrRelayClosed
	}
	r.upstream = up
	r.mu.Unlock()
	up.AttachForwarder(r)
	if wantRefresh {
		up.RequestStreamRefresh(r.cfg.StreamID)
	}
	return nil
}

// Close detaches from the upstream and closes every viewer.
func (r *Relay) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	up := r.upstream
	r.upstream = nil
	r.mu.Unlock()
	if up != nil {
		up.DetachForwarder(r)
	}
	r.sh.Mu.Lock()
	vs := make([]*Viewer, 0, len(r.viewers))
	for v := range r.viewers {
		vs = append(vs, v)
	}
	r.sh.Mu.Unlock()
	var firstErr error
	for _, v := range vs {
		if err := v.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// StreamID implements Upstream for relay→relay chaining.
func (r *Relay) StreamID() uint32 { return r.cfg.StreamID }

// AttachForwarder subscribes a child (relay or recorder) to this
// relay's re-published stream.
func (r *Relay) AttachForwarder(f ah.Forwarder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.children = append(r.children, f)
}

// DetachForwarder removes a child.
func (r *Relay) DetachForwarder(f ah.Forwarder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, g := range r.children {
		if g == f {
			r.children = append(r.children[:i], r.children[i+1:]...)
			return
		}
	}
}

// RequestStreamRefresh latches a child's snapshot request. It is served
// from THIS relay's cache at the next batch — a child's refresh demand
// never travels further up the tree than the first cache that can
// answer it. Only when the relay holds no cache at all does the request
// escalate.
func (r *Relay) RequestStreamRefresh(streamID uint32) {
	if streamID != r.cfg.StreamID {
		return
	}
	r.mu.Lock()
	r.childRefresh = true
	empty := r.cache == nil
	up := r.upstream
	r.mu.Unlock()
	if empty && up != nil {
		up.RequestStreamRefresh(streamID)
	}
}

// ForwardBatch implements ah.Forwarder: one upstream tick's prepared
// payloads, re-fanned to every viewer and child. Called on the
// upstream's tick (or wire-pump) goroutine.
func (r *Relay) ForwardBatch(streamID uint32, msgs []ah.PreparedPayload) error {
	if streamID != r.cfg.StreamID {
		return nil
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrRelayClosed
	}
	r.st.Batches++
	refill := r.cfg.RefreshEvery > 0 && r.st.Batches%uint64(r.cfg.RefreshEvery) == 0
	if refill {
		r.st.UpstreamRefreshRequests++
	}
	up := r.upstream
	children := r.childSnapshotLocked()
	serveChildren := r.childRefresh && r.cache != nil
	var cache []fanout.Payload
	if serveChildren {
		r.childRefresh = false
		cache = r.cache
	}
	r.mu.Unlock()

	err := r.fanout(msgs, false, false)
	for _, c := range children {
		if serveChildren {
			// Snapshot before batch: the cache predates this tick's
			// deltas, so a child repainted from it must see them after.
			// The replay is stale by up to one refill interval, so a
			// child that can tell the difference is told: it must keep
			// its viewers latched until an origin-fresh snapshot lands,
			// or the deltas between the cache's capture and now are
			// silently lost to them.
			if cr, ok := c.(cacheReplayReceiver); ok {
				if ferr := cr.ForwardCachedRefresh(streamID, cache); ferr != nil && err == nil {
					err = ferr
				}
			} else if ferr := c.ForwardRefresh(streamID, cache); ferr != nil && err == nil {
				err = ferr
			}
		}
		if ferr := c.ForwardBatch(streamID, msgs); ferr != nil && err == nil {
			err = ferr
		}
	}
	if refill && up != nil {
		up.RequestStreamRefresh(streamID)
	}
	return err
}

// ForwardRefresh implements ah.Forwarder: a full-refresh snapshot from
// upstream. The relay refills its cache, serves every viewer whose
// refresh is latched (they waited here instead of at the origin) and
// re-publishes the snapshot to its children. The snapshot is
// origin-fresh — encoded this tick and cascaded down synchronously —
// so serving it settles a viewer's latch.
func (r *Relay) ForwardRefresh(streamID uint32, msgs []ah.PreparedPayload) error {
	return r.refill(streamID, msgs, true)
}

// cacheReplayReceiver is the optional chaining surface for handing a
// child forwarder a cache replay — a snapshot that is stale by up to
// one refill interval — instead of an origin-fresh refresh. Relays
// implement it; forwarders that don't are served via ForwardRefresh
// and must tolerate the staleness themselves.
type cacheReplayReceiver interface {
	ForwardCachedRefresh(streamID uint32, msgs []ah.PreparedPayload) error
}

// ForwardCachedRefresh accepts a parent's cache replay. The relay
// refills its cache and repaints latched viewers — the fast paint —
// but the latches stay armed: the replay predates the deltas its
// viewers saw meanwhile, so only the next origin-fresh snapshot (which
// cascades on the parent's refill cadence) settles them. Without this
// distinction a nested relay would clear latches with stale pixels and
// strand late joiners short of convergence forever.
func (r *Relay) ForwardCachedRefresh(streamID uint32, msgs []ah.PreparedPayload) error {
	return r.refill(streamID, msgs, false)
}

// refill is the shared snapshot intake: cache refill, latched-viewer
// fan-out (fresh serves clear the latch, replays keep it armed) and
// re-publication to children with the freshness preserved.
func (r *Relay) refill(streamID uint32, msgs []ah.PreparedPayload, fresh bool) error {
	if streamID != r.cfg.StreamID {
		return nil
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrRelayClosed
	}
	r.cache = msgs
	r.st.CacheRefills++
	r.childRefresh = false
	children := r.childSnapshotLocked()
	r.mu.Unlock()

	err := r.fanout(msgs, true, fresh)
	for _, c := range children {
		var ferr error
		if cr, ok := c.(cacheReplayReceiver); ok && !fresh {
			ferr = cr.ForwardCachedRefresh(streamID, msgs)
		} else {
			ferr = c.ForwardRefresh(streamID, msgs)
		}
		if ferr != nil && err == nil {
			err = ferr
		}
	}
	return err
}

// childSnapshotLocked copies the child set; r.mu held.
func (r *Relay) childSnapshotLocked() []ah.Forwarder {
	if len(r.children) == 0 {
		return nil
	}
	out := make([]ah.Forwarder, len(r.children))
	copy(out, r.children)
	return out
}

// fanout stamps and ships one batch to every viewer as one phase of the
// scaffold. refresh batches go only to viewers whose refresh is latched;
// ordinary batches go to everyone. settle says whether a refresh serve
// clears the latch: origin-fresh snapshots do, cache replays repaint
// but leave the viewer latched for the next fresh one.
func (r *Relay) fanout(batch []fanout.Payload, refresh, settle bool) error {
	var firstErr error
	r.sh.Mu.Lock()
	defer r.sh.Mu.Unlock()
	r.sh.BeginPhase()
	defer r.sh.EndPhase()
	for v := range r.viewers {
		if refresh {
			if !v.wantRefresh {
				continue
			}
			if settle {
				v.wantRefresh = false
			}
			r.countCacheServe()
		}
		if err := v.send(batch); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (r *Relay) countCacheServe() {
	r.mu.Lock()
	r.st.CacheServes++
	r.mu.Unlock()
}

// Stats returns a snapshot of the cascade counters.
func (r *Relay) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.st
}

// Viewers returns the number of attached viewers.
func (r *Relay) Viewers() int { return int(r.nViewers.Load()) }

// Viewer is one participant attached to the relay.
type Viewer struct {
	rl *Relay
	id string
	// conn is the viewer's transport; &conn is st.Sink.
	conn transport.Batched

	// Guarded by rl.sh.Mu. st is the RTP stream toward the viewer; its
	// retransmission log is always on.
	st          fanout.Stream
	wantRefresh bool
	closed      bool
}

// AttachPacketConn adds a UDP viewer. The viewer's refresh is latched
// immediately — it has seen nothing — and, when the relay already holds
// a cached snapshot, served from the cache right away: the fast first
// paint. The latch stays armed until the next upstream snapshot lands,
// which repaints the viewer consistent with the deltas it joined in the
// middle of. Either way the origin never hears about the join. A relay
// that is closed, or closes meanwhile, closes conn.
func (r *Relay) AttachPacketConn(id string, conn transport.PacketConn) (*Viewer, error) {
	if r.cfg.RemotingPT > 0x7F {
		return nil, fmt.Errorf("relay: payload type %d exceeds 7 bits", r.cfg.RemotingPT)
	}
	v := &Viewer{rl: r, id: id, conn: transport.Batch(conn), wantRefresh: true}
	v.st = fanout.NewStream(&r.sh, &v.conn, r.cfg.Entropy, r.cfg.RemotingPT, r.cfg.RetransLog)
	r.sh.Mu.Lock()
	// Close marks the relay closed before it walks the viewer set under
	// sh.Mu, so checking the mark under sh.Mu decides the race: either
	// this attach is refused, or Close's walk finds the viewer.
	r.mu.Lock()
	closed := r.closed
	r.mu.Unlock()
	if closed {
		r.sh.Mu.Unlock()
		_ = conn.Close()
		return nil, ErrRelayClosed
	}
	r.viewers[v] = struct{}{}
	r.nViewers.Add(1)
	v.st.LastRefresh = r.cfg.Now()
	err := r.serveCacheLocked(v)
	r.sh.Mu.Unlock()
	if err != nil {
		_ = v.Close()
		return nil, err
	}
	go r.pump(v, conn)
	return v, nil
}

// pump reads RTCP feedback from the viewer until the conn dies.
func (r *Relay) pump(v *Viewer, conn transport.PacketConn) {
	for {
		pkt, err := conn.Recv()
		if err != nil {
			_ = v.Close()
			return
		}
		r.handleFeedback(v, pkt)
	}
}

// HandleFeedback processes one RTCP packet from v exactly as if it had
// arrived on the viewer's transport — the synchronous injection path
// simulations use instead of the Recv pump, mirroring
// ah.Host.HandleFeedback.
func (r *Relay) HandleFeedback(v *Viewer, pkt []byte) {
	r.handleFeedback(v, pkt)
}

// handleFeedback absorbs one viewer's RTCP: PLIs latch a cache serve
// (rate-limited exactly like the origin's limiter), NACKs retransmit
// from the local log. Nothing here ever reaches the upstream.
func (r *Relay) handleFeedback(v *Viewer, pkt []byte) {
	if len(pkt) < 2 || pkt[1] < 200 || pkt[1] > 207 {
		return
	}
	pkts, err := rtcp.Unmarshal(pkt)
	if err != nil {
		return
	}
	r.sh.Mu.Lock()
	defer r.sh.Mu.Unlock()
	if v.closed {
		// Same eviction race as the origin's feedback path: a viewer
		// torn down between mark and transport close must not receive
		// retransmissions or latch refreshes.
		return
	}
	now := r.cfg.Now()
	for _, p := range pkts {
		switch fb := p.(type) {
		case *rtcp.PLI:
			if !v.st.AdmitPLI(now, r.cfg.MinRefreshInterval) {
				r.mu.Lock()
				r.st.AbsorbedPLIs++
				r.mu.Unlock()
				continue
			}
			// Serve from the cache immediately (the edge answer the
			// origin never sees) and keep the latch armed for the next
			// snapshot, which repaints past whatever deltas the loss ate.
			if err := r.serveCacheLocked(v); err == nil {
				v.wantRefresh = true
			}
			r.record("RelayPLI", len(pkt))
		case *rtcp.NACK:
			_ = v.st.Resend(fb.Lost())
			r.record("RelayNACK", len(pkt))
		}
	}
}

// serveCacheLocked paints v from the cached snapshot, if one exists.
// Shard lock held.
func (r *Relay) serveCacheLocked(v *Viewer) error {
	r.mu.Lock()
	cache := r.cache
	if cache != nil {
		r.st.CacheServes++
	}
	r.mu.Unlock()
	if cache == nil {
		return nil
	}
	return v.send(cache)
}

// send ships one batch on v's stream (see fanout.Stream.Send: stamped
// into the relay's arena, logged by payload reference, tallied on the
// scaffold). Retransmissions do not count toward SentPackets — the
// origin's convention. sh.Mu held.
func (v *Viewer) send(batch []fanout.Payload) error {
	if v.closed {
		return nil
	}
	return v.st.Send(batch)
}

// ID returns the identifier the viewer was attached with.
func (v *Viewer) ID() string { return v.id }

// SSRC returns the RTP synchronization source of the viewer's stream.
func (v *Viewer) SSRC() uint32 {
	v.rl.sh.Mu.Lock()
	defer v.rl.sh.Mu.Unlock()
	return v.st.Packetizer.SSRC()
}

// SentPackets reports the fresh packets shipped to this viewer
// (deliveries and cache serves; retransmissions are excluded, matching
// the origin's counter convention).
func (v *Viewer) SentPackets() uint64 {
	v.rl.sh.Mu.Lock()
	defer v.rl.sh.Mu.Unlock()
	return v.st.SentPackets
}

// SentOctets reports the bytes shipped to this viewer.
func (v *Viewer) SentOctets() uint64 {
	v.rl.sh.Mu.Lock()
	defer v.rl.sh.Mu.Unlock()
	return v.st.SentOctets
}

// AbsorbedPLIs reports PLIs swallowed by the rate limiter.
func (v *Viewer) AbsorbedPLIs() uint64 {
	v.rl.sh.Mu.Lock()
	defer v.rl.sh.Mu.Unlock()
	return v.st.AbsorbedPLIs
}

// Close detaches the viewer and closes its transport.
func (v *Viewer) Close() error {
	sh := &v.rl.sh
	sh.Mu.Lock()
	if v.closed {
		sh.Mu.Unlock()
		return nil
	}
	v.closed = true
	delete(v.rl.viewers, v)
	sh.Mu.Unlock()
	v.rl.nViewers.Add(-1)
	return v.conn.Close()
}

func (r *Relay) record(kind string, bytes int) {
	if r.cfg.Stats != nil {
		r.cfg.Stats.Record(kind, bytes)
	}
}
