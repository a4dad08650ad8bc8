// Package ah implements the Application Host of
// draft-boyaci-avt-app-sharing-00: the endpoint that runs the shared
// application (here: the virtual desktop), distributes screen updates to
// participants over the remoting protocol, and regenerates the human
// interface events participants send over HIP.
//
// One Host serves any mix of participants simultaneously — TCP streams
// with backlog-aware coalescing (Section 7), rate-controlled UDP with
// optional retransmissions (Sections 4.3, 5.3.2) and multicast groups
// (Section 4.2) — exactly the deployment the draft describes: "The AH can
// share an application to TCP participants, UDP participants, and several
// multicast addresses in the same sharing session."
package ah

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"appshare/internal/bfcp"
	"appshare/internal/capture"
	"appshare/internal/display"
	"appshare/internal/fanout"
	"appshare/internal/region"
	"appshare/internal/remoting"
	"appshare/internal/stats"
)

// Default configuration values.
const (
	DefaultMTU          = 1200
	DefaultRemotingPT   = 99  // matches the draft's SDP example
	DefaultHIPPT        = 100 // matches the draft's SDP example
	DefaultBacklogLimit = 16 << 10
	DefaultRetransLog   = 1024
)

// Config configures a Host.
type Config struct {
	// Desktop is the shared virtual desktop. Required.
	Desktop *display.Desktop
	// Capture configures the capture pipeline.
	Capture capture.Options
	// MTU bounds each RTP payload (remoting fragmentation threshold).
	MTU int
	// RemotingPT and HIPPT are the negotiated RTP payload types of the
	// two streams (defaults 99 and 100, as in the draft's SDP example).
	RemotingPT, HIPPT uint8
	// Retransmissions enables the UDP retransmission log announced via
	// the mandatory "retransmissions" media type parameter.
	Retransmissions bool
	// RetransLog is the number of recent packets retained per UDP
	// participant for NACK service.
	RetransLog int
	// BacklogLimit is the per-stream send backlog (bytes) above which
	// screen data is deferred and re-captured later (Section 7).
	BacklogLimit int
	// Floor, when non-nil, moderates HIP events per Appendix A.
	Floor *bfcp.Floor
	// Stats, when non-nil, receives per-message-type traffic counts.
	Stats *stats.Collector
	// Now supplies time (defaults to time.Now); injectable for tests.
	Now func() time.Time
	// Entropy, when non-nil, supplies the random identifiers the RTP
	// layer needs per RFC 3550 — SSRCs, initial sequence numbers and
	// timestamp origins. nil draws them from crypto randomness. A seeded
	// source (internal/netsim injects one) makes the host's wire bytes
	// reproducible run to run. Calls are serialized by the attach paths;
	// a source shared across goroutines must be safe for concurrent use.
	Entropy func() uint32
	// CNAME identifies this host in RTCP SDES (default "ah@appshare").
	CNAME string
	// MinRefreshInterval rate-limits PLI service per participant: PLIs
	// arriving within the window of the previous full refresh are
	// absorbed (the refresh already in flight answers them). Zero means
	// 500ms; negative disables limiting.
	MinRefreshInterval time.Duration
	// AutoHIDStatus, with a Floor configured, blocks HID events while
	// the focused window is not shared and unblocks when it is —
	// Appendix A: "the AH MAY temporarily block HID events if the
	// shared application loses the focus".
	AutoHIDStatus bool
	// RemoteTimeout, when positive, evicts a remote from which nothing
	// (HIP or RTCP) has been heard for this long. Zero disables liveness
	// eviction.
	RemoteTimeout time.Duration
	// MaxBacklogDwell, when positive, is the eviction budget for
	// congestion: a remote continuously above its backlog limit (or with
	// a stalled writer) for this long is evicted. Zero never evicts for
	// congestion. Independent of Ladder, which decides what a congested
	// remote is sent while it stays attached.
	MaxBacklogDwell time.Duration
	// OnEvict, when non-nil, is called (outside host locks) with the
	// final health snapshot of every remote the sweep evicts.
	OnEvict func(RemoteHealth)
	// Ladder, when non-nil, enables the congestion-adaptive quality
	// ladder (see ladder.go): the health sweep walks each congested
	// remote through ordered delivery tiers. nil leaves every remote at
	// full fidelity (Section 7 deferral only).
	// Zero-valued fields take the ladder defaults. The config is copied
	// at New; later mutation has no effect.
	Ladder *LadderConfig
	// TileStore, when non-nil, enables the persistent tile store (see
	// tilestore.go): lossless updates are tiled and content-hashed at
	// capture, and remotes that negotiated the capability receive
	// TileReference messages for regions whose tiles they already hold.
	// Zero-valued fields take the tile-store defaults; the config is
	// copied at New.
	TileStore *TileStoreConfig
	// SendShards is the number of fan-out shards the remote set is split
	// across (see shard.go): each shard has its own lock and persistent
	// sender goroutine, so deliveries to different shards proceed in
	// parallel. Zero means GOMAXPROCS at New time; 1 disables the sender
	// goroutines entirely (fan-out runs inline on the Tick goroutine —
	// the pre-sharding behavior); negative values are treated as 1.
	SendShards int
	// StreamID names this host's remoting stream for the relay tier (see
	// DESIGN.md "Relay cascade"): prepared batches published to attached
	// Forwarders are addressed by this id rather than by host pointer, so
	// a relay subscribes to a stream, not a process. Zero is a valid id
	// (single-stream deployments).
	StreamID uint32
	// DebugDisableEvictGates disables the no-traffic-after-evict gates:
	// the refresh-phase re-check (a refresher evicted between the deliver
	// and refresh phases must not be stamped packets) and the feedback
	// closed gate (a NACK/PLI racing finishEvictions must not ship
	// retransmissions or latch refreshes). It exists ONLY so the netsim
	// mutation checks can re-plant the eviction race and prove the
	// eviction oracle catches it; production configs leave it false.
	DebugDisableEvictGates bool
}

// maxSendShards caps Config.SendShards: past the core count extra shards
// only add scheduling overhead.
const maxSendShards = 64

// ErrHostClosed is returned by operations on a closed Host.
var ErrHostClosed = errors.New("ah: host closed")

// Host is an application host serving one sharing session.
//
// Lock order (see DESIGN.md "Sharded send path"): tickMu → mu →
// shard.Mu → capMu. Tick holds tickMu end to end; mu guards host-wide
// queue state (HIP queue, eviction log, closed flag) and is NOT held
// while the tick's batch is captured and encoded; each shard's lock
// guards the per-remote state of the remotes assigned to it; capMu
// serializes every capture-pipeline use (Tick, FullRefresh,
// EncodeRegion) because the pipeline and the desktop journals are
// single-reader structures. No path holds two shard locks at once.
type Host struct {
	mu       sync.Mutex
	cfg      Config
	pipeline *capture.Pipeline
	// shards partitions the remote set (see shard.go); immutable after
	// New. nRemotes mirrors the total attached count so Participants()
	// is a lock-free read; nextShard drives round-robin assignment.
	shards    []*shard
	nRemotes  atomic.Int64
	nextShard atomic.Uint64
	// senderStop, closed at Close, terminates the per-shard sender
	// goroutines and flips fan-out publishes to inline execution.
	senderStop chan struct{}
	// hipErrors counts rejected HIP events (illegitimate coordinates,
	// floor violations, malformed packets, queue overflow).
	hipErrors uint64
	// hipQueue holds participant input awaiting the next Tick.
	hipQueue []queuedEvent
	// evictLog retains the last evictLogMax eviction snapshots for
	// RemoteHealth (most recent last).
	evictLog []RemoteHealth
	closed   bool

	// fwdMu guards the forwarder set and the latched refresh request
	// (see forward.go). It is independent of the shard locks — a
	// forwarder is a stream subscriber, not a remote — and is never held
	// across a forwarder callback.
	fwdMu      sync.Mutex
	forwarders []Forwarder
	fwdRefresh bool
	// epoch identifies this host instance on its stream (StreamDescriptor
	// Epoch field); immutable after New.
	epoch uint32
	// servedRefreshes counts the full-refresh captures Tick served
	// (local PLI refreshers and forwarder snapshot requests share one
	// capture per tick). The relay-tree oracle reconciles it against the
	// scheduled cadence to prove edge-absorbed PLIs and late joins
	// trigger zero origin refresh encodes.
	servedRefreshes atomic.Uint64

	// tickMu serializes whole Tick calls against each other so two
	// concurrent Ticks cannot interleave capture and fan-out (which
	// would reorder updates on the wire).
	tickMu sync.Mutex
	// capMu serializes capture-pipeline access; acquired after a shard
	// lock on paths that hold both.
	capMu sync.Mutex
	// lastEnc is the encode-metric snapshot already flushed to
	// cfg.Stats; guarded by mu.
	lastEnc capture.EncodeMetrics
}

// New returns a Host sharing the configured desktop.
func New(cfg Config) (*Host, error) {
	if cfg.Desktop == nil {
		return nil, errors.New("ah: Config.Desktop is required")
	}
	if cfg.MTU == 0 {
		cfg.MTU = DefaultMTU
	}
	if cfg.MTU < 64 {
		return nil, fmt.Errorf("ah: MTU %d too small", cfg.MTU)
	}
	if cfg.RemotingPT == 0 {
		cfg.RemotingPT = DefaultRemotingPT
	}
	if cfg.HIPPT == 0 {
		cfg.HIPPT = DefaultHIPPT
	}
	if cfg.RemotingPT > 0x7F || cfg.HIPPT > 0x7F {
		return nil, errors.New("ah: payload types exceed 7 bits")
	}
	if cfg.RetransLog == 0 {
		cfg.RetransLog = DefaultRetransLog
	}
	if cfg.BacklogLimit == 0 {
		cfg.BacklogLimit = DefaultBacklogLimit
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.CNAME == "" {
		cfg.CNAME = "ah@appshare"
	}
	if cfg.MinRefreshInterval == 0 {
		cfg.MinRefreshInterval = 500 * time.Millisecond
	}
	if cfg.AutoHIDStatus && cfg.Floor == nil {
		return nil, errors.New("ah: AutoHIDStatus requires a Floor")
	}
	if cfg.Ladder != nil {
		lc := cfg.Ladder.withDefaults()
		cfg.Ladder = &lc
	}
	if cfg.TileStore != nil {
		tc := cfg.TileStore.withDefaults()
		cfg.TileStore = &tc
		// The capture pipeline computes the tile hashes; its tile size
		// must be the store's.
		cfg.Capture.TileSize = tc.TileSize
	}
	if cfg.SendShards == 0 {
		cfg.SendShards = runtime.GOMAXPROCS(0)
	}
	if cfg.SendShards < 1 {
		cfg.SendShards = 1
	}
	if cfg.SendShards > maxSendShards {
		cfg.SendShards = maxSendShards
	}
	pipeline, err := capture.New(cfg.Desktop, cfg.Capture)
	if err != nil {
		return nil, err
	}
	h := &Host{
		cfg:        cfg,
		pipeline:   pipeline,
		senderStop: make(chan struct{}),
		epoch:      uint32(cfg.Now().Unix()),
	}
	h.shards = make([]*shard, cfg.SendShards)
	for i := range h.shards {
		s := &shard{
			Shard:   fanout.Shard{Now: cfg.Now, Stats: cfg.Stats},
			remotes: make(map[*Remote]struct{}),
			work:    make(chan *shardWork),
		}
		s.pw = &shardWork{s: s}
		h.shards[i] = s
		if cfg.SendShards > 1 {
			go h.sender(s)
		}
	}
	return h, nil
}

// Desktop returns the shared desktop.
func (h *Host) Desktop() *display.Desktop { return h.cfg.Desktop }

// Floor returns the configured BFCP floor, if any.
func (h *Host) Floor() *bfcp.Floor { return h.cfg.Floor }

// HIPErrors returns the count of rejected HIP events.
func (h *Host) HIPErrors() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.hipErrors
}

// Participants returns the number of attached remotes. It is a
// lock-free read of a counter maintained on attach/detach/eviction, so
// monitoring paths never contend with fan-out.
func (h *Host) Participants() int {
	return int(h.nRemotes.Load())
}

// Tick captures one round of desktop changes and fans the resulting
// messages out to every participant. Call it at the desired frame rate.
//
// The expensive middle — compressing the tick's dirty rectangles across
// the encode worker pool — runs without any participant lock, so
// participants can attach, detach and deliver feedback while the
// encoders work. The batch is marshalled once and the shared payloads
// fan out through the per-shard sender goroutines (see shard.go);
// likewise all PLIs latched since the last tick are answered from a
// single full-refresh encode, re-stamped per requester, so a PLI storm
// from N late joiners costs ~one encode per window, not N.
func (h *Host) Tick() error {
	h.tickMu.Lock()
	defer h.tickMu.Unlock()

	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return ErrHostClosed
	}
	h.updateHIDStatusLocked()
	// Drain queued participant input first: the events' effects land in
	// this tick's capture, exactly as OS-queued input precedes a frame.
	h.drainHIPLocked()
	h.mu.Unlock()
	// Health sweep runs at tick START so it samples the backlog state
	// left over from the whole previous inter-tick interval: a healthy
	// viewer has drained by now, a stalled one still holds bytes.
	// Sweeping after delivery would instead sample the just-enqueued
	// frame and see every viewer as momentarily backlogged.
	evs := h.sweepHealth(h.cfg.Now())
	// Transport teardown and eviction callbacks run unlocked: closing a
	// wedged sink may block until its peer socket is torn down.
	h.finishEvictions(evs)

	h.capMu.Lock()
	batch, err := h.pipeline.Tick()
	h.capMu.Unlock()
	if err != nil {
		return err
	}
	prep, err := prepareBatch(batch, h.cfg.MTU, h.cfg.TileStore)
	if err != nil {
		return err
	}

	h.mu.Lock()
	closed := h.closed
	h.mu.Unlock()
	if closed {
		return ErrHostClosed
	}
	firstErr, refreshers := h.fanout(phaseDeliver, batch, prep)
	// Publish the tick's prepared payloads to the relay tier (see
	// forward.go): same marshalled bytes the local fan-out shared, now
	// addressed by stream id instead of host pointer.
	fwds, fwdRefresh := h.takeForwardState()
	if len(fwds) > 0 {
		if err := h.forwardBatch(fwds, prep); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if refreshers || fwdRefresh {
		// One full-refresh capture answers every shard's refreshers AND
		// every forwarder's latched snapshot request: the snapshot is
		// encoded once (usually straight from the payload cache) and each
		// shard re-stamps the shared messages per requester.
		if err := h.serveRefreshers(fwds); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	h.mu.Lock()
	h.recordEncodeMetricsLocked()
	h.mu.Unlock()
	return firstErr
}

// serveRefreshers captures and prepares ONE full refresh on the Tick
// goroutine (outside all shard locks), fans it to the refreshers the
// deliver phase collected and pushes the same snapshot to the attached
// forwarders (refilling every edge refresh cache at once).
func (h *Host) serveRefreshers(fwds []Forwarder) error {
	b, err := h.captureFullRefresh()
	if err != nil {
		return err
	}
	// The refresh ships pixels (tileCompose never substitutes references
	// on refresh paths), but the prepared tiles still matter: they teach
	// each refresher's seen-set, healing desynced dictionaries.
	prep, err := prepareBatch(b, h.cfg.MTU, h.cfg.TileStore)
	if err != nil {
		return err
	}
	h.servedRefreshes.Add(1)
	err, _ = h.fanout(phaseRefresh, nil, prep)
	if ferr := h.forwardRefresh(fwds, prep); ferr != nil && err == nil {
		err = ferr
	}
	return err
}

// captureFullRefresh snapshots the full participant state. Serialized by
// capMu alone; callers may additionally hold a shard lock (order
// shard.Mu → capMu).
func (h *Host) captureFullRefresh() (*capture.Batch, error) {
	h.capMu.Lock()
	defer h.capMu.Unlock()
	return h.pipeline.FullRefresh()
}

// encodeRegion re-captures one deferred region under the capture lock,
// pixelated at the given block size (the TierScaled variant; 0 = full
// fidelity).
func (h *Host) encodeRegion(rect region.Rect, block int) ([]capture.Update, error) {
	h.capMu.Lock()
	defer h.capMu.Unlock()
	return h.pipeline.EncodeRegionDegraded(rect, block)
}

// capturePointer builds a full MousePointerInfo under the capture lock.
func (h *Host) capturePointer() (*remoting.MousePointerInfo, error) {
	h.capMu.Lock()
	defer h.capMu.Unlock()
	return h.pipeline.FullRefreshPointer()
}

// EncodeMetrics returns the capture pipeline's cumulative encode-layer
// counters (payload-cache effectiveness, worker-pool utilisation).
func (h *Host) EncodeMetrics() capture.EncodeMetrics {
	return h.pipeline.Metrics()
}

// recordEncodeMetricsLocked flushes the delta of the encode counters to
// the stats collector, under the kinds EncodeCacheHit / EncodeCacheMiss
// / EncodeCacheEvict / EncodeParallel / EncodeSerial. Host lock held.
func (h *Host) recordEncodeMetricsLocked() {
	if h.cfg.Stats == nil {
		return
	}
	m, prev := h.pipeline.Metrics(), h.lastEnc
	h.lastEnc = m
	h.cfg.Stats.RecordN("EncodeCacheHit", m.Cache.Hits-prev.Cache.Hits, m.Cache.HitBytes-prev.Cache.HitBytes)
	h.cfg.Stats.RecordN("EncodeCacheMiss", m.Cache.Misses-prev.Cache.Misses, m.Cache.MissBytes-prev.Cache.MissBytes)
	h.cfg.Stats.RecordN("EncodeCacheEvict", m.Cache.Evictions-prev.Cache.Evictions, 0)
	h.cfg.Stats.RecordN("EncodeParallel", m.ParallelJobs-prev.ParallelJobs, 0)
	h.cfg.Stats.RecordN("EncodeSerial", m.SerialJobs-prev.SerialJobs, 0)
}

// Run ticks the host at the given interval until stop is closed.
func (h *Host) Run(interval time.Duration, stop <-chan struct{}) error {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return nil
		case <-ticker.C:
			if err := h.Tick(); err != nil {
				return err
			}
		}
	}
}

// Close detaches all participants and stops the shard senders. Like
// every teardown path it snapshots membership under the locks and closes
// transports outside them (closing a wedged sink may block); a Tick
// racing this sees either ErrHostClosed or send errors from the closed
// sinks — never a hung barrier, because closing senderStop flips fan-out
// publishes to inline execution.
func (h *Host) Close() error {
	h.mu.Lock()
	already := h.closed
	h.closed = true
	h.mu.Unlock()
	if !already {
		close(h.senderStop)
	}
	var remotes []*Remote
	for _, s := range h.shards {
		s.Mu.Lock()
		for r := range s.remotes {
			remotes = append(remotes, r)
		}
		s.Mu.Unlock()
	}
	for _, r := range remotes {
		_ = r.Close()
	}
	return nil
}

// BroadcastExtension ships a raw remoting-stream payload (an extension
// message registered per Section 9 — common header plus body) to every
// participant. The payload must fit one RTP packet; fragmentation is
// defined only for RegionUpdate and MousePointerInfo.
//
// Invariant shared with Tick's fan-out (see DESIGN.md "Sharded send
// path"): stamping a remote's next sequence number and handing the
// packet to its sink happen atomically under the owning shard's lock —
// releasing the lock between the two would let a concurrent sender
// reorder that remote's stream. Broadcast therefore walks the shards
// one at a time, holding each shard's lock across its remotes' sends,
// exactly the pattern runShardWork uses; only teardown paths (Close,
// finishEvictions) snapshot-then-act outside the locks, because they
// need no ordering and must not block a lock on a dead transport.
func (h *Host) BroadcastExtension(payload []byte) error {
	if len(payload) < 4 {
		return errors.New("ah: extension payload shorter than the common header")
	}
	if len(payload) > h.cfg.MTU {
		return fmt.Errorf("ah: extension payload %d exceeds MTU %d", len(payload), h.cfg.MTU)
	}
	// One private copy for the whole broadcast: the retransmission logs
	// keep a reference to it, and the caller keeps its slice.
	msgs := []PreparedPayload{{Payload: append([]byte(nil), payload...), Kind: "Extension"}}
	var firstErr error
	for _, s := range h.shards {
		s.Mu.Lock()
		s.BeginPhase()
		for r := range s.remotes {
			if err := r.st.Send(msgs); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		s.EndPhase()
		s.Mu.Unlock()
	}
	return firstErr
}

// updateHIDStatusLocked applies the Appendix A focus rule: HIDs are
// blocked while the focused window is outside the shared set.
func (h *Host) updateHIDStatusLocked() {
	if !h.cfg.AutoHIDStatus {
		return
	}
	focus := h.cfg.Desktop.Focus()
	want := bfcp.StateNotAllowed
	if focus != nil && focus.Shared() {
		want = bfcp.StateAllAllowed
	}
	if h.cfg.Floor.HIDStatus() != want {
		h.cfg.Floor.SetHIDStatus(want)
	}
}

// record logs a sent message to the stats collector.
func (h *Host) record(kind string, n int) {
	if h.cfg.Stats != nil {
		h.cfg.Stats.Record(kind, n)
	}
}

func (h *Host) addRemote(r *Remote) error { return h.insertRemote(r, false) }

// addRemoteUnique is addRemote plus an ID-uniqueness check, for the
// unicast attach paths where the ID names one viewer (ServeTCP uses the
// peer address): a second attach under a live ID is a caller bug that
// must fail cleanly instead of shadowing the first in FindRemote.
func (h *Host) addRemoteUnique(r *Remote) error { return h.insertRemote(r, true) }

// insertRemote attaches r to its assigned shard. h.mu serializes whole
// attaches against each other (and against Close), so the uniqueness
// scan across shards cannot race a concurrent same-ID attach; the shard
// locks are taken one at a time under it (lock order mu → shard.Mu).
func (h *Host) insertRemote(r *Remote, unique bool) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return ErrHostClosed
	}
	if unique {
		for _, s := range h.shards {
			s.Mu.Lock()
			for o := range s.remotes {
				if o.id == r.id {
					s.Mu.Unlock()
					return fmt.Errorf("ah: remote %q already attached", r.id)
				}
			}
			s.Mu.Unlock()
		}
	}
	now := h.cfg.Now()
	s := r.sh
	s.Mu.Lock()
	r.attachedAt = now
	r.tierSince = now
	if h.cfg.Ladder != nil {
		r.promoteWait = h.cfg.Ladder.PromoteAfter
	}
	s.remotes[r] = struct{}{}
	s.size.Add(1)
	s.Mu.Unlock()
	h.nRemotes.Add(1)
	return nil
}

func (h *Host) dropRemote(r *Remote) {
	s := r.sh
	s.Mu.Lock()
	if _, ok := s.remotes[r]; ok {
		delete(s.remotes, r)
		s.size.Add(-1)
		h.nRemotes.Add(-1)
	}
	s.Mu.Unlock()
	if h.cfg.Floor != nil {
		h.cfg.Floor.Drop(r.userID)
	}
}
