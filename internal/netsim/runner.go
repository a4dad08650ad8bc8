package netsim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"image/color"
	"math/rand"
	"sort"
	"sync"
	"time"

	"appshare/internal/ah"
	"appshare/internal/bfcp"
	"appshare/internal/broker"
	"appshare/internal/display"
	"appshare/internal/participant"
	"appshare/internal/region"
	"appshare/internal/relay"
	"appshare/internal/remoting"
	"appshare/internal/rtcp"
	"appshare/internal/rtp"
	"appshare/internal/stats"
	"appshare/internal/trace"
	"appshare/internal/transport"
	"appshare/internal/workload"
)

// pliHolddown is the virtual-time minimum between PLIs from one viewer,
// mirroring the real repair loops' restraint so the host's refresh rate
// limiter is exercised, not bypassed.
const pliHolddown = 300 * time.Millisecond

// settleWallLimit bounds the REAL time one TCP settle may poll; a
// scenario tripping it has a harness bug (the terminal states below are
// stable), and the counters oracle reports it rather than hanging CI.
const settleWallLimit = 10 * time.Second

// subStatser is the stats surface of a transport.Bus subscriber.
type subStatser interface {
	Stats() (sent, dropped uint64)
}

// viewerState is the runner's per-viewer bookkeeping.
type viewerState struct {
	idx  int
	name string
	spec ViewerSpec
	prof Profile
	kind ViewerKind
	p    *participant.Participant

	remote *ah.Remote
	// rv is the relay-tier attachment of a ViaRelay viewer (remote is
	// nil for these: the origin never learns they exist), and relayNode
	// is the chain level it hangs off — feedback goes there, not to the
	// origin or the chain root.
	rv        *relay.Viewer
	relayNode *relay.Relay

	// Link state (UDP and the feedback direction of every kind).
	down, up         *transport.Shaper
	heldDown, heldUp []byte
	evSeq            uint64

	conn  *simPacketConn       // UDP
	sconn *streamConn          // TCP
	sub   transport.PacketConn // multicast subscriber

	rxBuf []byte // TCP frame-parse remainder

	// tap records every packet the host sent toward this viewer,
	// pre-shaping (TCP: the parsed frames). Oracle input.
	tap           [][]byte
	tapAfterEvict int

	delivered        uint64 // datagrams/frames handed to the participant
	dropsDown        uint64 // down datagrams the link discarded
	shapedDeliveries uint64 // down deliveries scheduled through the Shaper
	bypassDeliveries uint64 // down deliveries scheduled during quiesce
	mcDrained        uint64 // datagrams drained from the multicast sub

	joined    bool
	left      bool // detached cleanly at spec.LeaveAtTick
	evicted   bool
	evictedAt time.Time
	lastPLIAt time.Time

	settleStuck bool
}

// silencedAt reports whether this viewer has gone silent by the given
// tick.
func (v *viewerState) silencedAt(tick int) bool {
	return v.spec.SilenceAfterTick > 0 && tick >= v.spec.SilenceAfterTick
}

// budgetAtTick resolves the TCP byte budget for one tick: the last
// schedule phase whose FromTick has been reached, or
// StreamBudgetPerTick before (or without) any phase.
func (v *viewerState) budgetAtTick(tick int) int {
	b := v.spec.StreamBudgetPerTick
	for _, ph := range v.spec.StreamBudgetSchedule {
		if tick < ph.FromTick {
			break
		}
		b = ph.Budget
	}
	return b
}

type runner struct {
	sc    Scenario
	clk   *vclock
	epoch time.Time

	// sendMu serializes shipDown: with SendShards > 1 the host's sender
	// goroutines call simPacketConn.Send concurrently from different
	// shards, and the event heap and journaling bookkeeping they feed
	// are shared runner state. The heap's (at, li, seq) total order
	// makes the processing order independent of which shard pushed
	// first, so serializing here costs nothing in determinism.
	sendMu sync.Mutex

	desk  *display.Desktop
	win   *display.Window
	winID uint16
	host  *ah.Host
	coll  *stats.Collector
	wl    workload.Workload

	viewers []*viewerState
	byName  map[string]*viewerState

	// relays is the edge tier (empty without Scenario.Relay): a chain of
	// relays with relays[0] subscribed in-process to the host and each
	// deeper level subscribed to the one above, fanning to the ViaRelay
	// viewers at their RelayLevel.
	relays []*relay.Relay

	// Broker custody (nil/zero without Scenario.Broker).
	brk   *broker.Broker
	hostB *ah.Host
	floor *bfcp.Floor
	// floorReleaseErr records the post-migration moderator release —
	// nil under restored custody, an error when FaultDropFloorState
	// discarded the grant.
	floorReleaseErr error
	released        bool
	failed          bool // the scheduled kill has fired
	hostDead        bool // killed and not yet re-homed
	migrated        bool
	migratedAt      int
	// freshJoinsB counts viewers that joined AFTER the migration: each
	// owes the standby exactly one join refresh, and resumed viewers
	// owe it none — the migration oracle's central claim.
	freshJoinsB uint64
	// oldConns are the dead host's closed transports; the counters
	// oracle audits that nothing was sent into them after the failover.
	oldConns []*simPacketConn

	events eventHeap
	bypass bool

	// Multicast (nil without multicast viewers).
	bus        *transport.Bus
	group      *ah.Remote
	tapSub     transport.PacketConn
	groupTap   [][]byte
	tapDrained uint64

	jbuf *bytes.Buffer
	jw   *trace.Writer

	pendingEvicts []ah.RemoteHealth
	evictedNames  []string

	corrupted bool
	tickNo    int
	ticksRun  int
	tickErrs  []string
}

// deriveSeed mixes the scenario seed with a component label into an
// independent, never-zero sub-seed (zero would make transport.NewShaper
// fall back to the wall clock and break replay).
func deriveSeed(base int64, salt string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(base))
	h.Write(b[:])
	h.Write([]byte(salt))
	s := int64(h.Sum64())
	if s == 0 {
		s = 1
	}
	return s
}

// entropyFrom adapts a seeded PRNG to the Config.Entropy shape. The
// sources are only ever drawn from the runner goroutine.
func entropyFrom(seed int64) func() uint32 {
	rng := rand.New(rand.NewSource(seed))
	return func() uint32 { return rng.Uint32() }
}

// applyDefaults fills the zero-value scenario knobs.
func applyDefaults(sc Scenario) Scenario {
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if sc.Ticks <= 0 {
		sc.Ticks = 30
	}
	if sc.TickInterval <= 0 {
		sc.TickInterval = 40 * time.Millisecond
	}
	if sc.Workload == "" {
		sc.Workload = "typing"
	}
	if sc.QuiesceTicks <= 0 {
		sc.QuiesceTicks = 80
	}
	if sc.DesktopW <= 0 {
		sc.DesktopW = 320
	}
	if sc.DesktopH <= 0 {
		sc.DesktopH = 240
	}
	if sc.RetransLog <= 0 {
		sc.RetransLog = 16384
	}
	return sc
}

// pristineLink reports whether cfg applies no impairment at all.
func pristineLink(cfg transport.LinkConfig) bool {
	return cfg.LossRate == 0 && cfg.ReorderRate == 0 && cfg.Delay == 0 &&
		cfg.Jitter == 0 && cfg.DuplicateRate == 0 && cfg.Burst == nil &&
		cfg.BytesPerSecond == 0
}

// lossOnly reports whether cfg impairs through loss models alone — the
// constraint on multicast subscriber links, whose synchronous delivery
// cannot express delay, reordering or duplication deterministically.
func lossOnly(cfg transport.LinkConfig) bool {
	return cfg.ReorderRate == 0 && cfg.Delay == 0 && cfg.Jitter == 0 &&
		cfg.DuplicateRate == 0 && cfg.BytesPerSecond == 0
}

// validate rejects scenario shapes the simulation cannot run
// deterministically.
func validate(sc Scenario) error {
	if len(sc.Viewers) == 0 {
		return fmt.Errorf("netsim: scenario %q has no viewers", sc.Name)
	}
	if sc.DesktopW < 96 || sc.DesktopH < 64 {
		return fmt.Errorf("netsim: scenario %q: desktop %dx%d is below the 96x64 floor (the shared window is inset 64x48)",
			sc.Name, sc.DesktopW, sc.DesktopH)
	}
	if sc.Relay == nil && sc.Expect.MinRelayAbsorbed > 0 {
		return fmt.Errorf("netsim: scenario %q: Expect.MinRelayAbsorbed requires a relay tier", sc.Name)
	}
	if sc.Relay != nil && sc.Relay.Levels > 4 {
		return fmt.Errorf("netsim: scenario %q: relay chain depth %d exceeds the 4-level cap", sc.Name, sc.Relay.Levels)
	}
	if sc.Fault == FaultCorruptSnapshot || sc.Fault == FaultDropFloorState {
		if sc.Broker == nil || sc.Broker.FailAtTick <= 0 {
			return fmt.Errorf("netsim: scenario %q: migration faults require Broker with FailAtTick > 0", sc.Name)
		}
	}
	if sc.Broker != nil {
		if sc.Relay != nil {
			return fmt.Errorf("netsim: scenario %q: Broker and Relay tiers cannot be combined", sc.Name)
		}
		if sc.Fault == FaultEvictFeedback {
			return fmt.Errorf("netsim: scenario %q: FaultEvictFeedback is not supported under broker custody", sc.Name)
		}
		if sc.Broker.FailAtTick < 0 {
			return fmt.Errorf("netsim: scenario %q: negative FailAtTick", sc.Name)
		}
		if f := sc.Broker.FailAtTick; f > 0 {
			if d := sc.Broker.detectAfter(); f+d+3 > sc.Ticks {
				return fmt.Errorf("netsim: scenario %q: FailAtTick %d + detection %d needs 3 post-migration ticks before tick %d",
					sc.Name, f, d, sc.Ticks)
			}
		}
	}
	seen := map[string]bool{"_ref": true}
	relayed := 0
	for _, vs := range sc.Viewers {
		if vs.Name == "" {
			return fmt.Errorf("netsim: scenario %q has an unnamed viewer", sc.Name)
		}
		if seen[vs.Name] {
			return fmt.Errorf("netsim: scenario %q: duplicate or reserved viewer name %q", sc.Name, vs.Name)
		}
		seen[vs.Name] = true
		if vs.JoinAtTick < 0 || vs.JoinAtTick >= sc.Ticks {
			return fmt.Errorf("netsim: viewer %q joins at tick %d outside [0,%d)", vs.Name, vs.JoinAtTick, sc.Ticks)
		}
		if vs.LeaveAtTick != 0 {
			if vs.Kind != KindUDP {
				return fmt.Errorf("netsim: viewer %q: LeaveAtTick is only supported for UDP viewers", vs.Name)
			}
			if vs.LeaveAtTick <= vs.JoinAtTick || vs.LeaveAtTick >= sc.Ticks {
				return fmt.Errorf("netsim: viewer %q leaves at tick %d outside (%d,%d)", vs.Name, vs.LeaveAtTick, vs.JoinAtTick, sc.Ticks)
			}
		}
		if vs.ViaRelay {
			relayed++
			if sc.Relay == nil {
				return fmt.Errorf("netsim: viewer %q: ViaRelay requires Scenario.Relay", vs.Name)
			}
			if vs.Kind != KindUDP {
				return fmt.Errorf("netsim: viewer %q: ViaRelay is only supported for UDP viewers", vs.Name)
			}
			if vs.LeaveAtTick != 0 {
				return fmt.Errorf("netsim: viewer %q: LeaveAtTick is not supported behind the relay tier", vs.Name)
			}
			levels := 1
			if sc.Relay.Levels > 0 {
				levels = sc.Relay.Levels
			}
			if vs.RelayLevel < 0 || vs.RelayLevel >= levels {
				return fmt.Errorf("netsim: viewer %q: RelayLevel %d outside the %d-level relay chain", vs.Name, vs.RelayLevel, levels)
			}
		} else if vs.RelayLevel != 0 {
			return fmt.Errorf("netsim: viewer %q: RelayLevel requires ViaRelay", vs.Name)
		}
		if sc.Broker != nil {
			if vs.Kind != KindUDP {
				return fmt.Errorf("netsim: viewer %q: broker scenarios support UDP viewers only", vs.Name)
			}
			if vs.LeaveAtTick != 0 {
				return fmt.Errorf("netsim: viewer %q: LeaveAtTick is not supported under broker custody", vs.Name)
			}
			if f := sc.Broker.FailAtTick; f > 0 {
				// A join inside the dead window would attach to a closed
				// host; the scenario must join before the failure or after
				// the detection horizon.
				if d := sc.Broker.detectAfter(); vs.JoinAtTick >= f && vs.JoinAtTick < f+d {
					return fmt.Errorf("netsim: viewer %q joins at tick %d inside the dead window [%d,%d)",
						vs.Name, vs.JoinAtTick, f, f+d)
				}
			}
		}
		prof := sc.Profile
		if vs.Profile != nil {
			prof = *vs.Profile
		}
		switch vs.Kind {
		case KindTCP:
			if !pristineLink(prof.Down) || !pristineLink(prof.Up) || len(prof.Partitions) > 0 {
				return fmt.Errorf("netsim: TCP viewer %q: link impairments are modeled by StreamBudgetPerTick, not profile %q", vs.Name, prof.Name)
			}
			for i, ph := range vs.StreamBudgetSchedule {
				if ph.Budget <= 0 {
					return fmt.Errorf("netsim: TCP viewer %q: budget phase %d has non-positive budget %d", vs.Name, i, ph.Budget)
				}
				if i > 0 && ph.FromTick <= vs.StreamBudgetSchedule[i-1].FromTick {
					return fmt.Errorf("netsim: TCP viewer %q: budget schedule not sorted by ascending FromTick at phase %d", vs.Name, i)
				}
				if ph.FromTick < 0 || ph.FromTick >= sc.Ticks {
					return fmt.Errorf("netsim: TCP viewer %q: budget phase %d starts at tick %d outside [0,%d)", vs.Name, i, ph.FromTick, sc.Ticks)
				}
			}
		case KindMulticast:
			if !lossOnly(prof.Down) {
				return fmt.Errorf("netsim: multicast viewer %q: subscriber link %q must impair through loss only", vs.Name, prof.Name)
			}
			if len(prof.Partitions) > 0 {
				return fmt.Errorf("netsim: multicast viewer %q: partitions are not supported on subscriber links", vs.Name)
			}
			if vs.JoinAtTick != 0 {
				return fmt.Errorf("netsim: multicast viewer %q must join at tick 0", vs.Name)
			}
		}
	}
	if sc.Relay != nil && relayed == 0 {
		return fmt.Errorf("netsim: scenario %q declares a relay tier but no ViaRelay viewer", sc.Name)
	}
	for _, name := range sc.Expect.Evicted {
		if !seen[name] || name == "_ref" {
			return fmt.Errorf("netsim: Expect.Evicted names unknown viewer %q", name)
		}
		for _, vs := range sc.Viewers {
			if vs.Name == name && vs.ViaRelay {
				return fmt.Errorf("netsim: Expect.Evicted names relay viewer %q (the host cannot evict what it never attached)", name)
			}
		}
	}
	return nil
}

// Run executes one scenario to completion and returns its journal,
// digest and oracle verdicts. It never calls the wall clock for
// simulation decisions: rerunning with the same Scenario value produces
// a byte-identical journal.
func Run(sc Scenario) (*Result, error) {
	sc = applyDefaults(sc)
	if err := validate(sc); err != nil {
		return nil, err
	}

	epoch := time.Unix(1_700_000_000, 0).UTC()
	r := &runner{
		sc:     sc,
		clk:    newVClock(epoch),
		epoch:  epoch,
		byName: make(map[string]*viewerState),
		jbuf:   &bytes.Buffer{},
	}
	jw, err := trace.NewWriter(r.jbuf)
	if err != nil {
		return nil, err
	}
	r.jw = jw

	// Small desktop: the oracles compare every pixel, and the matrix
	// runs under -race in CI. The fixed 64x48 inset keeps the default
	// 320x240 desktop's window at the historical 256x192.
	r.desk = display.NewDesktop(sc.DesktopW, sc.DesktopH)
	r.win = r.desk.CreateWindow(1, region.XYWH(12, 10, sc.DesktopW-64, sc.DesktopH-48))
	r.winID = r.win.ID()
	r.wl, err = workload.ByName(sc.Workload, r.desk, r.win, deriveSeed(sc.Seed, "workload"))
	if err != nil {
		return nil, err
	}

	r.coll = stats.NewCollector()
	var tileCfg *ah.TileStoreConfig
	if sc.TileStore {
		tileCfg = &ah.TileStoreConfig{} // negotiated defaults
	}
	r.host, err = ah.New(ah.Config{
		Desktop:         r.desk,
		Retransmissions: true,
		RetransLog:      sc.RetransLog,
		TileStore:       tileCfg,
		SendShards:      sc.SendShards,
		Stats:           r.coll,
		Now:             r.clk.Now,
		Entropy:         entropyFrom(deriveSeed(sc.Seed, "host-entropy")),
		RemoteTimeout:   sc.RemoteTimeout,
		MaxBacklogDwell: sc.MaxBacklogDwell,
		BacklogLimit:    sc.BacklogLimit,
		Ladder:          sc.Ladder,
		OnEvict:         func(snap ah.RemoteHealth) { r.pendingEvicts = append(r.pendingEvicts, snap) },
		// FaultEvictFeedback re-opens the refresh-phase eviction race on
		// purpose; the evictions oracle must catch the resulting traffic.
		DebugDisableEvictGates: sc.Fault == FaultEvictFeedback,
	})
	if err != nil {
		return nil, err
	}
	defer r.host.Close()

	if sc.Relay != nil {
		refreshEvery := sc.Relay.RefreshEvery
		if refreshEvery <= 0 {
			refreshEvery = 8
		}
		levels := sc.Relay.Levels
		if levels <= 0 {
			levels = 1
		}
		// Build the chain root-first: level 0 subscribes to the origin,
		// each deeper level to the one above. Seeding every cache before
		// any viewer joins costs the origin only ONE refresh — the
		// per-level seed requests merge into the origin's single latch,
		// and tick 0's capture republishes down the whole chain.
		var up relay.Upstream = r.host
		for lvl := 0; lvl < levels; lvl++ {
			// Level 0 keeps the historical entropy lane so single-level
			// relay journals stay byte-identical; deeper levels get their
			// own.
			salt := "relay-entropy"
			if lvl > 0 {
				salt = fmt.Sprintf("relay-entropy/%d", lvl)
			}
			rl := relay.New(relay.Config{
				StreamID:           r.host.StreamID(),
				RetransLog:         sc.RetransLog,
				RefreshEvery:       refreshEvery,
				MinRefreshInterval: sc.Relay.MinRefreshInterval,
				Now:                r.clk.Now,
				Entropy:            entropyFrom(deriveSeed(sc.Seed, salt)),
			})
			if err := rl.AttachUpstream(up, true); err != nil {
				return nil, err
			}
			r.relays = append(r.relays, rl)
			up = rl
		}
		// Teardown deepest-first, so each relay detaches from a
		// still-open upstream.
		defer func() {
			for i := len(r.relays) - 1; i >= 0; i-- {
				_ = r.relays[i].Close()
			}
		}()
	}

	if sc.Broker != nil {
		d := sc.Broker.detectAfter()
		// The half-interval margin puts the timeout strictly between D
		// and D+1 missed beats, so detection lands exactly at tick
		// FailAtTick + D regardless of rounding.
		r.brk = broker.New(broker.Config{
			Now:              r.clk.Now,
			HeartbeatTimeout: time.Duration(d)*sc.TickInterval + sc.TickInterval/2,
		})
		r.brk.Register(&remoting.BrokerRegister{HostID: 1, Capacity: 64}, "sim://host-a")
		r.brk.Register(&remoting.BrokerRegister{HostID: 2, Capacity: 64}, "sim://host-b")
		// The standby: identical policy on its own entropy lane, with a
		// placeholder desktop the restore replaces wholesale.
		var tileCfgB *ah.TileStoreConfig
		if sc.TileStore {
			tileCfgB = &ah.TileStoreConfig{}
		}
		r.hostB, err = ah.New(ah.Config{
			Desktop:         display.NewDesktop(sc.DesktopW, sc.DesktopH),
			Retransmissions: true,
			RetransLog:      sc.RetransLog,
			TileStore:       tileCfgB,
			SendShards:      sc.SendShards,
			Stats:           r.coll,
			Now:             r.clk.Now,
			Entropy:         entropyFrom(deriveSeed(sc.Seed, "host-b-entropy")),
			RemoteTimeout:   sc.RemoteTimeout,
			MaxBacklogDwell: sc.MaxBacklogDwell,
			BacklogLimit:    sc.BacklogLimit,
			Ladder:          sc.Ladder,
			OnEvict:         func(snap ah.RemoteHealth) { r.pendingEvicts = append(r.pendingEvicts, snap) },
		})
		if err != nil {
			return nil, err
		}
		defer r.hostB.Close()
		// Floor custody: the presenter (11) holds the HID floor and a
		// participant (12) queues behind it. The post-migration release
		// proves the broker carried BOTH the grant and the queue across
		// the handoff.
		r.floor = bfcp.NewFloor(1, func(uint16, *bfcp.Message) {})
		if err := r.floor.Request(11); err != nil {
			return nil, err
		}
		if err := r.floor.Request(12); err != nil {
			return nil, err
		}
	}

	specs := append([]ViewerSpec{{Name: "_ref", Kind: KindUDP, Profile: &Profile{Name: "pristine"}}}, sc.Viewers...)
	needBus := false
	for i, vs := range specs {
		prof := sc.Profile
		if vs.Profile != nil {
			prof = *vs.Profile
		}
		pcfg := participant.Config{
			Now:     r.clk.Now,
			Entropy: entropyFrom(deriveSeed(sc.Seed, "viewer-entropy/"+vs.Name)),
		}
		// Tile-store negotiation mirrors the attach options: unicast
		// viewers that did not opt out run a dictionary sized by their
		// spec (the group remote never sends references, so multicast
		// members stay plain, and relay viewers receive the un-substituted
		// shared batch the forwarders get).
		if sc.TileStore && !vs.NoTileStore && vs.Kind != KindMulticast && !vs.ViaRelay {
			pcfg.TileStore = true
			pcfg.TileDictCapacity = vs.TileDictCapacity
		}
		v := &viewerState{
			idx:  i,
			name: vs.Name,
			spec: vs,
			prof: prof,
			kind: vs.Kind,
			p:    participant.New(pcfg),
		}
		dcfg, ucfg := prof.Down, prof.Up
		dcfg.Seed = deriveSeed(sc.Seed, "link-down/"+vs.Name)
		ucfg.Seed = deriveSeed(sc.Seed, "link-up/"+vs.Name)
		v.down = transport.NewShaper(dcfg)
		v.up = transport.NewShaper(ucfg)
		r.viewers = append(r.viewers, v)
		r.byName[vs.Name] = v
		if vs.Kind == KindMulticast {
			needBus = true
		}
	}
	if needBus {
		r.bus = transport.NewBus()
		// The tap subscribes first with a lossless link: it observes
		// exactly what the host published to the group, feeding the
		// continuity and counter oracles.
		r.tapSub = r.bus.Subscribe(transport.LinkConfig{Seed: deriveSeed(sc.Seed, "group-tap"), QueueLen: 1 << 14})
		r.group, err = r.host.AttachMulticast("group", r.bus)
		if err != nil {
			return nil, err
		}
	}

	// Main phase: impaired links, workload-driven ticks.
	for t := 0; t < sc.Ticks; t++ {
		r.runTick(t, false)
	}

	// Quiesce phase: links heal, budgets lift, held datagrams flush, and
	// a sentinel pixel keeps one packet per tick flowing so undetected
	// tail loss surfaces as a sequence gap the repair loop can NACK.
	r.bypass = true
	for _, v := range r.viewers {
		v.down.SetDown(false)
		v.up.SetDown(false)
		if v.sconn != nil {
			v.sconn.setUnlimited()
		}
	}
	r.flushHeld()
	for q := 0; q < sc.QuiesceTicks; q++ {
		r.runTick(sc.Ticks+q, true)
		if r.events.Len() == 0 && r.multicastIdle() && r.allSettled() {
			break
		}
	}

	res := &Result{Scenario: sc.String(), Seed: sc.Seed, TicksRun: r.ticksRun}
	res.QualityDemotes = r.coll.Get("QualityDemote").Messages
	res.QualityPromotes = r.coll.Get("QualityPromote").Messages
	res.QualityFlaps = r.coll.Get("QualityFlap").Messages
	r.runOracles(res)

	// Detach everything only after the oracles ran: live remotes carry
	// the counter state the checks read.
	_ = r.host.Close()
	for _, v := range r.viewers {
		if v.conn != nil {
			_ = v.conn.Close()
		}
		if v.sconn != nil {
			_ = v.sconn.Close()
		}
		if v.sub != nil {
			_ = v.sub.Close()
		}
	}
	if r.tapSub != nil {
		_ = r.tapSub.Close()
	}

	if err := r.jw.Flush(); err != nil {
		return nil, err
	}
	res.Journal, err = trace.ReadAll(bytes.NewReader(r.jbuf.Bytes()))
	if err != nil {
		return nil, err
	}
	res.Digest = trace.Digest(res.Journal)
	return res, nil
}

// runTick executes one full simulated tick: partitions and joins, one
// workload step (or the quiesce sentinel), the host Tick, TCP settling,
// multicast draining, delayed-event processing, the repair phase, and
// the journal marker.
func (r *runner) runTick(tick int, quiesce bool) {
	interval := r.sc.TickInterval
	T := r.epoch.Add(time.Duration(tick) * interval)
	r.clk.set(T)
	r.tickNo = tick
	r.ticksRun++

	if !quiesce {
		if r.brk != nil {
			r.brokerStep(tick)
		}
		for _, v := range r.viewers {
			inPart := false
			for _, w := range v.prof.Partitions {
				if w.contains(tick) {
					inPart = true
					break
				}
			}
			v.down.SetDown(inPart)
			v.up.SetDown(inPart)
		}
		// Leaves before joins: a churn tick detaches last window's
		// joiners before this window's arrive, so the fleet size stays
		// bounded at the churn plateau.
		for _, v := range r.viewers {
			if v.joined && !v.left && !v.evicted && v.spec.LeaveAtTick == tick {
				v.left = true
				_ = v.remote.Close()
				r.journal('L', v.idx, []byte(v.name))
			}
		}
		for _, v := range r.viewers {
			if !v.joined && v.spec.JoinAtTick == tick {
				if err := r.attach(v); err != nil {
					r.tickErrs = append(r.tickErrs, fmt.Sprintf("tick %d: attach %s: %v", tick, v.name, err))
				}
			}
		}
		// The workload pauses while the host is dead — a crashed process
		// generates no activity — so the last checkpoint and the desktop
		// state stay aligned and the restored session resumes exactly
		// where the failed host stopped.
		if !r.hostDead {
			r.wl.Step()
		}
	} else {
		// Sentinel: one guaranteed change per quiesce tick, so a viewer
		// missing the tail of the main phase sees a sequence jump and
		// NACKs it instead of converging on stale pixels by accident.
		r.win.Fill(region.XYWH(0, 0, 2, 2), color.RGBA{R: byte(tick), G: 0x40, B: 0x80, A: 0xFF})
	}

	if !r.hostDead {
		if err := r.host.Tick(); err != nil {
			r.tickErrs = append(r.tickErrs, fmt.Sprintf("tick %d: %v", tick, err))
		}
		r.noteEvictions()
	}
	if r.brk != nil && !quiesce {
		r.brokerBeat()
	}

	for _, v := range r.viewers {
		if v.sconn != nil && v.joined && !v.evicted && !r.bypass {
			v.sconn.grant(v.budgetAtTick(tick))
		}
	}
	for _, v := range r.viewers {
		if v.sconn != nil && v.joined {
			r.settleStream(v)
			if len(v.spec.StreamBudgetSchedule) > 0 && !r.bypass {
				// Budget-schedule conns live tick to tick: surplus from a
				// generous phase expires at the boundary so the next
				// phase's squeeze takes effect immediately and the
				// queue-empty-or-budget-zero invariant holds at the next
				// sweep.
				v.sconn.expire()
			}
		}
	}
	r.drainMulticast()

	// Delayed/jittered datagrams land through the inter-tick interval;
	// the repair phase runs at the three-quarter point, as a real repair
	// loop ticking between frames would.
	r.runEventsUntil(T.Add(interval * 3 / 4))
	r.repair(tick)
	r.runEventsUntil(T.Add(interval))

	var tb [4]byte
	binary.BigEndian.PutUint32(tb[:], uint32(tick))
	r.journal('T', 0xFF, tb[:])
}

// attach connects a viewer to the host with its kind's transport.
func (r *runner) attach(v *viewerState) error {
	tiled := r.sc.TileStore && !v.spec.NoTileStore
	switch v.kind {
	case KindUDP:
		v.conn = newSimPacketConn(r, v)
		if v.spec.ViaRelay {
			// The edge leg: the chain level (not the origin) owns this
			// viewer. A non-empty cache is served synchronously right
			// here, on the runner goroutine — the late joiner's fast
			// first paint.
			rl := r.relays[v.spec.RelayLevel]
			rv, err := rl.AttachPacketConn(v.name, v.conn)
			if err != nil {
				return err
			}
			v.rv = rv
			v.relayNode = rl
			break
		}
		rem, err := r.host.AttachPacketConn(v.name, v.conn, ah.PacketOptions{TileStore: tiled})
		if err != nil {
			return err
		}
		v.remote = rem
		if r.migrated {
			// A post-migration joiner: the ONE kind of viewer the standby
			// may serve a full refresh (see oracleMigration).
			r.freshJoinsB++
		}
	case KindTCP:
		budgeted := v.spec.StreamBudgetPerTick > 0 || len(v.spec.StreamBudgetSchedule) > 0
		v.sconn = newStreamConn(budgeted)
		rem, err := r.host.AttachStream(v.name, v.sconn, ah.StreamOptions{TileStore: tiled})
		if err != nil {
			return err
		}
		v.remote = rem
		if !budgeted {
			// The join push drains on the RatedWriter's goroutine. Until it
			// has, the host's Section 7 check in the coming Tick reads a
			// backlog that depends on scheduling, and defers or ships this
			// viewer's first batch accordingly. A budgeted conn needs no
			// wait: its writer parks on the empty budget either way.
			r.awaitStream(v)
		}
	case KindMulticast:
		cfg := v.prof.Down
		cfg.Seed = deriveSeed(r.sc.Seed, "mc-sub/"+v.name)
		cfg.QueueLen = 1 << 13
		v.sub = r.bus.Subscribe(cfg)
		v.remote = r.group
	}
	v.joined = true
	return nil
}

// noteEvictions journals the evictions the host performed during the
// just-finished Tick, in name order (the sweep iterates a map, so the
// callback order alone is not deterministic).
func (r *runner) noteEvictions() {
	if len(r.pendingEvicts) == 0 {
		return
	}
	sort.Slice(r.pendingEvicts, func(i, j int) bool { return r.pendingEvicts[i].ID < r.pendingEvicts[j].ID })
	for _, snap := range r.pendingEvicts {
		idx := 0xFF
		if v := r.byName[snap.ID]; v != nil {
			v.evicted = true
			v.evictedAt = snap.EvictedAt
			idx = v.idx
		}
		r.evictedNames = append(r.evictedNames, snap.ID)
		r.journal('E', idx, []byte(snap.ID))
	}
	r.pendingEvicts = r.pendingEvicts[:0]
}

// awaitStream waits for one TCP viewer's pipeline to reach a stable
// state. The loop polls, but only for terminal states that cannot
// regress: the host is not sending (the runner owns Tick), so either
// everything framed has been accepted and the RatedWriter is idle, or
// the drain is parked on an exhausted budget, or the conn was closed by
// an eviction.
func (r *runner) awaitStream(v *viewerState) {
	start := time.Now()
	for {
		_, _, _, closed := v.sconn.state()
		if closed {
			break
		}
		hs := v.remote.Health()
		expect := int64(hs.SentOctets) + 2*int64(hs.SentPackets)
		in, blocked, budget, closed := v.sconn.state()
		if closed {
			break
		}
		if in == expect && hs.QueuedBytes == 0 {
			break
		}
		if budget == 0 && blocked > 0 {
			break
		}
		if time.Since(start) > settleWallLimit {
			v.settleStuck = true
			break
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// settleStream lets one TCP viewer's pipeline settle and delivers the
// frames that arrived.
func (r *runner) settleStream(v *viewerState) {
	r.awaitStream(v)
	v.rxBuf = append(v.rxBuf, v.sconn.takeOut()...)
	for len(v.rxBuf) >= 2 {
		n := int(v.rxBuf[0])<<8 | int(v.rxBuf[1])
		if len(v.rxBuf) < 2+n {
			break
		}
		frame := copyOf(v.rxBuf[2 : 2+n])
		v.rxBuf = v.rxBuf[2+n:]
		v.tap = append(v.tap, copyOf(frame))
		frame = r.maybeCorrupt(v, frame)
		v.delivered++
		r.journal('D', v.idx, frame)
		r.deliverToViewer(v, frame)
	}
}

// drainMulticast empties the group tap and every subscriber of exactly
// the datagrams published so far. Publication is synchronous and the
// subscriber links are loss-only, so sent-dropped-drained is the exact
// pending count and Recv never blocks.
func (r *runner) drainMulticast() {
	if r.bus == nil {
		return
	}
	sent, dropped := r.tapSub.(subStatser).Stats()
	for pending := sent - dropped - r.tapDrained; pending > 0; pending-- {
		pkt, err := r.tapSub.Recv()
		if err != nil {
			break
		}
		r.tapDrained++
		r.groupTap = append(r.groupTap, pkt)
	}
	for _, v := range r.viewers {
		if v.kind != KindMulticast || !v.joined {
			continue
		}
		s, d := v.sub.(subStatser).Stats()
		for pending := s - d - v.mcDrained; pending > 0; pending-- {
			pkt, err := v.sub.Recv()
			if err != nil {
				break
			}
			v.mcDrained++
			pkt = r.maybeCorrupt(v, pkt)
			v.delivered++
			r.journal('D', v.idx, pkt)
			r.deliverToViewer(v, pkt)
		}
	}
}

// multicastIdle reports whether no published datagram is still waiting
// in a subscriber queue.
func (r *runner) multicastIdle() bool {
	if r.bus == nil {
		return true
	}
	sent, dropped := r.tapSub.(subStatser).Stats()
	if sent-dropped != r.tapDrained {
		return false
	}
	for _, v := range r.viewers {
		if v.kind != KindMulticast || !v.joined {
			continue
		}
		s, d := v.sub.(subStatser).Stats()
		if s-d != v.mcDrained {
			return false
		}
	}
	return true
}

// repair runs one feedback round for every live, speaking viewer at the
// current virtual instant: an RR always (the liveness heartbeat), then
// NACK and PLI for the datagram kinds that can lose packets.
func (r *runner) repair(tick int) {
	for _, v := range r.viewers {
		if !v.joined || v.left {
			continue
		}
		// FaultEvictFeedback keeps an evicted viewer's repair loop alive
		// (even one that went silent to earn the eviction): its feedback
		// lands in the mark-to-teardown window the eviction gates guard.
		evictedTalks := v.evicted && r.sc.Fault == FaultEvictFeedback
		if v.evicted && !evictedTalks {
			continue
		}
		if !evictedTalks && v.silencedAt(tick) {
			continue
		}
		if rr, err := v.p.BuildReceiverReport(); err == nil {
			r.sendUp(v, rr)
		}
		if r.sc.Fault == FaultSkipRepair || v.kind == KindTCP {
			continue
		}
		if nack, err := v.p.BuildNACK(); err == nil && nack != nil {
			r.sendUp(v, nack)
		}
		if evictedTalks && len(v.tap) > 0 {
			// The race's observable payload. An evicted viewer's trailing
			// losses are invisible to its own gap detector (nothing
			// arrives after them to expose the hole), but a real repair
			// loop learns the sender's highest sequence from SRs and
			// NACKs the tail. Play that role: NACK the last sequence the
			// host ever shipped here. It is certainly in the
			// retransmission log, so an un-gated host services it —
			// straight onto the torn-down transport.
			var hdr rtp.Header
			if _, err := hdr.Unmarshal(v.tap[len(v.tap)-1]); err == nil {
				nack, err := rtcp.Marshal(&rtcp.NACK{
					SenderSSRC: hdr.SSRC, MediaSSRC: hdr.SSRC,
					Pairs: []rtcp.NACKPair{{PID: hdr.SequenceNumber}},
				})
				if err == nil {
					r.sendUp(v, nack)
				}
			}
		}
		received, _, _, _ := v.p.Stats()
		now := r.clk.Now()
		if (v.p.NeedsRefresh() || received == 0 || evictedTalks) &&
			(v.lastPLIAt.IsZero() || now.Sub(v.lastPLIAt) >= pliHolddown) {
			if pli, err := v.p.BuildPLI(); err == nil {
				v.lastPLIAt = now
				r.sendUp(v, pli)
			}
		}
	}
}

// processEvent applies one heap event at its instant.
func (r *runner) processEvent(ev *event) {
	v := ev.v
	switch ev.kind {
	case evDeliverDown:
		pkt := r.maybeCorrupt(v, ev.pkt)
		v.delivered++
		r.journal('D', v.idx, pkt)
		r.deliverToViewer(v, pkt)
	case evDeliverUp:
		evictedTalks := v.evicted && r.sc.Fault == FaultEvictFeedback
		if (v.evicted && !evictedTalks) || v.left || (v.remote == nil && v.rv == nil) {
			r.journal('X', v.idx, []byte{1})
			return
		}
		if r.hostDead && v.rv == nil {
			// The host is dead: feedback sent into the failure window
			// vanishes, exactly as a crashed process would drop it.
			r.journal('X', v.idx, []byte{2})
			return
		}
		r.journal('U', v.idx, ev.pkt)
		if v.rv != nil {
			v.relayNode.HandleFeedback(v.rv, ev.pkt)
			return
		}
		r.host.HandleFeedback(v.remote, ev.pkt)
	case evDropDown:
		v.dropsDown++
		r.journal('X', v.idx, []byte{0})
	case evDropUp:
		r.journal('X', v.idx, []byte{1})
	}
}

// deliverToViewer demuxes one packet into the participant per RFC 5761.
func (r *runner) deliverToViewer(v *viewerState, pkt []byte) {
	if len(pkt) >= 2 && pkt[1] >= 200 && pkt[1] <= 207 {
		_, _ = v.p.HandleRTCP(pkt)
		return
	}
	_ = v.p.HandlePacket(pkt)
}

// maybeCorrupt implements FaultCorruptPayload: from the seventh
// datagram on, flip the final payload byte of everything delivered to
// the first configured viewer. The flip must be persistent — a single
// corrupted pixel would be silently overwritten by later updates to the
// same region and never reach the end-of-run oracles. The mutation-check
// test plants this fault and demands an oracle notices.
func (r *runner) maybeCorrupt(v *viewerState, pkt []byte) []byte {
	if r.sc.Fault == FaultCorruptPayload && v.idx == 1 &&
		v.delivered >= 6 && len(pkt) > 13 {
		pkt[len(pkt)-1] ^= 0x01
		r.corrupted = true
	}
	return pkt
}

// brokerStep runs the control plane's view of one tick: the scheduled
// host kill, the broker's liveness sweep while the host is dead (its
// orders drive the migration), and the post-handoff moderator action
// that probes floor custody.
func (r *runner) brokerStep(tick int) {
	if f := r.sc.Broker.FailAtTick; f > 0 && tick == f && !r.failed {
		// Hard kill: no goodbye, no flush. Close fires no sends and
		// never invokes OnEvict — the fleet and the broker just stop
		// hearing from the host.
		_ = r.host.Close()
		r.failed = true
		r.hostDead = true
		var tb [4]byte
		binary.BigEndian.PutUint32(tb[:], uint32(tick))
		r.journal('F', 0xFE, tb[:])
	}
	if r.hostDead {
		for _, order := range r.brk.Sweep() {
			r.migrate(tick, order)
		}
		return
	}
	// Two ticks after the handoff the moderator (11) releases the
	// floor: under restored custody the queued participant (12) is
	// granted; under dropped custody the release errors — the migration
	// oracle's observable for FaultDropFloorState.
	if r.migrated && !r.released && tick >= r.migratedAt+2 {
		r.released = true
		r.floorReleaseErr = r.floor.Release(11)
	}
}

// brokerBeat reports both hosts to the broker at the tick boundary.
// The active host's beat carries the full checkpoint — session
// snapshot plus floor custody; the standby's carries liveness only,
// keeping it placeable while it holds no sessions. Everything here is
// a pure read of host state, so broker custody leaves the journal of a
// failure-free run byte-identical to the broker-free run.
func (r *runner) brokerBeat() {
	if !r.failed || r.migrated {
		hostID := uint32(1)
		if r.migrated {
			hostID = 2
		}
		if err := r.beatActive(hostID); err != nil {
			r.tickErrs = append(r.tickErrs, fmt.Sprintf("tick %d: heartbeat host %d: %v", r.tickNo, hostID, err))
		}
	}
	if !r.migrated && r.hostB != nil {
		m := broker.HeartbeatFor(2, r.hostB)
		m.StreamID = 0 // no session yet: liveness only
		if err := r.brk.Heartbeat(&m, nil, nil); err != nil {
			r.tickErrs = append(r.tickErrs, fmt.Sprintf("tick %d: standby heartbeat: %v", r.tickNo, err))
		}
	}
}

// beatActive snapshots the live session and heartbeats it with floor
// custody attached.
func (r *runner) beatActive(hostID uint32) error {
	snap, err := r.host.SnapshotSession()
	if err != nil {
		return err
	}
	blob, err := snap.Marshal()
	if err != nil {
		return err
	}
	m := broker.HeartbeatFor(hostID, r.host)
	if m.StreamID == 0 {
		// The simulated session runs on wire stream id 0 (a valid id the
		// broker cannot use as a map key, since id 0 means "no session"
		// in a heartbeat). Synthesize a broker-side key in the MESSAGE
		// only: the checkpoint still carries the real stream id, so the
		// restore is wire-exact.
		m.StreamID = 1
	}
	return r.brk.Heartbeat(&m, blob, r.floor.State().Marshal())
}

// migrate applies one broker order: restore the checkpoint onto the
// standby, restore (or, under fault, lose) floor custody, re-target
// the workload at the rebuilt desktop, and resume every live viewer's
// transport on the new host — all within one virtual instant, before
// the tick's capture runs.
func (r *runner) migrate(tick int, order *broker.MigrationOrder) {
	snap, err := ah.UnmarshalSessionSnapshot(order.Checkpoint)
	if err != nil {
		r.tickErrs = append(r.tickErrs, fmt.Sprintf("tick %d: migrate: decode checkpoint: %v", tick, err))
		return
	}
	if r.sc.Fault == FaultCorruptSnapshot && len(snap.Remotes) > 0 {
		// The planted defect: one packetizer's next sequence number is
		// bumped, so the restored chain jumps — the continuity oracle
		// must notice, and the phantom gap also starves that viewer's
		// repair loop (the skipped sequence was never sent, so its NACK
		// can never be served).
		snap.Remotes[0].Packetizer.Seq++
	}
	if err := r.hostB.RestoreSession(snap); err != nil {
		r.tickErrs = append(r.tickErrs, fmt.Sprintf("tick %d: migrate: restore: %v", tick, err))
		return
	}
	if order.FloorState != nil && r.sc.Fault != FaultDropFloorState {
		fs, err := bfcp.UnmarshalFloorState(order.FloorState)
		if err != nil {
			r.tickErrs = append(r.tickErrs, fmt.Sprintf("tick %d: migrate: decode floor state: %v", tick, err))
			return
		}
		r.floor = bfcp.NewFloorFromState(fs, func(uint16, *bfcp.Message) {})
	} else {
		// Custody lost: all the destination can do is start a fresh
		// floor — no holder, no queue. The moderator's later release
		// exposes the loss.
		r.floor = bfcp.NewFloor(1, func(uint16, *bfcp.Message) {})
	}
	// RestoreSession rebuilt the desktop as a NEW object; re-resolve
	// the shared window and hand both back to the workload so its
	// generators continue on the restored surface.
	r.desk = r.hostB.Desktop()
	r.win = r.desk.Window(r.winID)
	if rb, ok := r.wl.(workload.Rebinder); ok {
		rb.Rebind(r.desk, r.win)
	}
	for _, v := range r.viewers {
		if !v.joined || v.left || v.evicted || v.conn == nil {
			continue
		}
		r.oldConns = append(r.oldConns, v.conn)
		v.conn = newSimPacketConn(r, v)
		rem, err := r.hostB.ResumePacketConn(v.name, v.conn, ah.PacketOptions{})
		if err != nil {
			r.tickErrs = append(r.tickErrs, fmt.Sprintf("tick %d: migrate: resume %s: %v", tick, v.name, err))
			continue
		}
		v.remote = rem
	}
	r.host = r.hostB
	r.hostDead = false
	r.migrated = true
	r.migratedAt = tick
	var tb [4]byte
	binary.BigEndian.PutUint32(tb[:], uint32(tick))
	r.journal('M', 0xFE, tb[:])
}

// journal appends one record: [kind][viewerIdx][payload...] at the
// current virtual instant.
func (r *runner) journal(kind byte, idx int, payload []byte) {
	rec := make([]byte, 0, 2+len(payload))
	rec = append(rec, kind, byte(idx))
	rec = append(rec, payload...)
	_ = r.jw.Record(r.clk.Now(), rec)
}
