// Package netsim is a seeded, deterministic network-simulation harness
// for whole sharing sessions: it drives a real ah.Host with workload
// generators, connects fleets of viewers (unicast UDP, unicast TCP,
// multicast) through rich link models (Gilbert–Elliott burst loss,
// jitter-induced reordering, duplication, rate policing, transient
// partitions), and checks machine-verified oracles at the end of every
// run — byte-identical framebuffer convergence, RTP
// sequence/timestamp monotonicity, fragment-reassembly identity, no
// traffic toward evicted remotes, and stats-counter consistency.
//
// Everything random is derived from the scenario seed: link shaping,
// RTP identifiers (SSRC, initial sequence, timestamp origin) on both
// ends, and workload content. Time is virtual — a single runner
// goroutine advances a simulated clock, so the same descriptor replays
// byte-for-byte: two runs of one scenario produce identical journals
// (see Result.Digest). A failing scenario is therefore reproducible
// from its one-line String().
package netsim

import (
	"fmt"
	"time"

	"appshare/internal/ah"
	"appshare/internal/trace"
	"appshare/internal/transport"
)

// Window is a half-open tick interval [From, To).
type Window struct {
	From, To int
}

// contains reports whether tick is inside the window.
func (w Window) contains(tick int) bool { return tick >= w.From && tick < w.To }

// Profile is a named pair of directional link models plus scheduled
// partitions. Down shapes host→viewer, Up shapes viewer→host. The
// LinkConfig Seed fields are ignored — the runner derives per-link
// seeds from the scenario seed.
type Profile struct {
	Name string
	Down transport.LinkConfig
	Up   transport.LinkConfig
	// Partitions lists tick windows during which the link black-holes
	// in both directions (a transient network partition).
	Partitions []Window
}

// ViewerKind selects the transport a viewer attaches with.
type ViewerKind int

const (
	// KindUDP is a unicast datagram viewer (AttachPacketConn): lossy
	// link, NACK/PLI repair, host-side retransmission log.
	KindUDP ViewerKind = iota
	// KindTCP is a unicast reliable-stream viewer (AttachStream): no
	// loss, but a bounded per-tick byte budget models a slow TCP path
	// and exercises the Section 7 backlog-deferral machinery.
	KindTCP
	// KindMulticast is a member of the scenario's one multicast group
	// (AttachMulticast): shared downstream, out-of-band unicast
	// feedback.
	KindMulticast
)

// String implements fmt.Stringer.
func (k ViewerKind) String() string {
	switch k {
	case KindUDP:
		return "udp"
	case KindTCP:
		return "tcp"
	case KindMulticast:
		return "mcast"
	default:
		return fmt.Sprintf("ViewerKind(%d)", int(k))
	}
}

// ViewerSpec describes one viewer in the fleet.
type ViewerSpec struct {
	// Name identifies the viewer in journals and oracle output. Must be
	// unique within the scenario; "_ref" is reserved for the built-in
	// lossless reference viewer.
	Name string
	Kind ViewerKind
	// Profile overrides the scenario's default link profile for this
	// viewer (nil = default). Multicast members may only use loss
	// models (LossRate/Burst) — their link is simulated by the
	// transport.Bus subscriber, which delivers synchronously.
	Profile *Profile
	// JoinAtTick delays the attach — a late joiner announcing itself
	// with a PLI under whatever loss the link has.
	JoinAtTick int
	// LeaveAtTick, when positive, detaches the viewer cleanly at the
	// start of that tick (UDP viewers only, and it must lie strictly
	// between JoinAtTick and the scenario's main-phase end). A leaver is
	// excluded from convergence but still audited: its tap must show
	// valid RTP and the host must never send to it after the detach.
	LeaveAtTick int
	// SilenceAfterTick, when positive, stops all feedback (RR, NACK,
	// PLI) from this tick on — the silent-death case RemoteTimeout
	// eviction exists for.
	SilenceAfterTick int
	// StreamBudgetPerTick (TCP only) bounds the bytes the simulated TCP
	// path accepts per tick; 0 = unlimited. A small budget makes the
	// host's send backlog grow deterministically.
	StreamBudgetPerTick int
	// StreamBudgetSchedule (TCP only) varies the per-tick budget over
	// the main run: each phase applies from its FromTick until the next
	// phase starts. Phases must be sorted by ascending FromTick with
	// positive budgets. Ticks before the first phase use
	// StreamBudgetPerTick. Unspent budget expires at each tick boundary
	// (see streamConn.expire), so a generous phase cannot mask a tight
	// one — this is how degrade-mid-run-then-heal links are modeled.
	StreamBudgetSchedule []BudgetPhase
	// NoTileStore opts this viewer out of tile-reference negotiation on
	// a Scenario.TileStore run: it receives plain pixel updates while
	// tiled peers in the same batch get references — the mixed-fleet
	// coverage for tileCompose.
	NoTileStore bool
	// TileDictCapacity overrides this viewer's tile dictionary capacity
	// (0 = the negotiated default). Setting it SMALLER than the host's
	// capacity deliberately desynchronizes eviction: the host references
	// tiles the viewer already evicted, and the viewer must degrade to a
	// refresh instead of painting wrong pixels (pair with
	// Expect.AllowTileDesyncs).
	TileDictCapacity int
	// ViaRelay attaches this viewer to the scenario's relay tier
	// (Scenario.Relay) instead of the origin host — the edge leg of a
	// fan-out tree. UDP only; the origin never learns the viewer
	// exists, and the relay-cascade oracle asserts its joins and PLIs
	// were absorbed at the edge.
	ViaRelay bool
	// RelayLevel selects which level of a nested relay chain a ViaRelay
	// viewer hangs off (0 = the relay directly under the origin). Must
	// be < RelaySpec.Levels.
	RelayLevel int
}

// RelaySpec configures the scenario's edge relay tier: one relay.Relay
// subscribed in-process to the origin host, re-fanning every tick's
// prepared batch to the ViaRelay viewers. The relay seeds its refresh
// cache at attach and refills it only on the RefreshEvery cadence, so
// the relay-cascade oracle can assert the exact origin refresh count.
type RelaySpec struct {
	// RefreshEvery is the cache-refill cadence in forwarded batches
	// (default 8) — the ONLY path relay activity may generate origin
	// refresh work on.
	RefreshEvery int
	// MinRefreshInterval rate-limits per-viewer cache serves (0 = the
	// relay default 500ms; negative disables, serving every PLI from
	// the cache).
	MinRefreshInterval time.Duration
	// Levels is the depth of the relay chain under the origin (default
	// 1, the historical single-relay tier; max 4). Level k's relay
	// subscribes to level k-1's, so a 2-level chain is origin → R0 → R1
	// with viewers attachable at either level via ViewerSpec.RelayLevel.
	// All levels share RefreshEvery/MinRefreshInterval.
	Levels int
}

// BrokerSpec puts the run under session-broker custody: the runner
// stands up a broker.Broker plus a registered standby host, heartbeats
// the live host's checkpoint (session snapshot + BFCP floor state) to
// the broker every tick, and — when FailAtTick fires — hard-kills the
// live host mid-run. The broker's liveness sweep detects the silence,
// emits a migration order, and the runner restores the checkpoint onto
// the standby, resumes every viewer's transport there, and lets the
// same workload/oracle machinery prove the handoff was seamless.
type BrokerSpec struct {
	// FailAtTick, when positive, hard-kills the live host at the start
	// of that tick: no goodbye, no flush — conns close, heartbeats
	// stop. Zero runs the whole scenario under broker custody without a
	// failure (the survivor baseline: the journal must be byte-identical
	// to the broker-free run).
	FailAtTick int
	// DetectAfterTicks is the broker's failure-detection horizon in
	// missed heartbeats (default 2): the heartbeat timeout is set to
	// (DetectAfterTicks + ½)·TickInterval, so the sweep declares the
	// host dead — and migration fires — exactly DetectAfterTicks ticks
	// after FailAtTick.
	DetectAfterTicks int
}

// detectAfter returns the failure-detection horizon with the default
// applied. A method rather than an applyDefaults mutation: BrokerSpec
// is shared by pointer between scenario values, and defaulting in
// place would leak across runs (cf. simLadder).
func (b *BrokerSpec) detectAfter() int {
	if b.DetectAfterTicks <= 0 {
		return 2
	}
	return b.DetectAfterTicks
}

// BudgetPhase is one step of a TCP viewer's budget schedule.
type BudgetPhase struct {
	// FromTick is the first tick this budget applies to.
	FromTick int
	// Budget is the per-tick byte budget during the phase (> 0).
	Budget int
}

// Fault is a deliberately seeded defect for oracle mutation checks: a
// harness whose oracles cannot catch a planted fault proves nothing.
type Fault int

const (
	// FaultNone runs the scenario unmodified.
	FaultNone Fault = iota
	// FaultCorruptPayload flips one bit in one delivered datagram's
	// payload — the convergence or reassembly oracle must notice.
	FaultCorruptPayload
	// FaultSkipRepair suppresses viewer NACKs and PLIs — under loss the
	// convergence oracle must notice the unrepaired gaps.
	FaultSkipRepair
	// FaultEvictFeedback re-plants the refresh-phase eviction race: the
	// host's eviction gates are disabled (ah.Config.DebugDisableEvictGates)
	// and evicted viewers keep their repair loops talking, so feedback
	// lands in the window between the sweep's mark and the sink
	// teardown. The evictions oracle must notice the post-eviction
	// service.
	FaultEvictFeedback
	// FaultCorruptSnapshot perturbs the migration checkpoint before the
	// standby host restores it (one packetizer's next sequence number is
	// bumped) — the rtp-continuity or convergence oracle must notice the
	// discontinuity. Requires Scenario.Broker with FailAtTick > 0.
	FaultCorruptSnapshot
	// FaultDropFloorState discards the broker-held BFCP floor state at
	// migration, restoring the session with a fresh floor — the
	// migration oracle must notice the lost grant/queue custody.
	// Requires Scenario.Broker with FailAtTick > 0.
	FaultDropFloorState
)

// Expectations declares the intended end state, so policy actions
// (evictions) are asserted rather than tolerated.
type Expectations struct {
	// Evicted lists viewer names that MUST be evicted by the end of the
	// run; any other eviction (or a missing one) fails the eviction
	// oracle. Evicted viewers are excluded from convergence.
	Evicted []string
	// AllowDroppedMessages permits viewers to report reassembly drops
	// (scenarios that overflow queues on purpose). Default false: every
	// fragment train must reassemble.
	AllowDroppedMessages bool
	// AllowTileDesyncs permits viewers to hit unresolvable tile
	// references (capacity-skew or loss scenarios that provoke them on
	// purpose). Default false: a tile desync on any viewer fails the
	// tile-sync oracle — the host/viewer dictionaries must stay in
	// lockstep.
	AllowTileDesyncs bool
	// MinTileRefs is the minimum number of TileReference messages the
	// host must have substituted across the whole fleet — the proof that
	// a tile-store scenario actually exercised the reference path rather
	// than silently shipping pixels.
	MinTileRefs uint64
	// MinRelayAbsorbed is the minimum number of edge events (cache
	// serves plus rate-limited PLI absorptions) the relay tier must have
	// handled — the proof a relay scenario actually exercised the
	// absorption path rather than running an idle relay. Requires
	// Scenario.Relay.
	MinRelayAbsorbed uint64
}

// Scenario is one reproducible simulation: workload × link profile ×
// viewer fleet × host policy, plus the expected outcome.
type Scenario struct {
	Name string
	// Seed derives every random source in the run. Zero means 1.
	Seed int64
	// Ticks is the number of workload-driven capture ticks (default 30).
	Ticks int
	// TickInterval is the virtual time between ticks (default 40ms).
	TickInterval time.Duration
	// Workload names a workload.ByName generator (default "typing").
	Workload string
	// Profile is the default link profile for viewers without overrides.
	Profile Profile
	// Viewers is the fleet. A lossless UDP reference viewer "_ref" is
	// always added by the runner.
	Viewers []ViewerSpec
	// Relay, when non-nil, stands up the edge relay tier the ViaRelay
	// viewers attach through (see RelaySpec).
	Relay *RelaySpec
	// Broker, when non-nil, runs the scenario under session-broker
	// custody with a standby host and (if FailAtTick > 0) a live host
	// migration mid-run (see BrokerSpec). Incompatible with Relay,
	// TCP/multicast viewers and LeaveAtTick.
	Broker *BrokerSpec

	// Host policy knobs (zero values keep the ah defaults).
	RemoteTimeout   time.Duration
	MaxBacklogDwell time.Duration
	BacklogLimit    int
	// Ladder, when non-nil, enables the host's congestion-adaptive
	// quality ladder (ah.Config.Ladder) with these knobs. Simulations
	// use thresholds scaled to TickInterval, far tighter than the
	// wall-clock library defaults.
	Ladder *ah.LadderConfig

	// QuiesceTicks bounds the lossless settle phase appended after the
	// main run (default 80): links heal, the workload freezes (except a
	// per-tick sentinel pixel that exposes undetected tail loss), and
	// repair runs until every viewer converges or the budget is spent.
	QuiesceTicks int

	// SendShards sets ah.Config.SendShards: 0 = GOMAXPROCS shards,
	// 1 = the pre-sharding single-lock send path. Journals must be
	// byte-identical across shard counts (see the storm tests).
	SendShards int
	// DesktopW/DesktopH size the simulated desktop (default 320x240;
	// the shared window is inset by a fixed 64x48 margin, so defaults
	// reproduce the historical 256x192 window exactly). Storm scenarios
	// shrink the desktop so thousand-viewer fleets stay affordable.
	DesktopW, DesktopH int
	// RetransLog sets ah.Config.RetransLog (default 16384). Storm
	// scenarios use smaller logs: per-remote retransmission state is a
	// real memory cost at flash-crowd scale.
	RetransLog int
	// TileStore enables the host's persistent tile store (default
	// negotiated tile size/capacity) and negotiates it for every viewer
	// that does not set NoTileStore. Off by default: legacy scenarios
	// must stay byte-identical to the pre-tile-store harness.
	TileStore bool

	Fault  Fault
	Expect Expectations
}

// String returns the one-line replay descriptor.
func (s Scenario) String() string {
	return fmt.Sprintf("scenario=%s seed=%d ticks=%d interval=%s workload=%s profile=%s viewers=%d",
		s.Name, s.Seed, s.Ticks, s.TickInterval, s.Workload, s.Profile.Name, len(s.Viewers))
}

// OracleResult is the outcome of one end-of-run invariant check.
type OracleResult struct {
	// Name identifies the oracle: convergence, rtp-continuity,
	// reassembly, evictions, counters.
	Name string
	// Passed reports whether the invariant held.
	Passed bool
	// Detail explains a failure (empty on pass).
	Detail string
}

// Result is the outcome of one scenario run.
type Result struct {
	// Scenario is the replay descriptor of the run.
	Scenario string
	// Seed is the effective seed (after defaulting).
	Seed int64
	// Journal is the full deterministic event journal (trace records).
	Journal []trace.Record
	// Digest fingerprints the journal; equal seeds must yield equal
	// digests.
	Digest string
	// Oracles holds every invariant check that ran.
	Oracles []OracleResult
	// TicksRun counts main + quiesce ticks actually executed.
	TicksRun int
	// QualityDemotes, QualityPromotes and QualityFlaps are the host's
	// quality-ladder transition counts for the whole run (zero when the
	// ladder is disabled) — the observables the ladder scenarios assert
	// on.
	QualityDemotes, QualityPromotes, QualityFlaps uint64
}

// Passed reports whether every oracle held.
func (r *Result) Passed() bool {
	for _, o := range r.Oracles {
		if !o.Passed {
			return false
		}
	}
	return true
}

// Failures returns the failed oracles' "name: detail" lines.
func (r *Result) Failures() []string {
	var out []string
	for _, o := range r.Oracles {
		if !o.Passed {
			out = append(out, o.Name+": "+o.Detail)
		}
	}
	return out
}

// Matrix returns the curated scenario matrix wired into ci.sh and
// `ads-bench -scenarios`: every link pathology the PAPERS.md simulation
// studies flag as regression-prone, each with the viewer fleet that
// makes it bite. Seeds are fixed so CI journals are stable; Run replays
// any of them with a different seed via the Seed field.
func Matrix() []Scenario {
	ge := &transport.BurstLoss{PEnterBad: 0.05, PExitBad: 0.25, LossGood: 0, LossBad: 0.9}
	return []Scenario{
		{
			Name: "pristine", Seed: SeedMatrixBase, Workload: "typing",
			Profile: Profile{Name: "pristine"},
			Viewers: []ViewerSpec{
				{Name: "u1", Kind: KindUDP},
				{Name: "u2", Kind: KindUDP},
				{Name: "t1", Kind: KindTCP},
			},
		},
		{
			Name: "uniform-loss-5", Seed: SeedMatrixBase + 1, Workload: "typing",
			Profile: Profile{Name: "loss5", Down: transport.LinkConfig{LossRate: 0.05}},
			Viewers: []ViewerSpec{
				{Name: "u1", Kind: KindUDP},
				{Name: "u2", Kind: KindUDP},
			},
		},
		{
			Name: "uniform-loss-20", Seed: SeedMatrixBase + 2, Workload: "scrolling",
			Profile: Profile{
				Name: "loss20",
				Down: transport.LinkConfig{LossRate: 0.20},
				Up:   transport.LinkConfig{LossRate: 0.05},
			},
			Viewers: []ViewerSpec{{Name: "u1", Kind: KindUDP}},
		},
		{
			Name: "burst-ge", Seed: SeedMatrixBase + 3, Workload: "typing",
			Profile: Profile{Name: "burst-ge", Down: transport.LinkConfig{Burst: ge}},
			Viewers: []ViewerSpec{
				{Name: "u1", Kind: KindUDP},
				{Name: "u2", Kind: KindUDP},
			},
		},
		{
			Name: "jitter-reorder", Seed: SeedMatrixBase + 4, Workload: "typing",
			Profile: Profile{
				Name: "jitter",
				Down: transport.LinkConfig{Delay: 5 * time.Millisecond, Jitter: 60 * time.Millisecond, ReorderRate: 0.10},
			},
			Viewers: []ViewerSpec{{Name: "u1", Kind: KindUDP}},
		},
		{
			Name: "burst-jitter", Seed: SeedMatrixBase + 5, Workload: "scrolling",
			Profile: Profile{
				Name: "burst-jitter",
				Down: transport.LinkConfig{Burst: ge, Delay: 5 * time.Millisecond, Jitter: 40 * time.Millisecond},
			},
			Viewers: []ViewerSpec{{Name: "u1", Kind: KindUDP}},
		},
		{
			Name: "duplication", Seed: SeedMatrixBase + 6, Workload: "typing",
			Profile: Profile{
				Name: "dup",
				Down: transport.LinkConfig{DuplicateRate: 0.20, LossRate: 0.05},
			},
			Viewers: []ViewerSpec{{Name: "u1", Kind: KindUDP}},
		},
		{
			Name: "rate-police", Seed: SeedMatrixBase + 7, Workload: "slideshow",
			Profile: Profile{
				Name: "police",
				Down: transport.LinkConfig{BytesPerSecond: 256 << 10, BurstBytes: 24 << 10},
			},
			Viewers: []ViewerSpec{{Name: "u1", Kind: KindUDP}},
		},
		{
			Name: "partition-heal", Seed: SeedMatrixBase + 8, Workload: "typing",
			Profile: Profile{
				Name:       "partition",
				Partitions: []Window{{From: 10, To: 18}},
			},
			Viewers: []ViewerSpec{
				{Name: "u1", Kind: KindUDP},
				{Name: "u2", Kind: KindUDP},
			},
		},
		{
			Name: "late-join-loss", Seed: SeedMatrixBase + 9, Workload: "typing",
			Profile: Profile{Name: "loss10", Down: transport.LinkConfig{LossRate: 0.10}},
			Viewers: []ViewerSpec{
				{Name: "early", Kind: KindUDP},
				{Name: "late", Kind: KindUDP, JoinAtTick: 15},
			},
		},
		{
			Name: "evict-mid-burst", Seed: SeedMatrixBase + 10, Workload: "typing",
			Profile: Profile{Name: "burst-ge", Down: transport.LinkConfig{Burst: ge}},
			Viewers: []ViewerSpec{
				{Name: "mute", Kind: KindUDP, SilenceAfterTick: 4},
				{Name: "obs", Kind: KindUDP},
			},
			RemoteTimeout: 400 * time.Millisecond,
			Expect:        Expectations{Evicted: []string{"mute"}},
		},
		{
			Name: "tcp-backlog", Seed: SeedMatrixBase + 11, Workload: "slideshow",
			Profile: Profile{Name: "pristine"},
			Viewers: []ViewerSpec{
				{Name: "slow", Kind: KindTCP, StreamBudgetPerTick: 800},
				{Name: "fast", Kind: KindTCP},
			},
			BacklogLimit:    4 << 10,
			MaxBacklogDwell: 320 * time.Millisecond,
			Expect:          Expectations{Evicted: []string{"slow"}},
		},
		{
			Name: "ladder-degrade-heal", Seed: SeedMatrixBase + 13, Workload: "slideshow",
			Profile: Profile{Name: "pristine"},
			Ticks:   48,
			Viewers: []ViewerSpec{
				{Name: "obs", Kind: KindUDP},
				{Name: "squeezed", Kind: KindTCP, StreamBudgetSchedule: []BudgetPhase{
					{FromTick: 0, Budget: 1 << 20},  // ample: full fidelity
					{FromTick: 12, Budget: 700},     // mid-run squeeze
					{FromTick: 34, Budget: 1 << 20}, // heal
				}},
			},
			BacklogLimit: 4 << 10,
			Ladder:       simLadder(),
		},
		{
			Name: "ladder-flap", Seed: SeedMatrixBase + 14, Workload: "slideshow",
			Profile: Profile{Name: "pristine"},
			Ticks:   44,
			Viewers: []ViewerSpec{
				{Name: "obs", Kind: KindUDP},
				{Name: "flappy", Kind: KindTCP, StreamBudgetSchedule: []BudgetPhase{
					{FromTick: 0, Budget: 1 << 20},
					{FromTick: 8, Budget: 700},
					{FromTick: 14, Budget: 1 << 20},
					{FromTick: 20, Budget: 700},
					{FromTick: 26, Budget: 1 << 20},
					{FromTick: 32, Budget: 700},
					{FromTick: 38, Budget: 1 << 20},
				}},
			},
			BacklogLimit: 4 << 10,
			Ladder:       simLadder(),
		},
		{
			// Slide-revisit with the tile store on: by the second lap of
			// the 4-slide cycle every viewer (UDP and TCP) must be served
			// TileReference substitutions, and the fleet must stay
			// desync-free and byte-converged.
			Name: "tile-revisit", Seed: SeedTileBase, Workload: "slidecycle",
			TileStore: true,
			Profile:   Profile{Name: "pristine"},
			Viewers: []ViewerSpec{
				{Name: "u1", Kind: KindUDP},
				{Name: "t1", Kind: KindTCP},
			},
			Expect: Expectations{MinTileRefs: 4},
		},
		{
			// Page-flip with a mixed fleet: a tiled viewer, a viewer that
			// did not negotiate the capability (plain pixels from the same
			// prepared batch), and a tiled late joiner whose seen-set
			// starts from its join refresh.
			Name: "tile-mixed-fleet", Seed: SeedTileBase + 1, Workload: "pageflip",
			TileStore: true,
			Profile:   Profile{Name: "pristine"},
			Viewers: []ViewerSpec{
				{Name: "tiled", Kind: KindUDP},
				{Name: "plain", Kind: KindUDP, NoTileStore: true},
				{Name: "late", Kind: KindUDP, JoinAtTick: 12},
			},
			Expect: Expectations{MinTileRefs: 8},
		},
		{
			// Revisit under 10% loss: a lost pixel update means the viewer
			// never learned its tiles, so a later reference may be
			// unresolvable — the viewer must degrade to a refresh (counted
			// as a desync, never a wrong paint) and still end
			// byte-identical.
			Name: "tile-revisit-loss", Seed: SeedTileBase + 2, Workload: "slidecycle",
			TileStore: true,
			Profile:   Profile{Name: "loss10", Down: transport.LinkConfig{LossRate: 0.10}},
			Viewers:   []ViewerSpec{{Name: "u1", Kind: KindUDP}},
			Expect:    Expectations{AllowTileDesyncs: true, MinTileRefs: 1},
		},
		{
			// Eviction-coherence: the squeezed viewer's dictionary holds 8
			// tiles against the host's default thousands, so the host
			// constantly references tiles the viewer already evicted.
			// Every such reference must turn into a refresh, and both the
			// squeezed viewer and the healthy observer must converge.
			Name: "tile-evict-coherence", Seed: SeedTileBase + 3, Workload: "pageflip",
			TileStore: true,
			Profile:   Profile{Name: "pristine"},
			Viewers: []ViewerSpec{
				{Name: "squeezed", Kind: KindUDP, TileDictCapacity: 8},
				{Name: "obs", Kind: KindUDP},
			},
			Expect: Expectations{AllowTileDesyncs: true, MinTileRefs: 4},
		},
		{
			// 2-level fan-out tree: origin → relay → edge fleet. The lossy
			// edge viewers run their whole repair loop (NACK, PLI) against
			// the relay, and a late joiner is painted from the relay's
			// cached snapshot — the origin never hears about any of it. The
			// relay-cascade oracle asserts the origin served exactly the
			// seed refresh plus the cadence refills, i.e. zero refresh
			// encodes triggered by edge events.
			Name: "relay-tree", Seed: SeedTileBase + 4, Workload: "typing",
			Ticks:   36,
			Profile: Profile{Name: "pristine"},
			Relay:   &RelaySpec{RefreshEvery: 6, MinRefreshInterval: 1200 * time.Millisecond},
			Viewers: []ViewerSpec{
				{Name: "obs", Kind: KindUDP},
				{Name: "e1", Kind: KindUDP, ViaRelay: true},
				{Name: "e2", Kind: KindUDP, ViaRelay: true,
					Profile: &Profile{Name: "loss10", Down: transport.LinkConfig{LossRate: 0.10}}},
				{Name: "e3", Kind: KindUDP, ViaRelay: true,
					Profile: &Profile{Name: "burst-ge", Down: transport.LinkConfig{Burst: ge}}},
				{Name: "late", Kind: KindUDP, ViaRelay: true, JoinAtTick: 18,
					// Heavy loss right at the join: the cache serve's first
					// paint is likely eaten, so the joiner PLIs into the
					// relay's rate-limit window — the absorbed-PLI path.
					Profile: &Profile{Name: "loss70", Down: transport.LinkConfig{LossRate: 0.70}}},
			},
			// Seed 134 deterministically yields 6 cache serves + 4
			// rate-limited PLI absorptions; the floor leaves headroom for
			// benign reseeding while still proving both paths ran.
			Expect: Expectations{MinRelayAbsorbed: 8},
		},
		{
			// 3-level fan-out tree: origin → R0 → R1 → edge fleet, with a
			// mid-tier viewer on R0 and the lossy edge on R1. Each level
			// must absorb its own children's refresh work: the per-level
			// cascade oracle asserts R1's batches equal R0's, R1's cache
			// refills stay within R0's refills plus R1's own cadence
			// requests, and the origin still serves only seed + cadence
			// refreshes — edge churn two hops down never reaches it.
			Name: "relay-tree-nested", Seed: SeedNestedRelayTree, Workload: "typing",
			Ticks:   36,
			Profile: Profile{Name: "pristine"},
			Relay:   &RelaySpec{Levels: 2, RefreshEvery: 6, MinRefreshInterval: 1200 * time.Millisecond},
			Viewers: []ViewerSpec{
				{Name: "obs", Kind: KindUDP},
				{Name: "m1", Kind: KindUDP, ViaRelay: true},
				{Name: "e1", Kind: KindUDP, ViaRelay: true, RelayLevel: 1},
				{Name: "e2", Kind: KindUDP, ViaRelay: true, RelayLevel: 1,
					Profile: &Profile{Name: "loss10", Down: transport.LinkConfig{LossRate: 0.10}}},
				{Name: "e3", Kind: KindUDP, ViaRelay: true, RelayLevel: 1,
					Profile: &Profile{Name: "burst-ge", Down: transport.LinkConfig{Burst: ge}}},
				{Name: "late", Kind: KindUDP, ViaRelay: true, RelayLevel: 1, JoinAtTick: 18,
					Profile: &Profile{Name: "loss70", Down: transport.LinkConfig{LossRate: 0.70}}},
			},
			// Seed 135 deterministically yields 7 cache serves (each
			// tier's latched serves plus the late joiner's replay paints);
			// the floor leaves headroom for benign reseeding while still
			// proving the edge tiers, not the origin, ate the churn.
			Expect: Expectations{MinRelayAbsorbed: 6},
		},
		{
			Name: "multicast-nack", Seed: SeedMatrixBase + 12, Workload: "typing",
			Profile: Profile{Name: "pristine"},
			Viewers: []ViewerSpec{
				{Name: "mc-good", Kind: KindMulticast},
				{Name: "mc-lossy", Kind: KindMulticast,
					Profile: &Profile{Name: "mc-burst", Down: transport.LinkConfig{Burst: ge}}},
			},
		},
	}
}

// simLadder returns the quality-ladder knobs the ladder scenarios use:
// thresholds scaled to the 40ms tick (demote after 3 congested sweeps,
// promote after 6 clean ones) so the controller acts within a short
// simulated run. Fresh per call — ah.New copies the config, but matrix
// entries must never share mutable state.
func simLadder() *ah.LadderConfig {
	return &ah.LadderConfig{
		DemoteAfter:    120 * time.Millisecond,
		PromoteAfter:   240 * time.Millisecond,
		MinTierDwell:   80 * time.Millisecond,
		FlapWindow:     640 * time.Millisecond,
		MaxPromoteWait: 2 * time.Second,
		DecimateEvery:  3,
		ScaleBlock:     4,
	}
}

// Storms returns the flash-crowd-scale stress scenarios that exercise
// the sharded send path. They live outside Matrix() — the matrix is the
// per-pathology link suite; these are population-scale loads (hundreds
// to a thousand remotes) with their own CI gate. All three shrink the
// desktop so the per-viewer convergence oracles stay affordable at
// fleet scale, and all three are shard-count-invariant: the same seed
// must produce the same journal digest with SendShards 1 or N.
func Storms() []Scenario {
	crowd := func(n, join, leave int, prefix string) []ViewerSpec {
		specs := make([]ViewerSpec, 0, n)
		for i := 0; i < n; i++ {
			specs = append(specs, ViewerSpec{
				Name:        fmt.Sprintf("%s%04d", prefix, i),
				Kind:        KindUDP,
				JoinAtTick:  join,
				LeaveAtTick: leave,
			})
		}
		return specs
	}
	flash := Scenario{
		// 1000 UDP viewers all joining in ONE tick: the attach path,
		// the PLI-refresh latch and the refresh fan-out all spike at
		// once. Pristine links keep the run about scale, not repair.
		Name: "flash-crowd", Seed: SeedStormBase, Workload: "typing",
		Ticks: 8, DesktopW: 128, DesktopH: 96, RetransLog: 2048,
		Profile: Profile{Name: "pristine"},
		Viewers: crowd(1000, 2, 0, "v"),
	}
	// Churn storm: 4 attaches and 4 detaches per 40ms tick — 100 Hz
	// each way — sustained for 30 ticks, with stable observers that
	// must converge as if the churn never happened.
	churn := Scenario{
		Name: "churn-storm", Seed: SeedStormBase + 1, Workload: "typing",
		Ticks: 34, DesktopW: 128, DesktopH: 96, RetransLog: 2048,
		Profile: Profile{Name: "pristine"},
		Viewers: []ViewerSpec{
			{Name: "obs-udp", Kind: KindUDP},
			{Name: "obs-tcp", Kind: KindTCP},
		},
	}
	for t := 1; t <= 30; t++ {
		for j := 0; j < 4; j++ {
			churn.Viewers = append(churn.Viewers, ViewerSpec{
				Name:        fmt.Sprintf("c%02d-%d", t, j),
				Kind:        KindUDP,
				JoinAtTick:  t,
				LeaveAtTick: t + 3,
			})
		}
	}
	nack := Scenario{
		// NACK storm: 1000 lossy UDP viewers each running the full
		// NACK/PLI repair loop. Every repair lands on one remote's
		// shard; the oracles demand all 1000 still converge.
		Name: "nack-storm", Seed: SeedStormBase + 2, Workload: "typing",
		Ticks: 6, DesktopW: 128, DesktopH: 96, RetransLog: 4096,
		Profile: Profile{Name: "loss5", Down: transport.LinkConfig{LossRate: 0.05}},
		Viewers: crowd(1000, 0, 0, "n"),
	}
	return []Scenario{flash, churn, nack}
}

// MigrationFamily returns the partition-then-migrate broker suite:
// every scenario runs under broker custody (heartbeats carrying the
// live checkpoint every tick) and — except the survivor baseline — hard
// kills the live host mid-run, so the broker's sweep re-homes the
// session onto the standby and every viewer's transport is resumed
// there. The suite varies what the handoff must survive: link
// pathology in flight, tile-store seen-sets, viewer partitions spanning
// the failure, late joiners on the restored host, evictions that fire
// post-migration, sharded send paths, and tight detection horizons.
func MigrationFamily() []Scenario {
	ge := &transport.BurstLoss{PEnterBad: 0.05, PExitBad: 0.25, LossGood: 0, LossBad: 0.9}
	return []Scenario{
		{
			// The clean handoff: three healthy viewers, host dies at tick
			// 10, broker detects after 2 silent ticks, everyone resumes on
			// the standby and converges.
			Name: "migrate-pristine", Seed: SeedMigrationBase, Workload: "typing",
			Ticks:   26,
			Profile: Profile{Name: "pristine"},
			Broker:  &BrokerSpec{FailAtTick: 10},
			Viewers: []ViewerSpec{
				{Name: "u1", Kind: KindUDP},
				{Name: "u2", Kind: KindUDP},
				{Name: "u3", Kind: KindUDP},
			},
		},
		{
			// Loss in flight across the failure: packets the dead host sent
			// are still dropping when the standby takes over, and the
			// restored retransmission log must serve the repairs.
			Name: "migrate-loss5", Seed: SeedMigrationBase + 1, Workload: "typing",
			Ticks:   28,
			Profile: Profile{Name: "loss5", Down: transport.LinkConfig{LossRate: 0.05}},
			Broker:  &BrokerSpec{FailAtTick: 12},
			Viewers: []ViewerSpec{
				{Name: "u1", Kind: KindUDP},
				{Name: "u2", Kind: KindUDP},
			},
		},
		{
			// Tile-store custody: by the failure the viewers' dictionaries
			// hold a full slide cycle; the restored host must keep issuing
			// TileReferences against the carried-over seen-sets — the
			// migration oracle separately demands zero full refreshes for
			// resumed viewers.
			Name: "migrate-tiles", Seed: SeedMigrationBase + 2, Workload: "slidecycle",
			Ticks:     30,
			TileStore: true,
			Profile:   Profile{Name: "pristine"},
			Broker:    &BrokerSpec{FailAtTick: 14},
			Viewers: []ViewerSpec{
				{Name: "u1", Kind: KindUDP},
				{Name: "u2", Kind: KindUDP, JoinAtTick: 6},
			},
			Expect: Expectations{MinTileRefs: 4},
		},
		{
			// A viewer joins AFTER the migration: the standby host serves
			// its one allowed join refresh while the resumed viewers get
			// none — the oracle distinguishes the two.
			Name: "migrate-late-join", Seed: SeedMigrationBase + 3, Workload: "typing",
			Ticks:   28,
			Profile: Profile{Name: "pristine"},
			Broker:  &BrokerSpec{FailAtTick: 10},
			Viewers: []ViewerSpec{
				{Name: "u1", Kind: KindUDP},
				{Name: "late", Kind: KindUDP, JoinAtTick: 15},
			},
		},
		{
			// A viewer partition spanning the failure: u1 is black-holed
			// ticks 8–16, so it misses the death AND the handoff entirely,
			// then repairs everything from the standby's restored log.
			Name: "migrate-viewer-partition", Seed: SeedMigrationBase + 4, Workload: "typing",
			Ticks:   30,
			Profile: Profile{Name: "pristine"},
			Broker:  &BrokerSpec{FailAtTick: 10},
			Viewers: []ViewerSpec{
				{Name: "u1", Kind: KindUDP,
					Profile: &Profile{Name: "partition", Partitions: []Window{{From: 8, To: 16}}}},
				{Name: "u2", Kind: KindUDP},
			},
		},
		{
			// Burst loss on a scrolling workload: the Gilbert–Elliott bad
			// state eats whole fragment trains around the handoff.
			Name: "migrate-burst", Seed: SeedMigrationBase + 5, Workload: "scrolling",
			Ticks:   28,
			Profile: Profile{Name: "burst-ge", Down: transport.LinkConfig{Burst: ge}},
			Broker:  &BrokerSpec{FailAtTick: 10},
			Viewers: []ViewerSpec{
				{Name: "u1", Kind: KindUDP},
				{Name: "u2", Kind: KindUDP},
			},
		},
		{
			// Eviction custody: mute goes silent at tick 8, the host dies
			// at 10, and the RemoteTimeout sweep that evicts mute fires on
			// the STANDBY — last-heard clocks must survive the checkpoint.
			Name: "migrate-evict-on-b", Seed: SeedMigrationBase + 6, Workload: "typing",
			Ticks:   30,
			Profile: Profile{Name: "pristine"},
			Broker:  &BrokerSpec{FailAtTick: 10},
			Viewers: []ViewerSpec{
				{Name: "mute", Kind: KindUDP, SilenceAfterTick: 8},
				{Name: "obs", Kind: KindUDP},
			},
			RemoteTimeout: 400 * time.Millisecond,
			Expect:        Expectations{Evicted: []string{"mute"}},
		},
		{
			// Jitter and reordering in flight across the failure: packets
			// from the dead host arrive interleaved with the standby's.
			Name: "migrate-jitter", Seed: SeedMigrationBase + 7, Workload: "typing",
			Ticks: 28,
			Profile: Profile{
				Name: "jitter",
				Down: transport.LinkConfig{Delay: 5 * time.Millisecond, Jitter: 60 * time.Millisecond, ReorderRate: 0.10},
			},
			Broker:  &BrokerSpec{FailAtTick: 10},
			Viewers: []ViewerSpec{{Name: "u1", Kind: KindUDP}},
		},
		{
			// Early failure, slow detection: the session is barely warm
			// when the host dies, and the broker waits 3 silent ticks.
			Name: "migrate-early-d3", Seed: SeedMigrationBase + 8, Workload: "typing",
			Ticks:   24,
			Profile: Profile{Name: "loss5", Down: transport.LinkConfig{LossRate: 0.05}},
			Broker:  &BrokerSpec{FailAtTick: 4, DetectAfterTicks: 3},
			Viewers: []ViewerSpec{
				{Name: "u1", Kind: KindUDP},
				{Name: "u2", Kind: KindUDP},
			},
		},
		{
			// Sharded send path + tile store: the checkpoint carries the
			// next-shard cursor, so the standby's 4-shard rotation
			// continues exactly where the dead host's stopped.
			Name: "migrate-shards", Seed: SeedMigrationEnd, Workload: "pageflip",
			Ticks:      30,
			TileStore:  true,
			SendShards: 4,
			Profile:    Profile{Name: "pristine"},
			Broker:     &BrokerSpec{FailAtTick: 12},
			Viewers: []ViewerSpec{
				{Name: "u1", Kind: KindUDP},
				{Name: "u2", Kind: KindUDP},
				{Name: "u3", Kind: KindUDP},
			},
			Expect: Expectations{MinTileRefs: 4},
		},
	}
}

// ByName returns the matrix, storm or migration scenario with the
// given name.
func ByName(name string) (Scenario, error) {
	all := append(Matrix(), Storms()...)
	all = append(all, MigrationFamily()...)
	for _, sc := range all {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("netsim: unknown scenario %q", name)
}
