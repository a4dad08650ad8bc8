// Package appshare is a complete Go implementation of the application
// and desktop sharing system specified in
// draft-boyaci-avt-app-sharing-00 (Boyaci & Schulzrinne, Columbia
// University): an RTP payload format with two subprotocols — the
// remoting protocol carrying screen updates from an Application Host
// (AH) to participants, and the Human Interface Protocol (HIP) carrying
// mouse and keyboard events back.
//
// The facade re-exports the building blocks a downstream user needs:
//
//   - Host (the AH): shares a virtual desktop over TCP, UDP and
//     multicast simultaneously, with PNG/JPEG content codecs, RFC 4571
//     TCP framing, RTCP PLI/NACK feedback service, backlog-aware sending
//     and optional BFCP floor control.
//   - Participant: receives and composites the shared windows under a
//     configurable layout (original, shifted or compacted coordinates —
//     the draft's Figures 3–5), detects losses, requests refreshes and
//     emits HIP events.
//   - SDP helpers for session description (draft Section 10).
//
// Quickstart (in-process, loopback TCP):
//
//	desk := appshare.NewDesktop(1280, 1024)
//	win := desk.CreateWindow(1, appshare.XYWH(100, 100, 640, 480))
//	host, _ := appshare.NewHost(appshare.HostConfig{Desktop: desk})
//	// ... attach participants, call host.Tick() per frame.
//
// See examples/ for complete programs and DESIGN.md for the system
// inventory.
package appshare

import (
	"io"

	"appshare/internal/ah"
	"appshare/internal/bfcp"
	"appshare/internal/broker"
	"appshare/internal/capture"
	"appshare/internal/codec"
	"appshare/internal/display"
	"appshare/internal/hip"
	"appshare/internal/keycodes"
	"appshare/internal/participant"
	"appshare/internal/region"
	"appshare/internal/sdp"
	"appshare/internal/stats"
	"appshare/internal/trace"
	"appshare/internal/transport"
	"appshare/internal/windows"
	"appshare/internal/workload"
)

// Re-exported core types. The aliases are the public API surface; the
// internal packages stay internal.
type (
	// Host is the Application Host: it owns the shared desktop and
	// serves participants.
	Host = ah.Host
	// HostConfig configures NewHost.
	HostConfig = ah.Config
	// Remote is one attached participant from the host's perspective.
	Remote = ah.Remote
	// StreamOptions configures Host.AttachStream.
	StreamOptions = ah.StreamOptions
	// PacketOptions configures Host.AttachPacketConn.
	PacketOptions = ah.PacketOptions
	// RemoteHealth is a liveness snapshot of one attached or recently
	// evicted remote (see Host.RemoteHealth).
	RemoteHealth = ah.RemoteHealth
	// HealthState summarises a remote (healthy / degraded / evicted); it
	// is derived from RemoteHealth.Tier and RemoteHealth.EvictReason.
	HealthState = ah.HealthState
	// LadderConfig tunes the congestion-adaptive quality ladder; assign
	// a non-nil *LadderConfig to HostConfig.Ladder to enable it (see
	// DESIGN.md "Slow viewers: quality ladder & eviction").
	LadderConfig = ah.LadderConfig
	// TileStoreConfig tunes the persistent tile store; assign a non-nil
	// *TileStoreConfig to HostConfig.TileStore to enable cross-tick
	// delta encoding for remotes that negotiate it (see DESIGN.md "Tile
	// store").
	TileStoreConfig = ah.TileStoreConfig
	// QualityTier is one rung of the per-remote quality ladder.
	QualityTier = ah.QualityTier

	// Participant is the receiving endpoint.
	Participant = participant.Participant
	// ParticipantConfig configures NewParticipant.
	ParticipantConfig = participant.Config

	// Desktop is the shared virtual desktop.
	Desktop = display.Desktop
	// Window is one window on the desktop.
	Window = display.Window
	// EventHandler is the application behavior behind a window.
	EventHandler = display.EventHandler

	// Rect is an axis-aligned pixel rectangle (origin top-left).
	Rect = region.Rect

	// CaptureOptions tunes the damage-to-messages pipeline, including
	// the parallel encode pool (EncodeWorkers) and the content-addressed
	// payload cache budget (CacheBytes).
	CaptureOptions = capture.Options
	// EncodeMetrics reports the encode pipeline's cumulative cache and
	// parallelism counters (see Host.EncodeMetrics).
	EncodeMetrics = capture.EncodeMetrics

	// Codec encodes/decodes screen regions; Registry maps RTP payload
	// types to codecs.
	Codec    = codec.Codec
	Registry = codec.Registry

	// Layout places shared windows on a participant screen.
	Layout = windows.Layout
	// OriginalLayout keeps AH coordinates (draft Figure 3).
	OriginalLayout = windows.OriginalLayout
	// ShiftLayout offsets all windows uniformly (Figure 4).
	ShiftLayout = windows.ShiftLayout
	// CompactLayout packs windows onto a small screen (Figure 5).
	CompactLayout = windows.CompactLayout

	// Floor is the BFCP HID floor of the draft's Appendix A.
	Floor = bfcp.Floor
	// HIDStatus is a Figure 20 HID permission state.
	HIDStatus = bfcp.HIDStatus
	// FloorState is a serializable snapshot of a Floor; the broker
	// holds one per session so moderation survives host churn.
	FloorState = bfcp.FloorState

	// Broker is the session placement and migration control plane (see
	// DESIGN.md "Session broker & migration" and cmd/ads-broker).
	Broker = broker.Broker
	// BrokerConfig configures NewBroker.
	BrokerConfig = broker.Config
	// BrokerHostStatus is one registered host as the broker sees it.
	BrokerHostStatus = broker.HostStatus
	// MigrationOrder re-homes one session: the broker emits it, the
	// destination host applies it with RestoreSession.
	MigrationOrder = broker.MigrationOrder
	// SessionSnapshot is a host's migratable session state
	// (Host.SnapshotSession / Host.RestoreSession).
	SessionSnapshot = ah.SessionSnapshot

	// PacketConn is the datagram transport abstraction (UDP-shaped).
	PacketConn = transport.PacketConn
	// LinkConfig shapes a simulated link (loss, reorder, delay).
	LinkConfig = transport.LinkConfig
	// Bus simulates a multicast group.
	Bus = transport.Bus

	// Stats collects per-message-type traffic counters.
	Stats = stats.Collector

	// KeyCode is a Java virtual key code (HIP KeyPressed/KeyReleased).
	KeyCode = keycodes.Code

	// Workload drives scripted desktop activity (evaluation harness).
	Workload = workload.Workload

	// SDPOffer configures session description generation (Section 10).
	SDPOffer = sdp.OfferConfig
	// SDPSession is a parsed remote session description.
	SDPSession = sdp.Session

	// TraceWriter records a session's packets for offline replay.
	TraceWriter = trace.Writer
	// TraceRecord is one replayed packet with its arrival offset.
	TraceRecord = trace.Record
)

// Mouse buttons for HIP mouse events.
const (
	ButtonLeft   = hip.ButtonLeft
	ButtonRight  = hip.ButtonRight
	ButtonMiddle = hip.ButtonMiddle
)

// HID floor states (draft Appendix A, Figure 20).
const (
	StateNotAllowed      = bfcp.StateNotAllowed
	StateKeyboardAllowed = bfcp.StateKeyboardAllowed
	StateMouseAllowed    = bfcp.StateMouseAllowed
	StateAllAllowed      = bfcp.StateAllAllowed
)

// Remote health states (see HostConfig.MaxBacklogDwell / RemoteTimeout).
const (
	HealthHealthy  = ah.HealthHealthy
	HealthDegraded = ah.HealthDegraded
	HealthEvicted  = ah.HealthEvicted
)

// Quality-ladder tiers, ordered full fidelity first (see
// HostConfig.Ladder and Remote.QualityTier).
const (
	TierFull         = ah.TierFull
	TierDecimated    = ah.TierDecimated
	TierScaled       = ah.TierScaled
	TierKeyframeOnly = ah.TierKeyframeOnly
)

// ErrHostClosed is returned by operations on a closed Host.
var ErrHostClosed = ah.ErrHostClosed

// NewDesktop returns a virtual desktop of the given pixel size.
func NewDesktop(width, height int) *Desktop { return display.NewDesktop(width, height) }

// XYWH builds a Rect from position and size.
func XYWH(left, top, width, height int) Rect { return region.XYWH(left, top, width, height) }

// NewHost returns an Application Host sharing cfg.Desktop.
func NewHost(cfg HostConfig) (*Host, error) { return ah.New(cfg) }

// NewParticipant returns a receiving endpoint.
func NewParticipant(cfg ParticipantConfig) *Participant { return participant.New(cfg) }

// NewFloor returns a BFCP HID floor for the given conference.
func NewFloor(conferenceID uint32, notify func(userID uint16, msg *bfcp.Message)) *Floor {
	return bfcp.NewFloor(conferenceID, notify)
}

// NewFloorFromState rebuilds a Floor from a snapshot — the restore
// half of floor custody across a host migration. No messages are sent
// during the rebuild.
func NewFloorFromState(s FloorState, notify func(userID uint16, msg *bfcp.Message)) *Floor {
	return bfcp.NewFloorFromState(s, notify)
}

// UnmarshalFloorState decodes a FloorState.Marshal encoding.
func UnmarshalFloorState(b []byte) (FloorState, error) { return bfcp.UnmarshalFloorState(b) }

// NewBroker returns an empty session broker.
func NewBroker(cfg BrokerConfig) *Broker { return broker.New(cfg) }

// UnmarshalSessionSnapshot decodes a SessionSnapshot.Marshal encoding
// (the checkpoint bytes a MigrationOrder carries).
func UnmarshalSessionSnapshot(b []byte) (*SessionSnapshot, error) {
	return ah.UnmarshalSessionSnapshot(b)
}

// NewStats returns an empty traffic collector.
func NewStats() *Stats { return stats.NewCollector() }

// NewBus returns a simulated multicast group.
func NewBus() *Bus { return transport.NewBus() }

// SimulatedLink returns two connected datagram endpoints with the given
// per-direction shaping — the controlled-network substitute for real UDP
// paths (see DESIGN.md).
func SimulatedLink(aToB, bToA LinkConfig) (a, b PacketConn) {
	return transport.Pipe(aToB, bToA)
}

// DefaultCodecs returns the standard codec registry: PNG (mandatory,
// lossless), JPEG (lossy) and Raw.
func DefaultCodecs() *Registry { return codec.DefaultRegistry() }

// BuildSDPOffer generates the AH's session description (Section 10.3).
func BuildSDPOffer(cfg SDPOffer) (string, error) {
	d, err := sdp.BuildOffer(cfg)
	if err != nil {
		return "", err
	}
	return d.Marshal(), nil
}

// ParseSDPOffer extracts session parameters from an SDP offer.
func ParseSDPOffer(text string) (*SDPSession, error) {
	d, err := sdp.Parse(text)
	if err != nil {
		return nil, err
	}
	return sdp.ParseOffer(d)
}

// NewTraceWriter starts recording a session trace onto w (see
// internal/trace for the format and cmd/ads-replay for playback).
func NewTraceWriter(w io.Writer) (*TraceWriter, error) { return trace.NewWriter(w) }

// ReadTrace loads a recorded session trace.
func ReadTrace(r io.Reader) ([]TraceRecord, error) { return trace.ReadAll(r) }
