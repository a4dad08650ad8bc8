package ah

import (
	"fmt"

	"appshare/internal/hip"
	"appshare/internal/rtcp"
	"appshare/internal/rtp"
	"appshare/internal/windows"
)

// handleIncoming demuxes one packet from a participant: RTCP feedback
// (PLI, NACK — Section 5.3) or a HIP RTP message (Section 6). The demux
// follows the RFC 5761 rule: a second byte in [200, 207] is RTCP.
func (h *Host) handleIncoming(r *Remote, pkt []byte) {
	if len(pkt) < 2 {
		return
	}
	if pkt[1] >= 200 && pkt[1] <= 207 {
		h.handleRTCP(r, pkt)
		return
	}
	if h.maybeRelaySubscribe(r, pkt) {
		return
	}
	h.handleHIP(r, pkt)
}

// HandleFeedback processes an RTCP compound packet from a participant
// attached as r. Exposed for out-of-band feedback paths (multicast
// members report over unicast).
func (h *Host) HandleFeedback(r *Remote, pkt []byte) { h.handleRTCP(r, pkt) }

func (h *Host) handleRTCP(r *Remote, pkt []byte) {
	pkts, err := rtcp.Unmarshal(pkt)
	if err != nil {
		return
	}
	// Feedback touches only per-remote state, so it contends with
	// fan-out on this remote's shard alone — a NACK storm from viewers
	// on one shard leaves the other shards' deliveries unobstructed.
	r.sh.Mu.Lock()
	defer r.sh.Mu.Unlock()
	if r.closed && !h.cfg.DebugDisableEvictGates {
		// Feedback can race eviction: sweepHealth marks the remote closed
		// under the shard lock, but the sink teardown happens later,
		// outside all locks (finishEvictions). A NACK or PLI landing in
		// that window must not ship retransmissions to — or latch a
		// refresh for — a remote the host has already evicted.
		return
	}
	r.noteHeardLocked(h.cfg.Now())
	for _, p := range pkts {
		switch fb := p.(type) {
		case *rtcp.PLI:
			// Section 5.3.1: WindowManagerInfo then a full screen
			// update of the shared region. The refresh is NOT served
			// inline: feedback arrives on pump goroutines while the
			// application may be mid-mutation between capture ticks, and
			// a refresh snapshotting that state would race the journaled
			// ops still awaiting emission (a scroll journaled but not
			// yet sent would then double-apply on top of the refreshed,
			// already-scrolled pixels). The request is latched and
			// served at the start of the next Tick, after the journal
			// batch. PLIs inside the rate-limit window are absorbed.
			if !r.st.AdmitPLI(h.cfg.Now(), h.cfg.MinRefreshInterval) {
				continue
			}
			r.refreshRequested = true
			h.record("PLI-handled", len(pkt))
		case *rtcp.NACK:
			if h.cfg.Retransmissions {
				_ = r.st.Resend(fb.Lost())
				h.record("NACK-handled", len(pkt))
			}
		case *rtcp.ReceiverReport:
			for _, rep := range fb.Reports {
				if rep.SSRC == r.st.Packetizer.SSRC() {
					r.noteReceiverReport(rep, h.cfg.Now())
				}
			}
		}
	}
}

// handleHIP parses one HIP event and queues it for regeneration at the
// next Tick. Feedback arrives on pump goroutines, but only the Tick
// caller's goroutine may touch the desktop — exactly like a real
// operating system's input queue, which applications drain on their own
// schedule. The queued event is validated against the window/floor state
// at drain time (Sections 4.1, 6, Appendix A). Malformed packets and a
// full queue count as rejected events.
func (h *Host) handleHIP(r *Remote, pkt []byte) {
	var rp rtp.Packet
	if err := rp.Unmarshal(pkt); err != nil {
		h.rejectHIP()
		return
	}
	if rp.PayloadType != h.cfg.HIPPT {
		h.rejectHIP()
		return
	}
	ev, err := hip.Unmarshal(rp.Payload)
	if err != nil {
		h.rejectHIP()
		return
	}
	// Two independent critical sections: the liveness stamp lives under
	// the remote's shard lock, the input queue under h.mu. Holding the
	// shard lock across the h.mu acquisition would invert the documented
	// lock order (mu → shard.Mu).
	r.sh.Mu.Lock()
	r.noteHeardLocked(h.cfg.Now())
	r.sh.Mu.Unlock()
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.hipQueue) >= maxHIPQueue {
		h.hipErrors++
		return
	}
	h.hipQueue = append(h.hipQueue, queuedEvent{remote: r, event: ev})
}

// maxHIPQueue bounds buffered input between ticks; a flood beyond it is
// dropped (and counted), protecting the host from input-event DoS.
const maxHIPQueue = 4096

// queuedEvent is one HIP event awaiting regeneration.
type queuedEvent struct {
	remote *Remote
	event  hip.Event
}

// drainHIPLocked regenerates all queued input events. Host lock held.
func (h *Host) drainHIPLocked() {
	for _, q := range h.hipQueue {
		if err := h.injectEventLocked(q.remote, q.event); err != nil {
			h.hipErrors++
		}
	}
	h.hipQueue = h.hipQueue[:0]
}

func (h *Host) rejectHIP() {
	h.mu.Lock()
	h.hipErrors++
	h.mu.Unlock()
}

// InjectEvent validates one HIP event against the shared window set
// (Section 4.1 MUST), the BFCP floor state (Appendix A) and regenerates
// it on the desktop immediately. Exposed for in-process participants and
// tests; the caller's goroutine must be the one that owns the desktop.
func (h *Host) InjectEvent(r *Remote, ev hip.Event) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.injectEventLocked(r, ev)
}

// injectEventLocked performs validation and regeneration. Host lock held.
func (h *Host) injectEventLocked(r *Remote, ev hip.Event) error {
	shared := windows.SnapshotRecords(h.cfg.Desktop)
	floor := h.cfg.Floor

	switch e := ev.(type) {
	case *hip.MousePressed:
		if floor != nil && !floor.MayUseMouse(r.userID) {
			return fmt.Errorf("ah: user %d lacks mouse floor", r.userID)
		}
		if err := windows.ValidateMouseEvent(shared, e.WindowID, e.Left, e.Top); err != nil {
			return err
		}
		return h.cfg.Desktop.InjectMousePressed(e.WindowID, int(e.Left), int(e.Top), e.Button)
	case *hip.MouseReleased:
		if floor != nil && !floor.MayUseMouse(r.userID) {
			return fmt.Errorf("ah: user %d lacks mouse floor", r.userID)
		}
		if err := windows.ValidateMouseEvent(shared, e.WindowID, e.Left, e.Top); err != nil {
			return err
		}
		return h.cfg.Desktop.InjectMouseReleased(e.WindowID, int(e.Left), int(e.Top), e.Button)
	case *hip.MouseMoved:
		if floor != nil && !floor.MayUseMouse(r.userID) {
			return fmt.Errorf("ah: user %d lacks mouse floor", r.userID)
		}
		if err := windows.ValidateMouseEvent(shared, e.WindowID, e.Left, e.Top); err != nil {
			return err
		}
		return h.cfg.Desktop.InjectMouseMoved(e.WindowID, int(e.Left), int(e.Top))
	case *hip.MouseWheelMoved:
		if floor != nil && !floor.MayUseMouse(r.userID) {
			return fmt.Errorf("ah: user %d lacks mouse floor", r.userID)
		}
		if err := windows.ValidateMouseEvent(shared, e.WindowID, e.Left, e.Top); err != nil {
			return err
		}
		return h.cfg.Desktop.InjectMouseWheel(e.WindowID, int(e.Left), int(e.Top), int(e.Distance))
	case *hip.KeyPressed:
		if floor != nil && !floor.MayUseKeyboard(r.userID) {
			return fmt.Errorf("ah: user %d lacks keyboard floor", r.userID)
		}
		if err := windows.ValidateKeyEvent(shared, e.WindowID); err != nil {
			return err
		}
		return h.cfg.Desktop.InjectKeyPressed(e.WindowID, uint32(e.KeyCode))
	case *hip.KeyReleased:
		if floor != nil && !floor.MayUseKeyboard(r.userID) {
			return fmt.Errorf("ah: user %d lacks keyboard floor", r.userID)
		}
		if err := windows.ValidateKeyEvent(shared, e.WindowID); err != nil {
			return err
		}
		return h.cfg.Desktop.InjectKeyReleased(e.WindowID, uint32(e.KeyCode))
	case *hip.KeyTyped:
		if floor != nil && !floor.MayUseKeyboard(r.userID) {
			return fmt.Errorf("ah: user %d lacks keyboard floor", r.userID)
		}
		if err := windows.ValidateKeyEvent(shared, e.WindowID); err != nil {
			return err
		}
		return h.cfg.Desktop.InjectKeyTyped(e.WindowID, e.Text)
	default:
		return fmt.Errorf("ah: unsupported HIP event %T", ev)
	}
}
