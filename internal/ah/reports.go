package ah

import (
	"time"

	"appshare/internal/rtcp"
)

// RTCP sender reports (RFC 3550): the host periodically describes each
// remoting stream with an SR + SDES compound packet, and records the
// Receiver Reports participants return, giving operators per-participant
// loss and jitter visibility.

// SendReports ships one SR+SDES compound packet to every participant.
// Call it at the RTCP interval (a few seconds). Like every send path it
// ships under the owning shard's lock (see BroadcastExtension), one
// shard at a time.
func (h *Host) SendReports() error {
	now := h.cfg.Now()
	var firstErr error
	for _, s := range h.shards {
		s.Mu.Lock()
		for r := range s.remotes {
			sr := &rtcp.SenderReport{
				SSRC:        r.st.Packetizer.SSRC(),
				NTPTime:     rtcp.NTPTime(now),
				RTPTime:     0, // media clock origin is random; receivers use NTP
				PacketCount: uint32(r.st.SentPackets),
				OctetCount:  uint32(r.st.SentOctets),
			}
			sdes := &rtcp.SDES{SSRC: r.st.Packetizer.SSRC(), CNAME: h.cfg.CNAME}
			pkt, err := rtcp.Marshal(sr, sdes)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			if err := r.sink.Send(pkt); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			h.record("SenderReport", len(pkt))
		}
		s.Mu.Unlock()
	}
	return firstErr
}

// ReceptionQuality is the host's view of one participant's most recent
// Receiver Report.
type ReceptionQuality struct {
	FractionLost   uint8
	CumulativeLost uint32
	Jitter         uint32
	HighestSeq     uint32
	Valid          bool
}

// LastReceiverReport returns the most recent reception quality this
// remote reported, if any.
func (r *Remote) LastReceiverReport() ReceptionQuality {
	r.sh.Mu.Lock()
	defer r.sh.Mu.Unlock()
	return r.lastRR
}

// noteReceiverReport records a participant's RR block and refreshes the
// health subsystem's reception view (RR time, RTT estimate). Shard lock
// held.
func (r *Remote) noteReceiverReport(rep rtcp.ReceptionReport, now time.Time) {
	r.lastRR = ReceptionQuality{
		FractionLost:   rep.FractionLost,
		CumulativeLost: rep.TotalLost,
		Jitter:         rep.Jitter,
		HighestSeq:     rep.HighestSeq,
		Valid:          true,
	}
	r.lastRRAt = now
	r.noteRTTLocked(rep, now)
}
