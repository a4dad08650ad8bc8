package bfcp

import (
	"fmt"

	"appshare/internal/wire"
)

// FloorState is the serializable moderation state of a Floor: who holds
// the HID floor, who is queued for it (FIFO order), the current HID
// permission status, and the chair's transaction counter. The session
// broker holds this state so moderation survives host churn: a migrated
// session's new host resumes granting from exactly the queue the old
// host left, with no duplicate or reset TransactionIDs.
type FloorState struct {
	ConferenceID uint32
	Holder       uint16
	HasHolder    bool
	Queue        []uint16
	Status       HIDStatus
	NextTx       uint16
}

// floorStateVersion guards the FloorState wire encoding.
const floorStateVersion = 1

// State captures the floor's moderation state.
func (f *Floor) State() FloorState {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := FloorState{
		ConferenceID: f.conf,
		Holder:       f.holder,
		HasHolder:    f.hasHold,
		Status:       f.status,
		NextTx:       f.nextTx,
	}
	if len(f.queue) > 0 {
		s.Queue = append([]uint16(nil), f.queue...)
	}
	return s
}

// NewFloorFromState reconstructs a Floor continuing exactly where
// State() left off. notify receives chair messages as in NewFloor; no
// messages are (re)sent during restore — viewers already hold their
// grants, and replaying them would desynchronize transaction IDs.
func NewFloorFromState(s FloorState, notify func(userID uint16, msg *Message)) *Floor {
	f := NewFloor(s.ConferenceID, notify)
	f.holder = s.Holder
	f.hasHold = s.HasHolder
	if len(s.Queue) > 0 {
		f.queue = append([]uint16(nil), s.Queue...)
	}
	f.status = s.Status
	f.nextTx = s.NextTx
	return f
}

// Marshal encodes the state for the broker's session record.
func (s FloorState) Marshal() []byte {
	w := wire.NewWriter(16 + 2*len(s.Queue))
	w.Uint8(floorStateVersion)
	w.Uint32(s.ConferenceID)
	w.Uint16(s.Holder)
	var has uint8
	if s.HasHolder {
		has = 1
	}
	w.Uint8(has)
	w.Uint16(uint16(s.Status))
	w.Uint16(s.NextTx)
	w.Uint16(uint16(len(s.Queue)))
	for _, q := range s.Queue {
		w.Uint16(q)
	}
	return w.Bytes()
}

// UnmarshalFloorState decodes a Marshal encoding.
func UnmarshalFloorState(b []byte) (FloorState, error) {
	r := wire.NewReader(b)
	if v := r.Uint8(); r.Err() == nil && v != floorStateVersion {
		return FloorState{}, fmt.Errorf("bfcp: floor state version %d unsupported", v)
	}
	var s FloorState
	s.ConferenceID = r.Uint32()
	s.Holder = r.Uint16()
	s.HasHolder = r.Uint8() != 0
	s.Status = HIDStatus(r.Uint16())
	s.NextTx = r.Uint16()
	n := int(r.Uint16())
	for i := 0; i < n && r.Err() == nil; i++ { // a truncated queue stops here, not after n appends
		s.Queue = append(s.Queue, r.Uint16())
	}
	if r.Err() != nil {
		return FloorState{}, fmt.Errorf("bfcp: floor state: %w", r.Err())
	}
	if r.Len() != 0 {
		return FloorState{}, fmt.Errorf("bfcp: floor state: %d trailing bytes", r.Len())
	}
	if s.Status > StateAllAllowed {
		return FloorState{}, fmt.Errorf("bfcp: floor state: bad HID status %d", s.Status)
	}
	return s, nil
}
