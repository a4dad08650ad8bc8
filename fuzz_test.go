package appshare_test

import (
	"reflect"
	"testing"

	"appshare"
	"appshare/internal/ah"
	"appshare/internal/benchsuite"
	"appshare/internal/bfcp"
	"appshare/internal/core"
	"appshare/internal/hip"
	"appshare/internal/remoting"
	"appshare/internal/rtcp"
	"appshare/internal/rtp"
	"appshare/internal/sdp"
)

// Native fuzz targets for every network-facing decoder. Without -fuzz
// they run the seed corpus as regression tests; with
// `go test -fuzz FuzzRemotingDecode .` they explore further.

func FuzzRemotingDecode(f *testing.F) {
	wm, _ := (&remoting.WindowManagerInfo{Windows: []remoting.WindowRecord{{WindowID: 1}}}).Marshal()
	mv, _ := (&remoting.MoveRectangle{WindowID: 1, Width: 2, Height: 2}).Marshal()
	f.Add(wm)
	f.Add(mv)
	f.Add([]byte{2, 0x80 | 96, 0, 1, 0, 0, 0, 5, 0, 0, 0, 6, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := remoting.DecodePayload(data)
		if err == nil && msg == nil {
			t.Fatal("nil message with nil error")
		}
	})
}

func FuzzHIPDecode(f *testing.F) {
	press, _ := hip.Marshal(&hip.MousePressed{WindowID: 1, Button: 1, Left: 2, Top: 3})
	typed, _ := hip.Marshal(&hip.KeyTyped{WindowID: 1, Text: "abc"})
	f.Add(press)
	f.Add(typed)
	f.Fuzz(func(t *testing.T, data []byte) {
		ev, err := hip.Unmarshal(data)
		if err == nil && ev == nil {
			t.Fatal("nil event with nil error")
		}
		if err == nil {
			// Valid events re-marshal.
			if _, err := hip.Marshal(ev); err != nil {
				t.Fatalf("re-marshal of valid event failed: %v", err)
			}
		}
	})
}

func FuzzRTCPDecode(f *testing.F) {
	pli, _ := rtcp.Marshal(&rtcp.PLI{SenderSSRC: 1, MediaSSRC: 2})
	nack, _ := rtcp.Marshal(&rtcp.NACK{SenderSSRC: 1, MediaSSRC: 2, Pairs: []rtcp.NACKPair{{PID: 7}}})
	f.Add(pli)
	f.Add(nack)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = rtcp.Unmarshal(data)
	})
}

func FuzzRTPDecode(f *testing.F) {
	f.Add([]byte{0x80, 99, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var p rtp.Packet
		_ = p.Unmarshal(data)
	})
}

func FuzzBFCPDecode(f *testing.F) {
	req, _ := (&bfcp.Message{Primitive: bfcp.FloorRequest}).Marshal()
	granted, _ := (&bfcp.Message{Primitive: bfcp.FloorGranted, HIDStatus: bfcp.StateAllAllowed}).Marshal()
	f.Add(req)
	f.Add(granted)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := bfcp.Unmarshal(data)
		if err == nil {
			// Known primitives re-marshal; unknown ones error cleanly.
			if _, err := m.Marshal(); err != nil {
				switch m.Primitive {
				case bfcp.FloorRequest, bfcp.FloorRelease, bfcp.FloorRequestQueued,
					bfcp.FloorGranted, bfcp.FloorReleased:
					t.Fatalf("known primitive failed to re-marshal: %v", err)
				}
			}
		}
	})
}

func FuzzSDPParse(f *testing.F) {
	f.Add("v=0\r\ns=-\r\nt=0 0\r\nm=application 6000 RTP/AVP 99\r\na=rtpmap:99 remoting/90000\r\n")
	f.Add(sdp.Example103)
	f.Fuzz(func(t *testing.T, text string) {
		d, err := sdp.Parse(text)
		if err == nil {
			// A parse success must re-marshal and re-parse.
			if _, err := sdp.Parse(d.Marshal()); err != nil {
				t.Fatalf("re-parse of marshaled SDP failed: %v", err)
			}
		}
	})
}

func FuzzReassemblerPush(f *testing.F) {
	f.Add([]byte{2, 0x80, 0, 1, 0, 0, 0, 1, 0, 0, 0, 2, 9, 9}, true)
	f.Add([]byte{2, 0x00, 0, 1, 5, 5}, false)
	f.Fuzz(func(t *testing.T, payload []byte, marker bool) {
		ra := core.NewReassembler()
		_, _ = ra.Push(payload, marker)
		_, _ = ra.Push(payload, !marker)
	})
}

// FuzzSessionSnapshotDecode covers the snapshot a standby host receives
// from the broker: whatever decodes must re-encode and decode to the
// same snapshot.
func FuzzSessionSnapshotDecode(f *testing.F) {
	desk := appshare.NewDesktop(64, 48)
	desk.CreateWindow(1, appshare.XYWH(4, 4, 32, 24))
	host, err := appshare.NewHost(appshare.HostConfig{Desktop: desk, Retransmissions: true})
	if err != nil {
		f.Fatal(err)
	}
	defer host.Close()
	if _, err := host.AttachPacketConn("v", benchsuite.NewDiscardConn(nil), appshare.PacketOptions{}); err != nil {
		f.Fatal(err)
	}
	if err := host.Tick(); err != nil { // ship the window: the retransmit log is in the seed
		f.Fatal(err)
	}
	snap, err := host.SnapshotSession()
	if err != nil {
		f.Fatal(err)
	}
	seed, err := snap.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ah.UnmarshalSessionSnapshot(data)
		if err != nil {
			return
		}
		enc, err := s.Marshal()
		if err != nil {
			t.Fatalf("re-marshal of a decoded snapshot failed: %v", err)
		}
		again, err := ah.UnmarshalSessionSnapshot(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatal("decode → encode → decode changed the snapshot")
		}
	})
}

// FuzzFloorStateDecode covers the floor state riding the same broker
// record, with the same identity property.
func FuzzFloorStateDecode(f *testing.F) {
	f.Add(bfcp.FloorState{ConferenceID: 7}.Marshal())
	f.Add(bfcp.FloorState{ConferenceID: 7, Holder: 10, HasHolder: true, Queue: []uint16{11, 12},
		Status: bfcp.StateMouseAllowed, NextTx: 5}.Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := bfcp.UnmarshalFloorState(data)
		if err != nil {
			return
		}
		again, err := bfcp.UnmarshalFloorState(s.Marshal())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("decode → encode → decode changed the state: %+v vs %+v", s, again)
		}
	})
}
