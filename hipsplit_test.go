package appshare_test

import (
	"testing"

	"appshare"
	"appshare/internal/apps"
	"appshare/internal/benchsuite"
)

// TestSeparateHIPConnection runs the draft's two-port layout: remoting
// on one stream, HIP on a second, associated out of band — and verifies
// events typed over the dedicated HIP connection reach the application.
func TestSeparateHIPConnection(t *testing.T) {
	desk := appshare.NewDesktop(800, 600)
	win := desk.CreateWindow(1, appshare.XYWH(50, 50, 300, 200))
	editor := apps.NewEditor(win)
	host, err := appshare.NewHost(appshare.HostConfig{Desktop: desk})
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()

	// Remoting connection ("port 6000").
	remHost, remPart := benchsuite.StreamPair()
	p := appshare.NewParticipant(appshare.ParticipantConfig{})
	conn := appshare.ConnectStream(p, remPart)
	defer conn.Close()
	remote, err := host.AttachStream("p1", remHost, appshare.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "join", func() bool { return len(p.Windows()) == 1 })

	// Dedicated HIP connection ("port 6006"), associated out of band.
	hipHost, hipPart := benchsuite.StreamPair()
	if got := host.FindRemote("p1"); got != remote {
		t.Fatal("FindRemote failed")
	}
	host.BindHIPStream(remote, hipHost)
	conn.UseHIPStream(hipPart)

	if err := conn.Type(win.ID(), "two-port layout"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "typed text over HIP port", func() bool {
		if err := host.Tick(); err != nil {
			t.Fatal(err)
		}
		return editor.Text() == "two-port layout"
	})

	// Feedback (PLI) also flows over the HIP/RTCP connection; the
	// refresh is served at the next tick.
	if err := conn.SendPLI(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "refresh after PLI", func() bool {
		if err := host.Tick(); err != nil {
			t.Fatal(err)
		}
		return p.Applied(2 /* RegionUpdate */) >= 2
	})

	if host.FindRemote("absent") != nil {
		t.Fatal("FindRemote should return nil for unknown ids")
	}
}
