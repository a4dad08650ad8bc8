// ads-host runs an Application Host: it shares a virtual desktop driven
// by a scripted workload and serves TCP and/or UDP participants.
//
// Examples:
//
//	ads-host -tcp 127.0.0.1:6000 -workload typing
//	ads-host -tcp :6000 -udp :6000 -workload scrolling -fps 20 -duration 30s
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"appshare"
	"appshare/internal/apps"
	"appshare/internal/workload"
)

func main() {
	var (
		tcpAddr   = flag.String("tcp", "127.0.0.1:6000", "TCP listen address (empty to disable)")
		udpAddr   = flag.String("udp", "", "UDP listen address (empty to disable)")
		width     = flag.Int("width", 1280, "desktop width in pixels")
		height    = flag.Int("height", 1024, "desktop height in pixels")
		wl        = flag.String("workload", "typing", "workload: typing|scrolling|slideshow|video|drag|editor|whiteboard|slides|slidecycle|pageflip|reexpose|idle")
		fps       = flag.Int("fps", 10, "capture ticks per second")
		duration  = flag.Duration("duration", 0, "how long to run (0 = forever)")
		retrans   = flag.Bool("retransmissions", true, "serve NACK retransmissions to UDP participants")
		autoCodec = flag.Bool("autocodec", false, "classify regions and pick PNG/JPEG automatically")
		showStats = flag.Bool("stats", true, "print traffic stats on exit")
		printSDP  = flag.Bool("sdp", false, "print the session SDP offer and exit")

		remoteTimeout = flag.Duration("remote-timeout", 0, "evict a participant silent for this long (0 = never)")
		backlogDwell  = flag.Duration("backlog-dwell", 0, "evict a participant backlogged or stalled for this long (0 = never)")
		readIdle      = flag.Duration("read-idle", 0, "drop a TCP participant sending nothing for this long (0 = never)")

		ladder        = flag.Bool("quality-ladder", false, "enable the per-participant congestion-adaptive quality ladder")
		ladderDemote  = flag.Duration("ladder-demote", 0, "congestion streak before dropping one quality tier (0 = default)")
		ladderPromote = flag.Duration("ladder-promote", 0, "clean streak before climbing one quality tier (0 = default)")
		ladderDwell   = flag.Duration("ladder-dwell", 0, "minimum time between tier moves for one participant (0 = default)")

		sendShards = flag.Int("send-shards", 0, "fan-out shards, each with its own sender goroutine (0 = GOMAXPROCS, 1 = inline single-lock fan-out)")

		tileStore = flag.Bool("tile-store", false, "enable the persistent tile store: revisited content ships as tile references instead of re-encoded pixels")
	)
	flag.Parse()

	if *printSDP {
		offer, err := appshare.BuildSDPOffer(appshare.SDPOffer{
			Address:         "127.0.0.1",
			RemotingPort:    6000,
			RemotingPT:      99,
			OfferUDP:        *udpAddr != "",
			OfferTCP:        *tcpAddr != "",
			Retransmissions: *retrans,
			TileStore:       *tileStore,
			HIPPort:         6006,
			HIPPT:           100,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(offer)
		return
	}

	desk := appshare.NewDesktop(*width, *height)
	win := desk.CreateWindow(1, appshare.XYWH(*width/8, *height/8, *width/2, *height/2))

	var w appshare.Workload
	switch *wl {
	case "typing":
		w = workload.NewTyping(win, 16, 1)
	case "scrolling":
		w = workload.NewScrolling(win, 2, 1)
	case "slideshow":
		w = workload.NewSlideshow(win, 3**fps, 1)
	case "video":
		w = workload.NewVideoRegion(win, appshare.XYWH(20, 20, 320, 240), 1)
	case "drag":
		w = workload.NewWindowDrag(desk, win.ID(), 1)
	case "editor":
		apps.NewEditor(win)
		w = workload.Idle{}
	case "whiteboard":
		apps.NewWhiteboard(win)
		w = workload.Idle{}
	case "slides":
		apps.NewSlides(win, 12, 1)
		w = workload.Idle{}
	case "slidecycle":
		w = workload.NewRevisit("slidecycle", win, 4, *fps/2+1, 1)
	case "pageflip":
		w = workload.NewRevisit("pageflip", win, 2, *fps/4+1, 1)
	case "reexpose":
		w = workload.NewRevisit("reexpose", win, 1, *fps/3+1, 1)
	case "idle":
		w = workload.Idle{}
	default:
		log.Fatalf("unknown workload %q", *wl)
	}

	var tileCfg *appshare.TileStoreConfig
	if *tileStore {
		tileCfg = &appshare.TileStoreConfig{}
	}
	var ladderCfg *appshare.LadderConfig
	if *ladder {
		ladderCfg = &appshare.LadderConfig{
			DemoteAfter:  *ladderDemote,
			PromoteAfter: *ladderPromote,
			MinTierDwell: *ladderDwell,
		}
	}
	st := appshare.NewStats()
	host, err := appshare.NewHost(appshare.HostConfig{
		Desktop:         desk,
		Retransmissions: *retrans,
		Stats:           st,
		Capture:         appshare.CaptureOptions{AutoSelect: *autoCodec},
		RemoteTimeout:   *remoteTimeout,
		MaxBacklogDwell: *backlogDwell,
		Ladder:          ladderCfg,
		SendShards:      *sendShards,
		TileStore:       tileCfg,
		OnEvict: func(snap appshare.RemoteHealth) {
			log.Printf("evicted participant %s: %s", snap.ID, snap.EvictReason)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer host.Close()

	if *tcpAddr != "" {
		ln, err := net.Listen("tcp", *tcpAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer ln.Close()
		log.Printf("serving TCP participants on %s", ln.Addr())
		go func() {
			if err := appshare.ServeTCP(host, ln, appshare.StreamOptions{ReadIdleTimeout: *readIdle, TileStore: *tileStore}); err != nil {
				log.Printf("tcp server: %v", err)
			}
		}()
	}
	if *udpAddr != "" {
		addr, err := net.ResolveUDPAddr("udp", *udpAddr)
		if err != nil {
			log.Fatal(err)
		}
		sock, err := net.ListenUDP("udp", addr)
		if err != nil {
			log.Fatal(err)
		}
		defer sock.Close()
		log.Printf("serving UDP participants on %s (join with a PLI)", sock.LocalAddr())
		go func() {
			if err := appshare.ServeUDP(host, sock, appshare.PacketOptions{TileStore: *tileStore}); err != nil {
				log.Printf("udp server: %v", err)
			}
		}()
	}

	log.Printf("sharing %dx%d desktop, workload=%s, %d fps", *width, *height, w.Name(), *fps)
	ticker := time.NewTicker(time.Second / time.Duration(*fps))
	defer ticker.Stop()
	reports := time.NewTicker(5 * time.Second) // RTCP SR interval
	defer reports.Stop()
	var stop <-chan time.Time
	if *duration > 0 {
		stop = time.After(*duration)
	}
	for {
		select {
		case <-ticker.C:
			w.Step()
			if err := host.Tick(); err != nil {
				log.Fatal(err)
			}
		case <-reports.C:
			if err := host.SendReports(); err != nil {
				log.Printf("rtcp reports: %v", err)
			}
			for _, hs := range host.RemoteHealth() {
				if hs.Tier == appshare.TierFull && hs.EvictReason == "" {
					continue
				}
				log.Printf("participant %s tier=%s: backlog %dB dwell %v stall %v flaps=%d evicted=%q",
					hs.ID, hs.Tier, hs.QueuedBytes, hs.BacklogDwell, hs.SendStall, hs.TierFlaps, hs.EvictReason)
			}
		case <-stop:
			if *showStats {
				fmt.Fprintln(os.Stderr, "\ntraffic by message type:")
				fmt.Fprint(os.Stderr, st.String())
			}
			return
		}
	}
}
