// ads-relay is an edge fan-out node of the relay cascade: it dials an
// origin host (or a parent relay) as a single stream subscriber,
// caches the latest full-refresh snapshot, and re-fans the stream to
// its own UDP viewers — late joiners and PLIs are served from the
// cache, invisible to the origin.
//
// Examples:
//
//	ads-relay -origin 127.0.0.1:6000 -udp :7000
//	ads-relay -origin 127.0.0.1:6000 -udp :7000 -refresh-every 64
package main

import (
	"flag"
	"log"
	"net"
	"time"

	"appshare"
)

func main() {
	var (
		origin       = flag.String("origin", "", "origin (or parent relay) TCP address")
		udpAddr      = flag.String("udp", ":7000", "UDP listen address for viewers")
		streamID     = flag.Uint("stream", 0, "stream id to subscribe to (must match the origin's)")
		remotingPT   = flag.Uint("pt", 99, "remoting RTP payload type")
		refreshEvery = flag.Int("refresh-every", 64, "request an upstream cache refill every N forwarded messages (0 disables)")
		minRefresh   = flag.Duration("min-refresh", 500*time.Millisecond, "per-viewer cache-serve rate limit")
		statsEvery   = flag.Duration("stats", 5*time.Second, "cascade counter print interval (0 disables)")
		duration     = flag.Duration("duration", 0, "how long to relay (0 = until the upstream dies)")
	)
	flag.Parse()
	if *origin == "" {
		log.Fatal("specify -origin")
	}

	rl := appshare.NewRelay(appshare.RelayConfig{
		StreamID:           uint32(*streamID),
		RemotingPT:         uint8(*remotingPT),
		RefreshEvery:       *refreshEvery,
		MinRefreshInterval: *minRefresh,
	})

	up, err := net.Dial("tcp", *origin)
	if err != nil {
		log.Fatal(err)
	}
	done, err := appshare.SubscribeRelayStream(rl, up, true)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("subscribed to %s (stream %d)", *origin, *streamID)

	laddr, err := net.ResolveUDPAddr("udp", *udpAddr)
	if err != nil {
		log.Fatal(err)
	}
	uconn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := appshare.RelayServeUDP(rl, uconn); err != nil {
			log.Printf("udp serve: %v", err)
		}
	}()
	log.Printf("serving viewers on %s", uconn.LocalAddr())

	var tick <-chan time.Time
	if *statsEvery > 0 {
		t := time.NewTicker(*statsEvery)
		defer t.Stop()
		tick = t.C
	}
	var end <-chan time.Time
	if *duration > 0 {
		end = time.After(*duration)
	}
	for {
		select {
		case err := <-done:
			_ = rl.Close()
			if err != nil {
				log.Fatalf("upstream: %v", err)
			}
			return
		case <-tick:
			st := rl.Stats()
			log.Printf("viewers=%d batches=%d refills=%d cache-serves=%d absorbed-plis=%d upstream-refreshes=%d",
				rl.Viewers(), st.Batches, st.CacheRefills, st.CacheServes, st.AbsorbedPLIs, st.UpstreamRefreshRequests)
		case <-end:
			_ = rl.Close()
			_ = up.Close()
			return
		}
	}
}
