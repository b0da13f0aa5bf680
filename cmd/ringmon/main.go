// Command ringmon is a monitoring observer for a running ring: it joins
// the ring through the dynamic membership protocol as an extra (read-only)
// participant and reports membership changes and traffic statistics. Note
// that, as in any token ring, an observer is a full ring member — it adds
// one hop to the token's rotation.
//
// With -rings M it observes a sharded deployment instead: ring r binds the
// configured ports plus a stride of 2r (and the multicast port plus 2r),
// matching a multi-ring cluster laid out the same way, and reports the
// merged cross-shard order plus per-ring breakdowns.
//
// With -sockets it instead polls local daemons over their IPC sockets for
// serving-side statistics — sessions, subscriptions, fan-out shedding —
// without joining the ring at all.
//
//	ringmon -id 99 -peers 1=10.0.0.1,2=10.0.0.2,99=10.0.0.9 -interval 2s
//	ringmon -id 99 -rings 4 -peers 1=10.0.0.1,99=10.0.0.9
//	ringmon -sockets /tmp/ringd1.sock,/tmp/ringd2.sock -interval 2s
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"accelring"
)

func main() {
	os.Exit(run())
}

func run() int {
	id := flag.Uint("id", 99, "observer participant ID (unique on the ring)")
	peersFlag := flag.String("peers", "", "comma-separated peers: id=host[:dataPort:tokenPort] (same map as ringd, plus this observer)")
	mcast := flag.String("mcast", "239.192.74.11:7410", "data multicast group; empty emulates multicast")
	interval := flag.Duration("interval", 2*time.Second, "statistics reporting interval")
	rings := flag.Int("rings", 1, "ring (shard) count; ring r strides every port by +2r")
	socketsFlag := flag.String("sockets", "", "comma-separated daemon IPC sockets to poll for serving-side stats instead of joining the ring")
	connectWait := flag.Duration("connect-wait", 0, "-sockets mode: retry a daemon connection with capped backoff for this long before failing the poll (covers daemons still starting up)")
	flag.Parse()

	logger := log.New(os.Stderr, "ringmon: ", log.LstdFlags)
	if *socketsFlag != "" {
		var sockets []string
		for _, s := range strings.Split(*socketsFlag, ",") {
			if s = strings.TrimSpace(s); s != "" {
				sockets = append(sockets, s)
			}
		}
		if len(sockets) == 0 {
			logger.Print("empty -sockets")
			return 2
		}
		return runSockets(logger, sockets, *interval, *connectWait)
	}
	peers, err := accelring.ParsePeers(*peersFlag)
	if err != nil {
		logger.Print(err)
		return 2
	}
	if *rings < 1 || *rings > 255 {
		logger.Printf("bad -rings %d (want 1..255)", *rings)
		return 2
	}
	if *rings > 1 {
		return runMulti(logger, accelring.ParticipantID(*id), peers, *mcast, *rings, *interval)
	}
	tr, err := accelring.NewUDPTransport(accelring.UDPOptions{
		ID:             accelring.ParticipantID(*id),
		Peers:          peers,
		MulticastGroup: *mcast,
	})
	if err != nil {
		logger.Print(err)
		return 1
	}
	node, err := accelring.Start(accelring.Options{
		ID:        accelring.ParticipantID(*id),
		Transport: tr,
	})
	if err != nil {
		logger.Print(err)
		return 1
	}
	defer node.Close()
	logger.Printf("observer %d joining the ring", *id)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()

	var msgs, safeMsgs, bytes uint64
	lastReport := time.Now()
	for {
		select {
		case ev, ok := <-node.Events():
			if !ok {
				return 0
			}
			switch e := ev.(type) {
			case accelring.ConfigChange:
				kind := "regular"
				if e.Transitional {
					kind = "transitional"
				}
				fmt.Printf("%s membership (%s): %v\n",
					time.Now().Format("15:04:05.000"), kind, e.Config.Members)
			case accelring.Message:
				msgs++
				bytes += uint64(len(e.Payload))
				if e.Service == accelring.Safe {
					safeMsgs++
				}
			}
		case <-ticker.C:
			elapsed := time.Since(lastReport).Seconds()
			snap, err := node.Metrics()
			if err != nil {
				return 0
			}
			st := snap.Engine
			fmt.Printf("%s rate %.0f msg/s (%.0f safe/s, %.2f Mbps payload) | tokens %d retransPkts %d rtrReqs %d memberships %d\n",
				time.Now().Format("15:04:05.000"),
				float64(msgs)/elapsed, float64(safeMsgs)/elapsed,
				float64(bytes)*8/1e6/elapsed,
				st.TokensProcessed, st.MsgsRetransmitted, st.RTRRequested, st.MembershipChanges)
			rot := snap.Runtime.TokenRotation
			fmt.Printf("%s rotation p50 %v p99 %v (n=%d) | accelFlushes %d throttled %d rtrDeferred %d | errs %d staleTimers %d\n",
				time.Now().Format("15:04:05.000"),
				rot.P50(), rot.P99(), rot.Count,
				st.AccelFlushes, st.FlowThrottledRounds, st.RTRDeferredRounds,
				snap.ErrorCount, snap.Runtime.TimerStaleDrops)
			if tr := snap.Transport; tr != nil {
				fmt.Printf("%s transport in %d out %d | queueDrops %d kernelDrops %d fanout %d selfFiltered %d\n",
					time.Now().Format("15:04:05.000"),
					tr.DatagramsIn, tr.DatagramsOut,
					tr.RecvQueueDrops, tr.KernelRecvDrops, tr.FanoutSends, tr.SelfFiltered)
			}
			if bp := snap.BufferPool; bp.Hits+bp.Misses > 0 {
				fmt.Printf("%s bufpool hits %d misses %d puts %d discards %d\n",
					time.Now().Format("15:04:05.000"),
					bp.Hits, bp.Misses, bp.Puts, bp.Discards)
			}
			msgs, safeMsgs, bytes = 0, 0, 0
			lastReport = time.Now()
		case <-sig:
			logger.Print("leaving the ring")
			return 0
		}
	}
}

// runMulti observes a sharded deployment: one UDP transport per ring on
// strided ports, merged through StartMulti. The observer never initiates
// skips — it is read-only, and skip leadership belongs to the cluster.
func runMulti(logger *log.Logger, id accelring.ParticipantID, peers map[accelring.ParticipantID]accelring.Peer, mcast string, rings int, interval time.Duration) int {
	transports := make([]accelring.Transport, rings)
	for r := 0; r < rings; r++ {
		group, err := strideMcast(mcast, 2*r)
		if err != nil {
			logger.Print(err)
			return 2
		}
		tr, err := accelring.NewUDPTransport(accelring.UDPOptions{
			ID:             id,
			Peers:          stridePeers(peers, 2*r),
			MulticastGroup: group,
		})
		if err != nil {
			logger.Printf("ring %d: %v", r, err)
			for _, t := range transports[:r] {
				t.Close()
			}
			return 1
		}
		transports[r] = tr
	}
	noSkips := false
	node, err := accelring.StartMulti(accelring.MultiOptions{
		Node:           accelring.Options{ID: id},
		RingTransports: transports,
		SkipSubmit:     &noSkips,
	})
	if err != nil {
		logger.Print(err)
		return 1
	}
	defer node.Close()
	logger.Printf("observer %d joining %d rings", id, rings)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()

	var msgs, bytes uint64
	perRing := make([]uint64, rings)
	lastReport := time.Now()
	for {
		select {
		case ev, ok := <-node.Events():
			if !ok {
				return 0
			}
			switch e := ev.(type) {
			case accelring.ShardConfigChange:
				kind := "regular"
				if e.Transitional {
					kind = "transitional"
				}
				fmt.Printf("%s ring %d membership (%s): %v\n",
					time.Now().Format("15:04:05.000"), e.Ring, kind, e.Members)
			case accelring.ShardMessage:
				msgs++
				bytes += uint64(len(e.Payload))
				perRing[e.Ring]++
			}
		case <-ticker.C:
			elapsed := time.Since(lastReport).Seconds()
			snap, err := node.Metrics()
			if err != nil {
				return 0
			}
			rt := snap.Router
			fmt.Printf("%s merged %.0f msg/s (%.2f Mbps payload) | turn %d skipsConsumed %d starvedTicks %d decodeFailures %d\n",
				time.Now().Format("15:04:05.000"),
				float64(msgs)/elapsed, float64(bytes)*8/1e6/elapsed,
				rt.Turns, rt.SkipsConsumed, rt.StarvedTicks, rt.DecodeFailures)
			for r := range perRing {
				st := snap.Rings[r].Engine
				fmt.Printf("%s ring %d: %.0f msg/s | tokens %d retransPkts %d memberships %d errs %d\n",
					time.Now().Format("15:04:05.000"),
					r, float64(perRing[r])/elapsed,
					st.TokensProcessed, st.MsgsRetransmitted, st.MembershipChanges,
					snap.Rings[r].ErrorCount)
				perRing[r] = 0
			}
			msgs, bytes = 0, 0
			lastReport = time.Now()
		case <-sig:
			logger.Print("leaving the rings")
			return 0
		}
	}
}

// stridePeers shifts every peer's port pair by delta, laying ring r onto
// its own port set the same way ringd-style deployments do.
func stridePeers(peers map[accelring.ParticipantID]accelring.Peer, delta int) map[accelring.ParticipantID]accelring.Peer {
	out := make(map[accelring.ParticipantID]accelring.Peer, len(peers))
	for id, p := range peers {
		p.DataPort += delta
		p.TokenPort += delta
		out[id] = p
	}
	return out
}

// strideMcast shifts the multicast group's port by delta; an empty group
// (emulated multicast) passes through.
func strideMcast(group string, delta int) (string, error) {
	if group == "" {
		return "", nil
	}
	host, portStr, err := net.SplitHostPort(group)
	if err != nil {
		return "", fmt.Errorf("bad -mcast %q: %v", group, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return "", fmt.Errorf("bad -mcast port %q: %v", portStr, err)
	}
	return net.JoinHostPort(host, strconv.Itoa(port+delta)), nil
}
