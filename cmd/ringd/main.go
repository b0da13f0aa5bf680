// Command ringd is the Spread-like daemon deployment of the Accelerated
// Ring protocol: one daemon per machine joins the ring over UDP
// (IP-multicast data, unicast token) and serves local clients over a Unix
// socket, providing named groups, open-group semantics and multi-group
// multicast with totally ordered delivery.
//
// Example 3-daemon ring on three hosts:
//
//	hostA$ ringd -id 1 -peers 1=10.0.0.1,2=10.0.0.2,3=10.0.0.3 -members 1,2,3
//	hostB$ ringd -id 2 -peers 1=10.0.0.1,2=10.0.0.2,3=10.0.0.3 -members 1,2,3
//	hostC$ ringd -id 3 -peers 1=10.0.0.1,2=10.0.0.2,3=10.0.0.3 -members 1,2,3
//
// Omit -members to discover peers dynamically through the membership
// protocol. Without IP-multicast (-mcast ""), multicast is emulated with
// unicast fan-out.
//
// -engine ringpaxos swaps the ordering engine for the Ring Paxos
// comparison baseline (static membership required); the daemon's client
// protocol, fan-out tier and metrics are engine-agnostic.
//
// For a single-host demo ring, give each daemon distinct ports:
//
//	ringd -id 1 -peers 1=127.0.0.1:7411:7412,2=127.0.0.1:7421:7422 -members 1,2 -socket /tmp/ringd1.sock -mcast ""
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
	"accelring/internal/daemon"
	"accelring/internal/fanout"
)

const defaultMcast = "239.192.74.11:7410"

func main() {
	os.Exit(run())
}

func run() int {
	id := flag.Uint("id", 0, "participant ID (1..n), unique per daemon")
	peersFlag := flag.String("peers", "", "comma-separated peers: id=host[:dataPort:tokenPort]")
	membersFlag := flag.String("members", "", "static ring membership (comma-separated IDs); empty = dynamic discovery")
	mcast := flag.String("mcast", defaultMcast, "data multicast group; empty emulates multicast with unicast")
	socket := flag.String("socket", "/tmp/ringd.sock", "Unix socket for local clients")
	protoFlag := flag.String("protocol", "accelerated", "ordering protocol: accelerated or original")
	engineFlag := flag.String("engine", "", "ordering engine: accelring (default) or ringpaxos; ringpaxos requires a static -members list")
	accelWindow := flag.Int("accel-window", 0, "accelerated window override (messages sent post-token)")
	personalWindow := flag.Int("personal-window", 0, "personal window override")
	pack := flag.Int("pack", 1350, "message packing threshold in bytes (0 disables); small client messages sharing a service are packed into one protocol packet")
	verbose := flag.Bool("verbose", false, "log protocol state transitions (configuration installs are always logged)")
	fanoutPolicy := flag.String("fanout-policy", "disconnect", "slow-client backpressure policy: disconnect or shed")
	fanoutQueue := flag.Int("fanout-queue", 0, "per-client delivery queue depth in frames (0 = default 8192)")
	tokenLoss := flag.Duration("token-loss", 0, "token loss (failure detection) timeout L; 0 = 1s. The other protocol timers derive from it: token resend every L/10, joins every L/4, membership consensus 2L, commit L")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful drain budget on the first SIGTERM/SIGINT: stop accepting, announce the drain, flush client queues, leave the ring")
	resumeWindow := flag.Duration("resume-window", 30*time.Second, "how long a disconnected client's session (queue, interests, delivery cursor) is held for resume; 0 disables session resume")
	resumeHistory := flag.Int("resume-history", 1024, "per-client history of already-written frames kept for resume replay (0 disables rewind; resumes then report a gap unless the client is fully caught up)")
	watchdogInterval := flag.Duration("watchdog-interval", 5*time.Second, "liveness watchdog check period for the protocol loop; 0 disables")
	flag.Parse()

	logger := log.New(os.Stderr, "ringd: ", log.LstdFlags|log.Lmicroseconds)

	if *id == 0 {
		logger.Print("missing -id")
		return 2
	}
	peers, err := accelring.ParsePeers(*peersFlag)
	if err != nil {
		logger.Print(err)
		return 2
	}
	if _, ok := peers[accelring.ParticipantID(*id)]; !ok {
		logger.Printf("-peers has no entry for -id %d", *id)
		return 2
	}
	members, err := parseMembers(*membersFlag, peers)
	if err != nil {
		logger.Print(err)
		return 2
	}
	var protocol accelring.Protocol
	switch *protoFlag {
	case "accelerated":
		protocol = accelring.AcceleratedRing
	case "original":
		protocol = accelring.OriginalRing
	default:
		logger.Printf("unknown -protocol %q", *protoFlag)
		return 2
	}
	engine, err := accelring.ParseEngine(*engineFlag)
	if err != nil {
		logger.Print(err)
		return 2
	}
	if engine == accelring.EngineRingPaxos && len(members) == 0 {
		logger.Print("-engine ringpaxos requires a static -members list")
		return 2
	}
	policy, err := fanout.ParsePolicy(*fanoutPolicy)
	if err != nil {
		logger.Printf("bad -fanout-policy: %v", err)
		return 2
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
		Members:   members,
		Protocol:  protocol,
		Engine:    engine,
		Windows: accelring.Windows{
			Personal:    *personalWindow,
			Accelerated: *accelWindow,
		},
		TokenLossTimeout: *tokenLoss,
		PackThreshold:    *pack,
		Tracer:           maybeTracer(*verbose, logger),
		WatchdogInterval: *watchdogInterval,
		OnStall: func(r accelring.StallReport) {
			logger.Printf("watchdog: protocol loop stalled: %+v", r)
		},
	})
	if err != nil {
		logger.Print(err)
		return 1
	}

	os.Remove(*socket) // a previous daemon's leftover
	ln, err := net.Listen("unix", *socket)
	if err != nil {
		logger.Print(err)
		node.Close()
		return 1
	}
	d, err := daemon.New(daemon.Config{
		Node:         node,
		Listener:     ln,
		Logger:       logger,
		Fanout:       fanout.Config{QueueDepth: *fanoutQueue, Policy: policy, HistoryDepth: *resumeHistory},
		ResumeWindow: *resumeWindow,
	})
	if err != nil {
		logger.Print(err)
		node.Close()
		return 1
	}
	logger.Printf("daemon %d serving on %s (engine %s, protocol %s, fanout policy %s)", *id, *socket, engine, *protoFlag, policy)

	// First signal: graceful drain — stop accepting, announce the drain to
	// clients, flush the bounded fan-out queues within the budget, then
	// leave the ring. A second signal forces immediate exit.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	logger.Printf("%s: draining (budget %s; signal again to force exit)", s, *drainTimeout)
	drained := make(chan error, 1)
	go func() { drained <- d.Drain(*drainTimeout) }()
	select {
	case err := <-drained:
		if err != nil {
			logger.Printf("drain: %v", err)
			return 1
		}
		return 0
	case s = <-sig:
		logger.Printf("%s: forcing exit", s)
		d.Close()
		return 1
	}
}

// parseMembers parses -members: comma-separated IDs, each of which must
// have a -peers entry, or the token could never be sent to it. Empty means
// dynamic discovery (nil).
func parseMembers(s string, peers map[accelring.ParticipantID]accelring.Peer) ([]accelring.ParticipantID, error) {
	if s == "" {
		return nil, nil
	}
	var members []accelring.ParticipantID
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad -members entry %q: %v", part, err)
		}
		id := accelring.ParticipantID(v)
		if _, ok := peers[id]; !ok {
			return nil, fmt.Errorf("-members names %d, which has no -peers entry", v)
		}
		members = append(members, id)
	}
	return members, nil
}

// logTracer logs protocol state transitions. The daemon logs
// configuration installs itself, from the node's events.
type logTracer struct {
	log *log.Logger
}

func (t *logTracer) StateChanged(from, to accelring.State) {
	t.log.Printf("state %s -> %s", from, to)
}

func maybeTracer(verbose bool, logger *log.Logger) accelring.Tracer {
	if !verbose {
		return nil
	}
	return &logTracer{log: logger}
}
