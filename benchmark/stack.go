package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"accelring"
	"accelring/internal/client"
	"accelring/internal/daemon"
	"accelring/internal/fanout"
)

// The values cmd/ringd ships as flag defaults, so the benchmark measures
// what a default deployment runs.
const (
	ringdPackThreshold = 1350
	ringdResumeWindow  = 30 * time.Second
	ringdResumeHistory = 1024
	ringdWatchdog      = 5 * time.Second
)

const benchGroup = "bench"

// stackSpec selects how tall a stack is. The workloads run on fullStack;
// the shorter ones are the arms of the layer budget.
type stackSpec struct {
	name    string
	members int  // ring size
	udp     bool // UDP loopback, else the in-memory network
	daemons bool // wrap every node in a daemon and drive it through clients
}

var (
	fullStack    = stackSpec{name: "full", members: 3, udp: true, daemons: true}
	armLibMem    = stackSpec{name: "arm.lib.mem", members: 3}
	armLibUDP    = stackSpec{name: "arm.lib.udp", members: 3, udp: true}
	armDaemonOne = stackSpec{name: "arm.daemon.single", members: 1, udp: true, daemons: true}
)

// port is one load-generator endpoint: a way to submit a payload for
// ordered delivery and the stream of ordered deliveries coming back.
type port struct {
	send func(payload []byte) error
	// retains reports that send keeps the payload, so the caller must hand
	// it a fresh slice every time.
	retains bool
	// pump feeds every delivered payload to onMsg (groupSeq is the
	// daemon's per-group sequence, 0 without a daemon) and anything that
	// must not happen during a run to onBad. It returns when the stream
	// closes.
	pump func(onMsg func(payload []byte, groupSeq uint64), onBad func(what string))
}

// stack is a running system under test with its two load ports: A on the
// first member, B on the last. Members in between carry ring traffic only.
type stack struct {
	spec    stackSpec
	a, b    port
	nodes   []*accelring.Node
	daemons []*daemon.Daemon
	conns   []*client.Conn // A, B (daemon stacks only)
	closers []func() error
	idle    sync.WaitGroup // event drains of the members without a load port
}

// close tears the stack down, newest component first, and waits for it.
func (s *stack) close() error {
	var errs []error
	for i := len(s.closers) - 1; i >= 0; i-- {
		if err := s.closers[i](); err != nil {
			errs = append(errs, err)
		}
	}
	s.closers = nil
	s.idle.Wait()
	return errors.Join(errs...)
}

// freeUDPPorts returns n distinct loopback UDP ports that were free when it
// looked. It holds all n open until the last is chosen, so the kernel cannot
// hand the same one out twice.
func freeUDPPorts(n int) ([]int, error) {
	ports := make([]int, n)
	for i := range ports {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, err
		}
		defer c.Close()
		ports[i] = c.LocalAddr().(*net.UDPAddr).Port
	}
	return ports, nil
}

// newTransports opens one transport per member.
func newTransports(spec stackSpec, members []accelring.ParticipantID, seed int64) ([]accelring.Transport, error) {
	out := make([]accelring.Transport, len(members))
	if !spec.udp {
		network := accelring.NewMemoryNetwork(seed)
		// No modelled wire delay: the arm exists to time the engine and
		// runtime loop, and UDP loopback adds none either.
		network.SetLatency(0)
		for i, id := range members {
			out[i] = network.Endpoint(id)
		}
		return out, nil
	}
	ports, err := freeUDPPorts(2 * len(members))
	if err != nil {
		return nil, err
	}
	peers := make(map[accelring.ParticipantID]accelring.Peer, len(members))
	for i, id := range members {
		peers[id] = accelring.Peer{Host: "127.0.0.1", DataPort: ports[2*i], TokenPort: ports[2*i+1]}
	}
	for i, id := range members {
		// Unicast-emulated multicast with the batched dataplane on.
		tr, err := accelring.NewUDPTransport(accelring.UDPOptions{ID: id, Peers: peers})
		if err != nil {
			for _, open := range out[:i] {
				open.Close()
			}
			return nil, err
		}
		out[i] = tr
	}
	return out, nil
}

// startStack builds spec for workload w. sockDir holds the daemons' Unix
// sockets; tag keeps their names apart between stacks of one process.
func startStack(spec stackSpec, w workload, sockDir, tag string, seed int64) (_ *stack, err error) {
	s := &stack{spec: spec}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	members := make([]accelring.ParticipantID, spec.members)
	for i := range members {
		members[i] = accelring.ParticipantID(i + 1)
	}
	trs, err := newTransports(spec, members, seed)
	if err != nil {
		return nil, fmt.Errorf("%s: transports: %w", spec.name, err)
	}
	for i, id := range members {
		node, err := accelring.Start(accelring.Options{
			ID:               id,
			Transport:        trs[i],
			Members:          members,
			Engine:           w.engine,
			PackThreshold:    ringdPackThreshold,
			WatchdogInterval: ringdWatchdog,
		})
		if err != nil {
			for _, tr := range trs[i:] {
				tr.Close()
			}
			return nil, fmt.Errorf("%s: node %d: %w", spec.name, id, err)
		}
		s.nodes = append(s.nodes, node)
		s.closers = append(s.closers, node.Close)
	}
	first, last := 0, len(members)-1

	if !spec.daemons {
		s.a, s.b = nodePort(s.nodes[first], w.service), nodePort(s.nodes[last], w.service)
		// Members without a load port still deliver; drain them.
		for _, n := range s.nodes[first+1 : last] {
			s.idle.Add(1)
			go func() {
				defer s.idle.Done()
				for range n.Events() {
				}
			}()
		}
		return s, nil
	}

	socks := make([]string, len(members))
	for i, node := range s.nodes {
		socks[i] = filepath.Join(sockDir, fmt.Sprintf("%s-%d.sock", tag, i+1))
		os.Remove(socks[i])
		ln, err := net.Listen("unix", socks[i])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.name, err)
		}
		d, err := daemon.New(daemon.Config{
			Node:         node,
			Listener:     ln,
			Fanout:       fanout.Config{Policy: fanout.PolicyDisconnect, HistoryDepth: ringdResumeHistory},
			ResumeWindow: ringdResumeWindow,
		})
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("%s: daemon %d: %w", spec.name, i+1, err)
		}
		s.daemons = append(s.daemons, d)
		// The daemon owns its node: closing it closes the node too, and
		// Node.Close is idempotent, so both closers may run.
		s.closers = append(s.closers, d.Close)
	}
	for i, at := range []int{first, last} {
		name := string(rune('a' + i))
		conn, err := client.Connect("unix", socks[at], name)
		if err != nil {
			return nil, fmt.Errorf("%s: client %s: %w", spec.name, name, err)
		}
		s.conns = append(s.conns, conn)
		s.closers = append(s.closers, conn.Close)
		if err := conn.Join(benchGroup); err != nil {
			return nil, fmt.Errorf("%s: client %s join: %w", spec.name, name, err)
		}
	}
	for _, conn := range s.conns {
		if err := awaitView(conn, len(s.conns)); err != nil {
			return nil, fmt.Errorf("%s: %w", spec.name, err)
		}
	}
	s.a, s.b = connPort(s.conns[0], w.service), connPort(s.conns[1], w.service)
	return s, nil
}

// viewTimeout bounds the wait for the ring to form and order both joins.
const viewTimeout = 20 * time.Second

// awaitView consumes c's events up to the view that lists every client.
// Nothing but views can arrive yet: no client has sent a message.
func awaitView(c *client.Conn, members int) error {
	deadline := time.After(viewTimeout)
	for {
		select {
		case ev, ok := <-c.Events():
			if !ok {
				return errors.New("connection closed before the group view")
			}
			if v, ok := ev.(client.View); ok && v.Group == benchGroup && len(v.Members) == members {
				return nil
			}
		case <-deadline:
			return fmt.Errorf("no %d-member view of %q within %s", members, benchGroup, viewTimeout)
		}
	}
}

func nodePort(n *accelring.Node, svc accelring.Service) port {
	return port{
		send:    func(p []byte) error { return n.Submit(p, svc) },
		retains: true,
		pump: func(onMsg func([]byte, uint64), _ func(string)) {
			for ev := range n.Events() {
				if m, ok := ev.(accelring.Message); ok {
					onMsg(m.Payload, 0)
				}
			}
		},
	}
}

func connPort(c *client.Conn, svc accelring.Service) port {
	return port{
		send: func(p []byte) error { return c.Multicast(svc, p, benchGroup) },
		pump: func(onMsg func([]byte, uint64), onBad func(string)) {
			for ev := range c.Events() {
				switch e := ev.(type) {
				case client.Message:
					var seq uint64
					if len(e.Seqs) == 1 {
						seq = e.Seqs[0]
					} else {
						onBad(fmt.Sprintf("message with %d group sequences", len(e.Seqs)))
					}
					onMsg(e.Payload, seq)
				case client.View:
					// Both clients stay joined for the whole run.
				default:
					onBad(fmt.Sprintf("%T event", e))
				}
			}
		},
	}
}
