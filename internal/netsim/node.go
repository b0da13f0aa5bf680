package netsim

import (
	"time"

	"accelring/internal/core"
	"accelring/internal/engine"
	"accelring/internal/enginetest"
	"accelring/internal/wire"
)

// node is one ring participant's machine — a single-threaded protocol
// CPU with bounded receive socket buffers, a NIC and a local sending
// client — and the cluster's CPU hook for it.
type node struct {
	s   *sim
	id  wire.ParticipantID
	eng core.OrderingEngine // the current incarnation's

	cpuFree time.Duration
	nicFree time.Duration
	running bool // a run event is scheduled

	token, data socket
	// sent holds the client submit time of every submission that reached
	// the daemon, indexed by its counter i (payload enginetest.Payload(id,
	// i)); sent[taken:] is the queue awaiting daemon pickup.
	sent  []time.Duration
	taken int
}

// socket is a bounded receive buffer of encoded frames (tokens and data
// use separate sockets, as in the real implementations).
type socket struct {
	queue [][]byte
	bytes int
}

// Arrive queues an arriving frame on its socket — unicasts reach the token
// socket, multicasts the data socket — or drops it when that socket's
// buffer is full, and wakes the processing loop.
func (n *node) Arrive(pkt []byte, unicast bool) {
	k, _ := wire.PeekKind(pkt)
	bytes, _ := n.s.size(k, len(pkt))
	sock, limit := &n.data, n.s.cfg.Network.SockBufData
	if unicast {
		sock, limit = &n.token, n.s.cfg.Network.SockBufToken
	}
	if sock.bytes+bytes > limit {
		n.s.sockDrops++
		return
	}
	sock.queue = append(sock.queue, pkt)
	sock.bytes += bytes
	n.wake()
}

// Crash drops the node's queued frames and submissions.
func (n *node) Crash() {
	n.token, n.data = socket{}, socket{}
	n.taken = len(n.sent)
}

// wake arranges for the processing loop to run as soon as the CPU is free.
func (n *node) wake() {
	if !n.running {
		n.running = true
		n.s.c.After(n.cpuFree-n.s.c.Now(), n.run)
	}
}

// run takes one input per invocation — the one engine.Pick chooses from the
// node's sockets and submission queue — then up to engine.SubmitsPerInput
// submissions, paying each its price, and re-schedules itself while work
// remains.
func (n *node) run() {
	n.running = false
	n.cpuFree = max(n.cpuFree, n.s.c.Now())

	q := engine.Queued{Token: len(n.token.queue), Data: len(n.data.queue), Submits: len(n.sent) - n.taken}
	switch src, k := engine.Pick(q, n.eng.Progress().TokenPriority); src {
	case engine.SourceToken:
		n.receive(&n.token, n.s.cfg.Profile.TokenCost)
	case engine.SourceData:
		n.receive(&n.data, n.s.cfg.Profile.DataRecvCost)
	case engine.SourceSubmits:
		n.submit(k)
	default:
		return
	}
	n.submit(engine.SubmitsPerInput)

	if len(n.token.queue) > 0 || len(n.data.queue) > 0 || n.taken < len(n.sent) {
		n.wake()
	}
}

// receive takes the first frame of sock, paying cost plus, for client
// data, the per-byte and per-fragment receive costs.
func (n *node) receive(sock *socket, cost time.Duration) {
	pkt := sock.queue[0]
	sock.queue = sock.queue[1:]
	k, _ := wire.PeekKind(pkt)
	bytes, frags := n.s.size(k, len(pkt))
	sock.bytes -= bytes
	n.cpuFree += cost
	if frags > 0 {
		prof := &n.s.cfg.Profile
		n.cpuFree += perKB(prof.RecvPerKB, n.s.cfg.PayloadSize) + time.Duration(frags)*prof.RecvPerFrag
	}
	n.s.c.Receive(n.id, pkt)
}

// submit hands up to limit queued client submissions to the engine.
func (n *node) submit(limit int) {
	for ; limit > 0 && n.taken < len(n.sent); limit-- {
		i := n.taken
		n.taken++
		n.cpuFree += n.s.cfg.Profile.SubmitCost
		if n.s.c.Submit(n.id, enginetest.Payload(n.id, i), n.s.cfg.Service) != nil {
			return // crashed, or a backlog cap the stability check reports
		}
	}
}

// Stamp advances the CPU for every send and delivery and returns when the
// action takes effect: a send when the NIC has serialized it (once, however
// many destinations it has), a delivery when the CPU is done with it, a
// timer from the node's clock. The position of the token send among the
// data sends is what produces (or, for the original protocol, forbids)
// sending overlap between ring neighbours.
func (n *node) Stamp(a engine.Action) time.Duration {
	prof := &n.s.cfg.Profile
	var f wire.Frame
	switch a := a.(type) {
	case engine.SendData:
		n.cpuFree += prof.SendCost + perKB(prof.SendPerKB, n.s.cfg.PayloadSize)
		f = a.Msg
	case engine.Send:
		n.cpuFree += prof.SendCost
		f = a.Frame
	case engine.Deliver:
		n.cpuFree += prof.DeliverCost + perKB(prof.DeliverPerKB, n.s.cfg.PayloadSize)
		n.s.record(a.Msg, n.cpuFree, n.id == 1)
		return n.cpuFree
	default:
		return max(n.cpuFree, n.s.c.Now())
	}
	bytes, _ := n.s.size(f.Kind(), f.EncodedSize())
	n.nicFree = max(n.cpuFree, n.nicFree) + n.s.txDuration(bytes)
	return n.nicFree
}

// perKB scales a per-kilobyte cost to the given byte count.
func perKB(d time.Duration, bytes int) time.Duration {
	return d * time.Duration(bytes) / 1024
}
