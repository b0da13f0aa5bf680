package netsim

import (
	"encoding/binary"
	"strconv"
	"time"

	"accelring/internal/core"
	"accelring/internal/wire"
)

// packet is a frame in flight. The simulator never serializes frames; it
// carries them typed, plus their modeled wire size and the socket they
// arrive on (unicasts reach the token socket, multicasts the data socket,
// as in the real transports).
type packet struct {
	frame   wire.Frame
	unicast bool
	bytes   int
	frags   int
}

// simNode is one ring participant: a single-threaded protocol process with
// bounded receive socket buffers, a NIC, and a local sending client.
type simNode struct {
	sim *Sim
	eng core.OrderingEngine
	idx int // index into sim.nodes and sim.ports

	cpuFree time.Duration
	running bool // a run event is scheduled

	tokenQ      []packet
	dataQ       []packet
	tokenQBytes int
	dataQBytes  int
	submitQ     []time.Duration // client submit times awaiting daemon pickup

	nicFree time.Duration

	sendSeq uint32 // per-node submission counter for captured runs

	timers map[core.TimerKind]time.Duration
}

func newSimNode(s *Sim, idx int, eng core.OrderingEngine) *simNode {
	return &simNode{
		sim:    s,
		eng:    eng,
		idx:    idx,
		timers: make(map[core.TimerKind]time.Duration),
	}
}

// injectSubmission models the client handing one message to the daemon: the
// submit timestamp is taken at the client, and the submission reaches the
// daemon's queue one IPC delay later.
func (n *simNode) injectSubmission(clientTime time.Duration) {
	if clientTime >= n.sim.measureFrom && clientTime <= n.sim.measureTo {
		n.sim.submitted++
	}
	arrival := clientTime + n.sim.cfg.Profile.IPCDelay
	n.sim.schedule(arrival, func() {
		n.submitQ = append(n.submitQ, clientTime)
		n.scheduleRun()
	})
}

// receive enqueues an arriving packet into the appropriate bounded socket
// buffer (tokens and data use separate sockets, as in the real
// implementations) and wakes the processing loop.
func (n *simNode) receive(p packet) {
	if p.unicast {
		if n.tokenQBytes+p.bytes > n.sim.cfg.Network.SockBufToken {
			n.sim.sockDrops++
			return
		}
		n.tokenQ = append(n.tokenQ, p)
		n.tokenQBytes += p.bytes
	} else {
		if n.dataQBytes+p.bytes > n.sim.cfg.Network.SockBufData {
			n.sim.sockDrops++
			return
		}
		n.dataQ = append(n.dataQ, p)
		n.dataQBytes += p.bytes
	}
	n.scheduleRun()
}

// scheduleRun arranges for the node's processing loop to run as soon as its
// CPU is free.
func (n *simNode) scheduleRun() {
	if n.running {
		return
	}
	n.running = true
	at := n.cpuFree
	if at < n.sim.now {
		at = n.sim.now
	}
	n.sim.schedule(at, n.run)
}

// run processes exactly one input (token, data message, or a small batch of
// client submissions) per invocation, honoring the engine's token/data
// priority policy, then re-schedules itself while work remains.
func (n *simNode) run() {
	n.running = false
	now := n.sim.now
	if n.cpuFree < now {
		n.cpuFree = now
	}

	prof := &n.sim.cfg.Profile
	switch {
	case len(n.tokenQ) > 0 && n.eng.Progress().TokenPriority:
		n.processToken(prof)
	case len(n.dataQ) > 0:
		n.processData(prof)
	case len(n.tokenQ) > 0:
		n.processToken(prof)
	case len(n.submitQ) > 0:
		n.processSubmissions(prof, 8)
	default:
		return
	}

	// Keep client submissions from starving while the network is busy:
	// after each network message, accept a couple of queued submissions.
	if len(n.submitQ) > 0 {
		n.processSubmissions(prof, 2)
	}

	if len(n.tokenQ) > 0 || len(n.dataQ) > 0 || len(n.submitQ) > 0 {
		n.running = true
		n.sim.schedule(n.cpuFree, n.run)
	}
}

func (n *simNode) processToken(prof *Profile) {
	p := n.tokenQ[0]
	n.tokenQ = n.tokenQ[1:]
	n.tokenQBytes -= p.bytes
	n.cpuFree += prof.TokenCost
	n.execute(n.eng.Step(core.Input{Frame: p.frame}))
}

func (n *simNode) processData(prof *Profile) {
	p := n.dataQ[0]
	n.dataQ = n.dataQ[1:]
	n.dataQBytes -= p.bytes
	n.cpuFree += prof.DataRecvCost
	if p.frame.Kind() == wire.KindData {
		n.cpuFree += perKB(prof.RecvPerKB, n.sim.cfg.PayloadSize)
	}
	if p.frags > 0 {
		n.cpuFree += time.Duration(p.frags) * prof.RecvPerFrag
	}
	n.execute(n.eng.Step(core.Input{Frame: p.frame}))
}

func (n *simNode) processSubmissions(prof *Profile, limit int) {
	for i := 0; i < limit && len(n.submitQ) > 0; i++ {
		clientTime := n.submitQ[0]
		n.submitQ = n.submitQ[1:]
		n.cpuFree += prof.SubmitCost
		size := 8
		if n.sim.capture != nil {
			size = 16
		}
		payload := make([]byte, size)
		binary.BigEndian.PutUint64(payload, uint64(clientTime))
		if n.sim.capture != nil {
			// Captured runs also tag the payload with (sender, sequence) so
			// the conformance checker can key deliveries and check FIFO.
			n.sendSeq++
			binary.BigEndian.PutUint32(payload[8:12], uint32(n.idx+1))
			binary.BigEndian.PutUint32(payload[12:16], n.sendSeq)
		}
		// The engine never inspects payloads; the simulator models the
		// configured payload size on the wire while carrying only the
		// submit timestamp (and capture tag) in memory.
		actions, err := n.eng.Submit(payload, n.sim.cfg.Service)
		if err != nil {
			// The backlog cap is sized so this cannot happen in a valid
			// experiment; losing the message only lowers achieved
			// throughput, which the stability check reports.
			return
		}
		n.execute(actions)
	}
}

// execute carries out the engine's actions in order, advancing the node's
// CPU for every send and delivery. The position of the token send among the
// data sends is what produces (or, for the original protocol, forbids)
// sending overlap between ring neighbours.
func (n *simNode) execute(actions []core.Action) {
	prof := &n.sim.cfg.Profile
	for _, a := range actions {
		switch act := a.(type) {
		case core.SendData:
			n.cpuFree += prof.SendCost + perKB(prof.SendPerKB, n.sim.cfg.PayloadSize)
			body := prof.HeaderBytes + n.sim.cfg.PayloadSize
			pkt := packet{frame: act.Msg, bytes: n.sim.wireBytes(body), frags: n.sim.fragments(body)}
			n.transmit(pkt, -1)
		case core.Send:
			// Everything but client data is modeled at its encoded size,
			// with no per-payload cost. A zero To multicasts (dst -1).
			n.cpuFree += prof.SendCost
			pkt := packet{frame: act.Frame, unicast: act.To != 0, bytes: n.sim.wireBytes(act.Frame.EncodedSize())}
			n.transmit(pkt, int(act.To)-1)
		case core.Deliver:
			n.cpuFree += prof.DeliverCost + perKB(prof.DeliverPerKB, n.sim.cfg.PayloadSize)
			n.recordDelivery(act.Msg)
			n.captureDelivery(act.Msg)
		case core.DeliverConfig:
			// Configuration events are not measured, but captured runs log
			// them so the conformance checker can segment delivery epochs.
			if n.sim.capture != nil {
				n.sim.capture.Node(n.logName()).Install(act.Config.ID, act.Config.Members, act.Transitional)
			}
		case core.SetTimer:
			n.setTimer(act.Kind, act.After)
		case core.CancelTimer:
			delete(n.timers, act.Kind)
		}
	}
}

// transmit serializes a packet out of the node's NIC and through the
// switch. dst < 0 multicasts to every other node (the switch replicates to
// each output port); otherwise the packet is unicast to the given node
// index. A unicast to self (singleton ring) is looped back locally.
func (n *simNode) transmit(p packet, dst int) {
	txStart := n.cpuFree
	if n.nicFree > txStart {
		txStart = n.nicFree
	}
	txEnd := txStart + n.sim.txDuration(p.bytes)
	n.nicFree = txEnd

	if dst == n.idx {
		target := n.sim.nodes[dst]
		n.sim.schedule(txEnd, func() { target.receive(p) })
		return
	}
	for i := range n.sim.nodes {
		if i == n.idx {
			continue
		}
		if dst >= 0 && i != dst {
			continue
		}
		arrive, dropped := n.sim.forward(txEnd, i, p.bytes)
		if dropped {
			continue
		}
		target := n.sim.nodes[i]
		if f := n.sim.fault; f != nil {
			// The injected fault acts on the wire between switch and
			// destination NIC: loss discards the copy after it consumed
			// port bandwidth; duplication and delay add delivery events.
			v := f.Decide(txEnd, wire.ParticipantID(n.idx+1), wire.ParticipantID(i+1), p.frame.Kind())
			if v.Drop {
				n.sim.faultDrops++
				continue
			}
			arrive += v.Delay
			if v.Dup {
				n.sim.faultDups++
				n.sim.schedule(arrive, func() { target.receive(p) })
			}
		}
		n.sim.schedule(arrive, func() { target.receive(p) })
	}
}

// recordDelivery samples end-to-end latency: client submit time (embedded
// in the payload) to the moment the receiving client sees the message, one
// IPC delay after the daemon delivers it.
func (n *simNode) recordDelivery(m *wire.DataMessage) {
	if len(m.Payload) < 8 {
		return
	}
	clientTime := time.Duration(binary.BigEndian.Uint64(m.Payload))
	if clientTime < n.sim.measureFrom || clientTime > n.sim.measureTo {
		return
	}
	clientRecv := n.cpuFree + n.sim.cfg.Profile.IPCDelay
	n.sim.latency.Add(clientRecv - clientTime)
	if n.idx == 0 {
		n.sim.delivered++
	}
}

// logName is the node's name in the captured delivery log.
func (n *simNode) logName() string {
	return strconv.Itoa(n.idx + 1)
}

// captureDelivery appends the delivery to the run's conformance log, keyed
// by the (sender, sequence) tag embedded in captured payloads.
func (n *simNode) captureDelivery(m *wire.DataMessage) {
	if n.sim.capture == nil || len(m.Payload) < 16 {
		return
	}
	sender := binary.BigEndian.Uint32(m.Payload[8:12])
	seq := binary.BigEndian.Uint32(m.Payload[12:16])
	key := strconv.Itoa(int(sender)) + "-" + strconv.Itoa(int(seq))
	n.sim.capture.Node(n.logName()).Deliver(key, wire.ParticipantID(sender), uint64(seq), m.Service)
}

// perKB scales a per-kilobyte cost to the given byte count.
func perKB(d time.Duration, bytes int) time.Duration {
	return d * time.Duration(bytes) / 1024
}

func (n *simNode) setTimer(kind core.TimerKind, after time.Duration) {
	deadline := n.sim.now + after
	if n.cpuFree > n.sim.now {
		deadline = n.cpuFree + after
	}
	n.timers[kind] = deadline
	n.sim.schedule(deadline, func() {
		if d, ok := n.timers[kind]; ok && d == deadline {
			delete(n.timers, kind)
			n.execute(n.eng.Step(core.Input{Timer: kind}))
		}
	})
}
