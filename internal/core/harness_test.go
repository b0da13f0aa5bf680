package core

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"accelring/internal/evscheck"
	"accelring/internal/faultplan"
	"accelring/internal/wire"
)

// The tests in this file drive whole rings of engines through a
// deterministic, virtual-time harness: engine actions are executed
// immediately, sends become future events on a priority queue, and timers
// are modelled exactly as a runtime would. No goroutines, no wall clock.

const defaultHopDelay = 100 * time.Microsecond

// delivery records one application-visible event at a node.
type delivery struct {
	msg    *wire.DataMessage // nil for configuration events
	config Configuration
	trans  bool
}

type hevent struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type heventQueue []*hevent

func (q heventQueue) Len() int { return len(q) }
func (q heventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q heventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *heventQueue) Push(x any)   { *q = append(*q, x.(*hevent)) }
func (q *heventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

type hnode struct {
	id        wire.ParticipantID
	eng       *Engine
	timers    map[TimerKind]time.Duration // armed deadline per kind
	delivered []delivery
	crashed   bool
	// prior holds the delivery histories of earlier incarnations of this
	// node (one entry per crash that was followed by a restart).
	prior [][]delivery
}

// appMsgs returns the node's delivered application messages.
func (n *hnode) appMsgs() []*wire.DataMessage {
	var out []*wire.DataMessage
	for _, d := range n.delivered {
		if d.msg != nil {
			out = append(out, d.msg)
		}
	}
	return out
}

// configs returns the node's delivered configuration events.
func (n *hnode) configs() []delivery {
	var out []delivery
	for _, d := range n.delivered {
		if d.msg == nil {
			out = append(out, d)
		}
	}
	return out
}

type harness struct {
	t      *testing.T
	tmpl   Config
	nodes  []*hnode
	byID   map[wire.ParticipantID]*hnode
	now    time.Duration
	events heventQueue
	evSeq  uint64
	delay  time.Duration

	// fault, when non-nil, is consulted for every packet transmission; it
	// can drop, duplicate or delay packets and enforces the fault plan's
	// partition schedule. Installed by applyPlan.
	fault *faultplan.Injector

	// partition maps node ID to a group number; messages only flow between
	// nodes in the same group. Empty map means fully connected.
	partition map[wire.ParticipantID]int
	// dropData, when non-nil, decides whether a multicast data message is
	// lost on the way from one node to another.
	dropData func(from, to wire.ParticipantID, m *wire.DataMessage) bool
	// dropToken, when non-nil, decides whether a token transmission is
	// lost.
	dropToken func(from, to wire.ParticipantID, tok *wire.Token) bool
	// checkInvariantsEveryStep runs the engine invariant checker after
	// every handler invocation.
	checkInvariantsEveryStep bool
	// dupData, when non-nil, decides whether to deliver a data message
	// twice (UDP can duplicate packets).
	dupData func(from, to wire.ParticipantID, m *wire.DataMessage) bool
	// jitter, when non-nil, returns extra per-packet delivery delay;
	// unequal delays reorder packets in flight, as UDP may.
	jitter func() time.Duration
}

// newHarness builds n engines with IDs 1..n and the given config template
// (MyID is filled in per node).
func newHarness(t *testing.T, n int, tmpl Config) *harness {
	t.Helper()
	h := &harness{
		t:         t,
		tmpl:      tmpl,
		byID:      make(map[wire.ParticipantID]*hnode, n),
		delay:     defaultHopDelay,
		partition: map[wire.ParticipantID]int{},
	}
	for i := 1; i <= n; i++ {
		cfg := h.nodeConfig(wire.ParticipantID(i))
		eng, err := New(cfg)
		if err != nil {
			t.Fatalf("New engine %d: %v", i, err)
		}
		node := &hnode{id: cfg.MyID, eng: eng, timers: make(map[TimerKind]time.Duration)}
		h.nodes = append(h.nodes, node)
		h.byID[cfg.MyID] = node
	}
	return h
}

// nodeConfig instantiates the harness config template for one node, with
// short timers so membership tests run in small virtual time.
func (h *harness) nodeConfig(id wire.ParticipantID) Config {
	cfg := h.tmpl
	cfg.MyID = id
	if cfg.TokenLossTimeout == 0 {
		cfg.TokenLossTimeout = 50 * time.Millisecond
	}
	if cfg.TokenRetransPeriod == 0 {
		cfg.TokenRetransPeriod = 10 * time.Millisecond
	}
	if cfg.JoinPeriod == 0 {
		cfg.JoinPeriod = 5 * time.Millisecond
	}
	if cfg.ConsensusTimeout == 0 {
		cfg.ConsensusTimeout = 25 * time.Millisecond
	}
	if cfg.CommitTimeout == 0 {
		cfg.CommitTimeout = 25 * time.Millisecond
	}
	return cfg
}

func (h *harness) node(id wire.ParticipantID) *hnode { return h.byID[id] }

func (h *harness) schedule(after time.Duration, fn func()) {
	h.evSeq++
	heap.Push(&h.events, &hevent{at: h.now + after, seq: h.evSeq, fn: fn})
}

// connected reports whether traffic flows from a to b.
func (h *harness) connected(a, b wire.ParticipantID) bool {
	if h.node(a) == nil || h.node(b) == nil || h.node(a).crashed || h.node(b).crashed {
		return false
	}
	return h.partition[a] == h.partition[b]
}

// execute runs an action list produced by node's engine.
func (h *harness) execute(n *hnode, actions []Action) {
	if h.checkInvariantsEveryStep {
		n.eng.checkInvariants(h.t)
	}
	for _, a := range actions {
		switch act := a.(type) {
		case SendData:
			h.multicastData(n, act.Msg)
		case Send:
			switch f := act.Frame.(type) {
			case *wire.Token:
				h.sendToken(n, act.To, f)
			case *wire.JoinMessage:
				h.multicastJoin(n, f)
			case *wire.CommitToken:
				h.sendCommit(n, act.To, f)
			default:
				h.t.Fatalf("unexpected frame %T", f)
			}
		case Deliver:
			n.delivered = append(n.delivered, delivery{msg: act.Msg})
		case DeliverConfig:
			n.delivered = append(n.delivered, delivery{config: act.Config, trans: act.Transitional})
		case SetTimer:
			deadline := h.now + act.After
			n.timers[act.Kind] = deadline
			kind := act.Kind
			h.schedule(act.After, func() {
				if n.crashed {
					return
				}
				if d, ok := n.timers[kind]; ok && d == deadline {
					delete(n.timers, kind)
					h.execute(n, n.eng.Step(Input{Timer: kind}))
				}
			})
		case CancelTimer:
			delete(n.timers, act.Kind)
		default:
			h.t.Fatalf("unknown action %T", a)
		}
	}
}

// faultVerdict consults the installed fault plan for one transmission.
func (h *harness) faultVerdict(from, to wire.ParticipantID, kind wire.Kind) faultplan.Verdict {
	if h.fault == nil {
		return faultplan.Verdict{}
	}
	return h.fault.Decide(h.now, from, to, kind)
}

func (h *harness) multicastData(from *hnode, m *wire.DataMessage) {
	for _, to := range h.nodes {
		if to.id == from.id || !h.connected(from.id, to.id) {
			continue
		}
		if h.dropData != nil && h.dropData(from.id, to.id, m) {
			continue
		}
		v := h.faultVerdict(from.id, to.id, wire.KindData)
		if v.Drop {
			continue
		}
		copies := 1
		if v.Dup || (h.dupData != nil && h.dupData(from.id, to.id, m)) {
			copies = 2
		}
		for c := 0; c < copies; c++ {
			cp := *m
			target := to
			delay := h.delay + v.Delay
			if h.jitter != nil {
				delay += h.jitter()
			}
			h.schedule(delay, func() {
				if !target.crashed {
					h.execute(target, target.eng.Step(Input{Frame: &cp}))
				}
			})
		}
	}
}

func (h *harness) sendToken(from *hnode, toID wire.ParticipantID, tok *wire.Token) {
	if !h.connected(from.id, toID) && toID != from.id {
		return
	}
	if h.dropToken != nil && h.dropToken(from.id, toID, tok) {
		return
	}
	v := h.faultVerdict(from.id, toID, wire.KindToken)
	if v.Drop {
		return
	}
	target := h.node(toID)
	copies := 1
	if v.Dup {
		copies = 2
	}
	for c := 0; c < copies; c++ {
		cp := tok.Clone()
		h.schedule(h.delay+v.Delay, func() {
			if target != nil && !target.crashed {
				h.execute(target, target.eng.Step(Input{Frame: cp}))
			}
		})
	}
}

func (h *harness) multicastJoin(from *hnode, j *wire.JoinMessage) {
	for _, to := range h.nodes {
		if to.id == from.id || !h.connected(from.id, to.id) {
			continue
		}
		v := h.faultVerdict(from.id, to.id, wire.KindJoin)
		if v.Drop {
			continue
		}
		cp := *j
		target := to
		h.schedule(h.delay+v.Delay, func() {
			if !target.crashed {
				h.execute(target, target.eng.Step(Input{Frame: &cp}))
			}
		})
	}
}

func (h *harness) sendCommit(from *hnode, toID wire.ParticipantID, ct *wire.CommitToken) {
	if !h.connected(from.id, toID) && toID != from.id {
		return
	}
	v := h.faultVerdict(from.id, toID, wire.KindCommit)
	if v.Drop {
		return
	}
	cp := ct.Clone()
	target := h.node(toID)
	h.schedule(h.delay+v.Delay, func() {
		if target != nil && !target.crashed {
			h.execute(target, target.eng.Step(Input{Frame: cp}))
		}
	})
}

// startStatic boots every node with the same static ring (all node IDs).
func (h *harness) startStatic() {
	members := make([]wire.ParticipantID, 0, len(h.nodes))
	for _, n := range h.nodes {
		members = append(members, n.id)
	}
	for _, n := range h.nodes {
		actions, err := n.eng.Start(members)
		if err != nil {
			h.t.Fatalf("Start(%s): %v", n.id, err)
		}
		h.execute(n, actions)
	}
}

// startGather boots every node through membership formation.
func (h *harness) startGather() {
	for _, n := range h.nodes {
		h.startDiscover(n)
	}
}

// submit queues an application message at a node immediately.
func (h *harness) submit(id wire.ParticipantID, payload []byte, svc wire.Service) {
	n := h.node(id)
	if _, err := n.eng.Submit(payload, svc); err != nil {
		h.t.Fatalf("Submit at %s: %v", id, err)
	}
}

// run advances virtual time by d, processing all events due in that span.
func (h *harness) run(d time.Duration) {
	deadline := h.now + d
	for h.events.Len() > 0 {
		next := h.events[0]
		if next.at > deadline {
			break
		}
		heap.Pop(&h.events)
		h.now = next.at
		next.fn()
	}
	h.now = deadline
}

// crash marks a node dead: it stops receiving, sending and firing timers.
func (h *harness) crash(id wire.ParticipantID) {
	h.node(id).crashed = true
}

// restart revives a crashed node with a fresh engine (a new incarnation):
// the old delivery history is archived, all timers are cleared, and the
// new engine starts membership formation to rejoin the ring.
func (h *harness) restart(id wire.ParticipantID) {
	n := h.node(id)
	if !n.crashed {
		h.t.Fatalf("restart(%s): node is not crashed", id)
	}
	eng, err := New(h.nodeConfig(id))
	if err != nil {
		h.t.Fatalf("restart(%s): %v", id, err)
	}
	n.prior = append(n.prior, n.delivered)
	n.delivered = nil
	n.eng = eng
	n.timers = make(map[TimerKind]time.Duration)
	n.crashed = false
	h.startDiscover(n)
}

// startDiscover boots one node through membership formation.
func (h *harness) startDiscover(n *hnode) {
	actions, err := n.eng.Start(nil)
	if err != nil {
		h.t.Fatalf("Start(%s): %v", n.id, err)
	}
	h.execute(n, actions)
}

// applyPlan installs a fault plan: link faults and partitions are enforced
// on every future transmission, and the plan's crash/restart events are
// scheduled at their virtual times. Call before starting the nodes.
func (h *harness) applyPlan(p *faultplan.Plan) {
	h.fault = p.Injector()
	for _, ev := range p.NodeEvents() {
		ev := ev
		switch ev.Kind {
		case faultplan.EventCrash:
			h.schedule(ev.At-h.now, func() { h.crash(ev.Node) })
		case faultplan.EventRestart:
			h.schedule(ev.At-h.now, func() { h.restart(ev.Node) })
			// Partition and heal events are enforced by the injector on
			// every transmission; nothing to schedule here.
		}
	}
}

// trySubmit queues an application message at a node, tolerating crashed
// nodes and full backlogs (chaos traffic generators must not abort the
// test when the plan has just killed their node).
func (h *harness) trySubmit(id wire.ParticipantID, payload []byte, svc wire.Service) bool {
	n := h.node(id)
	if n.crashed {
		return false
	}
	_, err := n.eng.Submit(payload, svc)
	return err == nil
}

// payload builds a distinguishable payload.
func payload(node wire.ParticipantID, i int) []byte {
	return []byte(fmt.Sprintf("m-%d-%d", node, i))
}

// checkTotalOrder verifies that the application message streams delivered
// by the given nodes are consistent: each pair's payload sequences must be
// equal up to the length of the shorter one.
func (h *harness) checkTotalOrder(ids ...wire.ParticipantID) {
	h.t.Helper()
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			a := h.node(ids[i]).appMsgs()
			b := h.node(ids[j]).appMsgs()
			n := len(a)
			if len(b) < n {
				n = len(b)
			}
			for k := 0; k < n; k++ {
				if string(a[k].Payload) != string(b[k].Payload) {
					h.t.Fatalf("total order violated: node %s delivered %q at %d, node %s delivered %q",
						ids[i], a[k].Payload, k, ids[j], b[k].Payload)
				}
			}
		}
	}
}

// checkAllDelivered verifies that each listed node delivered exactly want
// application messages.
func (h *harness) checkAllDelivered(want int, ids ...wire.ParticipantID) {
	h.t.Helper()
	for _, id := range ids {
		if got := len(h.node(id).appMsgs()); got != want {
			h.t.Fatalf("node %s delivered %d messages, want %d", id, got, want)
		}
	}
}

// evLog converts every node's history (all incarnations) into the
// conformance checker's log format. Harness payloads ("m-<sender>-<idx>")
// provide the message key and the per-sender FIFO counter; other payloads
// are checked for ordering and duplication only.
func (h *harness) evLog() evscheck.Log {
	l := evscheck.Log{}
	for _, n := range h.nodes {
		for inc, hist := range n.prior {
			nl := l.Node(logName(n.id, inc))
			nl.Crashed = true // an archived incarnation ended in a crash
			appendEvents(nl, hist)
		}
		nl := l.Node(logName(n.id, len(n.prior)))
		nl.Crashed = n.crashed
		appendEvents(nl, n.delivered)
	}
	return l
}

// logName labels one incarnation of a node: "3" for the first, "3#2" for
// the second (after one restart), and so on.
func logName(id wire.ParticipantID, incarnation int) string {
	if incarnation == 0 {
		return fmt.Sprintf("%d", uint32(id))
	}
	return fmt.Sprintf("%d#%d", uint32(id), incarnation+1)
}

func appendEvents(nl *evscheck.NodeLog, hist []delivery) {
	for _, d := range hist {
		if d.msg == nil {
			nl.Install(d.config.ID, d.config.Members, d.trans)
			continue
		}
		key := string(d.msg.Payload)
		var sender, idx int
		if _, err := fmt.Sscanf(key, "m-%d-%d", &sender, &idx); err == nil {
			nl.Deliver(key, wire.ParticipantID(sender), uint64(idx)+1, d.msg.Service)
		} else {
			nl.Deliver(key, 0, 0, d.msg.Service)
		}
	}
}

// lossEvery returns a drop function that drops every k-th matching data
// message deterministically.
func lossEvery(k int) func(from, to wire.ParticipantID, m *wire.DataMessage) bool {
	count := 0
	return func(from, to wire.ParticipantID, m *wire.DataMessage) bool {
		count++
		return count%k == 0
	}
}

// randomLoss returns a drop function with probability p and a fixed seed.
func randomLoss(seed int64, p float64) func(from, to wire.ParticipantID, m *wire.DataMessage) bool {
	rng := rand.New(rand.NewSource(seed))
	return func(from, to wire.ParticipantID, m *wire.DataMessage) bool {
		return rng.Float64() < p
	}
}
