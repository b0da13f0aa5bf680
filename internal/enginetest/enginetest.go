// Package enginetest is the one discrete-event core: it runs N ordering
// engines — anything with Start, Submit and Step — as a cluster in
// deterministic virtual time, with no goroutines and no wall clock, so a
// run is a pure function of its inputs and a failure reproduces from its
// seed alone. It does what the runtime loop does and no more: every frame
// is encoded once and decoded per receiver through a wire.Decoder, so each
// engine meets the aliasing rules it meets in production; armed timers
// fire at their deadlines; a crashed node stops receiving, sending and
// firing timers, while frames it already sent are still delivered, as a
// network would; and deliveries are recorded per incarnation.
//
// Two hooks carry a cost model, internal/netsim's, and their defaults cost
// nothing: Fault decides each transmission's fate and latency (the link),
// and a node's CPU queues its input and prices its work.
package enginetest

import (
	"bytes"
	"container/heap"
	"errors"
	"fmt"
	"strconv"
	"time"

	"accelring/internal/engine"
	"accelring/internal/evscheck"
	"accelring/internal/faultplan"
	"accelring/internal/wire"
)

// ErrCrashed is returned when submitting to a crashed node.
var ErrCrashed = errors.New("enginetest: node is crashed")

// Delay is the latency of every transmission on the default link.
const Delay = 100 * time.Microsecond

// Engine is the part of the engine contract (core.OrderingEngine) the
// driver calls.
type Engine interface {
	Start(members []wire.ParticipantID) ([]engine.Action, error)
	Submit(payload []byte, service wire.Service) ([]engine.Action, error)
	Step(in engine.Input) []engine.Action
}

// Factory builds incarnation inc (0 for the first) of node id.
type Factory func(id wire.ParticipantID, inc uint32) Engine

// Fault decides the fate of one transmission of f, leaving node from for
// node to at virtual time now: dropped, delivered once or twice, and its
// whole latency in Verdict.Delay. A multicast asks once per destination.
type Fault func(now time.Duration, from, to wire.ParticipantID, f wire.Frame) faultplan.Verdict

// CPU models one node's processor. Nil, the default, takes every frame
// the moment it arrives and costs nothing.
type CPU interface {
	// Arrive queues pkt, a frame that reached the node just now — on its
	// token socket when unicast — until the model hands it to Receive.
	Arrive(pkt []byte, unicast bool)
	// Stamp prices action a, just returned by the node's engine, and
	// returns the virtual time it takes effect: when a send leaves, when
	// a timer starts to run, when a delivery happens.
	Stamp(a engine.Action) time.Duration
	// Crash drops everything the node has queued.
	Crash()
}

// Event is one application-visible event: a delivered message, or, when
// Msg is nil, a configuration install.
type Event struct {
	Msg          *wire.DataMessage
	Config       engine.Configuration
	Transitional bool
}

// Node is one cluster member.
type Node struct {
	ID      wire.ParticipantID
	Engine  Engine
	CPU     CPU
	Crashed bool
	// Incarnations holds each incarnation's events, the current one last.
	Incarnations [][]Event

	timers map[engine.TimerKind]uint64 // armed kind → seq of its firing event
}

// Events returns the current incarnation's events.
func (n *Node) Events() []Event { return n.Incarnations[len(n.Incarnations)-1] }

// Payloads returns the payloads the current incarnation delivered.
func (n *Node) Payloads() []string {
	var out []string
	for _, ev := range n.Events() {
		if ev.Msg != nil {
			out = append(out, string(ev.Msg.Payload))
		}
	}
	return out
}

// Cluster is a set of nodes on one virtual network.
type Cluster struct {
	// Members is what Start and Restart pass to the engines: every node's
	// ID unless changed before Start, nil for membership discovery.
	Members []wire.ParticipantID
	// Fault, when set, decides every transmission; the default link
	// delivers every copy once, after Delay.
	Fault Fault
	// FaultDrops and FaultDups count the copies ApplyPlan's injector
	// dropped and duplicated.
	FaultDrops, FaultDups uint64
	// AfterStep, when set, runs after every call into an engine, before
	// its actions execute.
	AfterStep func(*Node)
	Nodes     []*Node

	factory Factory
	now     time.Duration
	events  eventQueue
	seq     uint64
	dec     wire.Decoder
}

// New builds a cluster of n nodes with IDs 1..n; nothing is started.
func New(n int, f Factory) *Cluster {
	c := &Cluster{factory: f}
	for id := wire.ParticipantID(1); int(id) <= n; id++ {
		c.Members = append(c.Members, id)
		c.Nodes = append(c.Nodes, &Node{ID: id, Engine: f(id, 0), Incarnations: [][]Event{nil},
			timers: map[engine.TimerKind]uint64{}})
	}
	return c
}

// Node returns node id, which must be in 1..n.
func (c *Cluster) Node(id wire.ParticipantID) *Node { return c.Nodes[id-1] }

// Now is the current virtual time.
func (c *Cluster) Now() time.Duration { return c.now }

// Start starts every node with Members. An engine that refuses to start
// means the cluster was built wrong, so Start panics.
func (c *Cluster) Start() {
	for _, n := range c.Nodes {
		c.StartNode(n.ID, c.Members)
	}
}

// StartNode starts one node with its own member list; it panics like
// Start.
func (c *Cluster) StartNode(id wire.ParticipantID, members []wire.ParticipantID) {
	n := c.Node(id)
	acts, err := n.Engine.Start(members)
	if err != nil {
		panic(fmt.Sprintf("enginetest: start %s: %v", id, err))
	}
	c.apply(n, acts)
}

// Submit hands one payload to node id's engine and executes its output.
func (c *Cluster) Submit(id wire.ParticipantID, payload []byte, svc wire.Service) error {
	n := c.Node(id)
	if n.Crashed {
		return ErrCrashed
	}
	acts, err := n.Engine.Submit(payload, svc)
	if err != nil {
		return err
	}
	c.apply(n, acts)
	return nil
}

// After schedules fn at d past the current virtual time, or now when d
// is negative.
func (c *Cluster) After(d time.Duration, fn func()) {
	c.seq++
	heap.Push(&c.events, &event{at: c.now + max(d, 0), seq: c.seq, fn: fn})
}

// Run advances virtual time by d, processing every event due in that span.
func (c *Cluster) Run(d time.Duration) { c.RunUntil(d, nil) }

// RunUntil advances virtual time event by event until done, checked after
// each event, reports true — the clock then stops at that event — or
// until d has passed. It reports whether done became true.
func (c *Cluster) RunUntil(d time.Duration, done func() bool) bool {
	deadline := c.now + d
	for c.events.Len() > 0 && c.events[0].at <= deadline {
		ev := heap.Pop(&c.events).(*event)
		c.now = ev.at
		ev.fn()
		if done != nil && done() {
			return true
		}
	}
	c.now = deadline
	return done != nil && done()
}

// Crash stops node id: it no longer receives, sends or fires timers.
func (c *Cluster) Crash(id wire.ParticipantID) {
	n := c.Node(id)
	n.Crashed = true
	n.timers = map[engine.TimerKind]uint64{}
	if n.CPU != nil {
		n.CPU.Crash()
	}
}

// Restart starts crashed node id's next incarnation with Members, keeping
// the earlier incarnations' events. Restarting a live node panics.
func (c *Cluster) Restart(id wire.ParticipantID) {
	n := c.Node(id)
	if !n.Crashed {
		panic(fmt.Sprintf("enginetest: restart %s: not crashed", id))
	}
	n.Engine = c.factory(id, uint32(len(n.Incarnations)))
	n.Incarnations = append(n.Incarnations, nil)
	n.Crashed = false
	c.StartNode(id, c.Members)
}

// Fire expires node id's armed timer of kind now, ahead of its deadline,
// and reports whether one was armed.
func (c *Cluster) Fire(id wire.ParticipantID, kind engine.TimerKind) bool {
	n := c.Node(id)
	if _, ok := n.timers[kind]; !ok {
		return false
	}
	delete(n.timers, kind)
	c.apply(n, n.Engine.Step(engine.Input{Timer: kind}))
	return true
}

// ApplyPlan composes the plan's injector after the Fault hook — a copy
// the hook delivers takes the injector's draw at the same instant, and
// the injector's delay adds to the hook's — and schedules the plan's
// crashes and restarts; partitions and heals act through the injector.
// Call it before Start.
func (c *Cluster) ApplyPlan(p *faultplan.Plan) {
	inj, hop := p.Injector(), c.Fault
	c.Fault = func(now time.Duration, from, to wire.ParticipantID, f wire.Frame) faultplan.Verdict {
		v := faultplan.Verdict{Delay: Delay}
		if hop != nil {
			v = hop(now, from, to, f)
		}
		if v.Drop {
			return v
		}
		w := inj.Decide(now, from, to, f.Kind())
		if w.Drop {
			c.FaultDrops++
			return w
		}
		if w.Dup {
			c.FaultDups++
			v.Dup = true
		}
		v.Delay += w.Delay
		return v
	}
	for _, ev := range p.NodeEvents() {
		switch ev.Kind {
		case faultplan.EventCrash:
			c.After(ev.At-c.now, func() { c.Crash(ev.Node) })
		case faultplan.EventRestart:
			c.After(ev.At-c.now, func() { c.Restart(ev.Node) })
		}
	}
}

// Receive decodes pkt and steps node id's engine with it: what a CPU
// model calls when the node takes a queued frame.
func (c *Cluster) Receive(id wire.ParticipantID, pkt []byte) {
	n := c.Node(id)
	frame, err := c.dec.Decode(pkt)
	if err != nil {
		panic(fmt.Sprintf("enginetest: decode at %s: %v", id, err))
	}
	c.apply(n, n.Engine.Step(engine.Input{Frame: frame}))
}

// apply executes one engine call's actions in order, each at the time the
// node's CPU stamps it.
func (c *Cluster) apply(n *Node, acts []engine.Action) {
	if c.AfterStep != nil {
		c.AfterStep(n)
	}
	inc := len(n.Incarnations) - 1
	for _, a := range acts {
		at := c.now
		if n.CPU != nil {
			at = n.CPU.Stamp(a)
		}
		switch a := a.(type) {
		case engine.SendData:
			c.send(n, 0, a.Msg, at)
		case engine.Send:
			c.send(n, a.To, a.Frame, at)
		case engine.Deliver:
			n.Incarnations[inc] = append(n.Incarnations[inc], Event{Msg: a.Msg})
		case engine.DeliverConfig:
			n.Incarnations[inc] = append(n.Incarnations[inc], Event{Config: a.Config, Transitional: a.Transitional})
		case engine.SetTimer:
			// The firing event's seq identifies this arming: a re-arm,
			// cancel or crash in between makes the event a no-op.
			kind, seq := a.Kind, c.seq+1
			n.timers[kind] = seq
			c.After(at-c.now+a.After, func() {
				if n.timers[kind] == seq {
					delete(n.timers, kind)
					c.apply(n, n.Engine.Step(engine.Input{Timer: kind}))
				}
			})
		case engine.CancelTimer:
			delete(n.timers, a.Kind)
		default:
			panic(fmt.Sprintf("enginetest: unknown action %T", a))
		}
	}
}

// send encodes f, leaving at virtual time at, and schedules its arrival
// at node to, or at every other node when to is zero.
func (c *Cluster) send(from *Node, to wire.ParticipantID, f wire.Frame, at time.Duration) {
	pkt, err := wire.Encode(f)
	if err != nil {
		panic(fmt.Sprintf("enginetest: %s sent an unencodable %v frame: %v", from.ID, f.Kind(), err))
	}
	for _, n := range c.Nodes {
		if n.ID != to && (to != 0 || n == from) {
			continue
		}
		v := faultplan.Verdict{Delay: Delay}
		if c.Fault != nil {
			v = c.Fault(at, from.ID, n.ID, f)
		}
		if v.Drop {
			continue
		}
		arrive := func() {
			switch {
			case n.Crashed:
			case n.CPU != nil:
				n.CPU.Arrive(pkt, to != 0)
			default:
				c.Receive(n.ID, pkt)
			}
		}
		c.After(at-c.now+v.Delay, arrive)
		if v.Dup {
			c.After(at-c.now+v.Delay, arrive)
		}
	}
}

// Payload builds the payload convention Log reads a FIFO origin from:
// message i of sender is "m-<sender>-<i>".
func Payload(sender wire.ParticipantID, i int) []byte {
	return []byte(fmt.Sprintf("m-%d-%d", sender, i))
}

// Origin parses a payload built by Payload back into its sender and i;
// for any other payload it returns 0, -1 and false.
func Origin(p []byte) (sender wire.ParticipantID, i int, ok bool) {
	rest, ok := bytes.CutPrefix(p, []byte("m-"))
	a, b, cut := bytes.Cut(rest, []byte("-"))
	s, errS := strconv.Atoi(string(a))
	i, errI := strconv.Atoi(string(b))
	if !ok || !cut || errS != nil || errI != nil {
		return 0, -1, false
	}
	return wire.ParticipantID(s), i, true
}

// Log converts every incarnation's events into the conformance checker's
// format: node "3" for the first incarnation, "3#2" for the second, and
// so on, every incarnation but a live node's last marked crashed.
// Messages are keyed by payload; those built by Payload carry their
// sender and per-sender counter for the FIFO axiom.
func (c *Cluster) Log() evscheck.Log {
	l := evscheck.Log{}
	for _, n := range c.Nodes {
		for inc, hist := range n.Incarnations {
			name := fmt.Sprint(uint32(n.ID))
			if inc > 0 {
				name += fmt.Sprintf("#%d", inc+1)
			}
			nl := l.Node(name)
			nl.Crashed = n.Crashed || inc < len(n.Incarnations)-1
			for _, ev := range hist {
				if ev.Msg == nil {
					nl.Install(ev.Config.ID, ev.Config.Members, ev.Transitional)
					continue
				}
				sender, i, _ := Origin(ev.Msg.Payload)
				nl.Deliver(string(ev.Msg.Payload), sender, uint64(i+1), ev.Msg.Service)
			}
		}
	}
	return l
}

// Check runs the conformance checker over Log and returns the violations
// as one error, nil when clean.
func (c *Cluster) Check(opt evscheck.Options) error {
	var errs []error
	for _, v := range evscheck.Check(c.Log(), opt) {
		errs = append(errs, errors.New(v.String()))
	}
	return errors.Join(errs...)
}

type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// eventQueue is a min-heap by (at, seq): same-time events run in schedule
// order.
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*q = old[:len(old)-1]
	return e
}
