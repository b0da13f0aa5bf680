// Package faultplan defines seeded, deterministic fault programs, the only
// way faults are described to the protocol's execution substrates: the
// discrete-event core in internal/enginetest (its default link, and
// internal/netsim's cost model on it) and the in-memory transport hub in
// internal/transport/memnet.
//
// A Plan is a declarative schedule: link faults (loss, duplication, extra
// delay) active over time windows, plus node events (crash, restart,
// partition, heal) at fixed times. An Injector evaluates the plan at
// runtime: every packet send asks Decide for a verdict, and every decision
// is drawn from a per-link random stream derived from the plan seed, so
// two runs that present the same packet sequence receive the identical
// fault sequence — a failing chaos run is reproduced by its seed alone.
package faultplan

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"accelring/internal/wire"
)

// KindMask selects which packet kinds a link fault applies to. The zero
// value matches every kind.
type KindMask uint8

// Packet kind bits.
const (
	MaskData KindMask = 1 << iota
	MaskToken
	MaskJoin
	MaskCommit
)

// MaskOf returns the mask bit for a wire message kind. Engine-opaque
// control frames travel on the data socket and match MaskData, so a plan
// aimed at data traffic also bites an engine's control traffic.
func MaskOf(k wire.Kind) KindMask {
	switch k {
	case wire.KindData, wire.KindControl:
		return MaskData
	case wire.KindToken:
		return MaskToken
	case wire.KindJoin:
		return MaskJoin
	case wire.KindCommit:
		return MaskCommit
	default:
		return 0
	}
}

// matches reports whether the mask selects kind (zero mask selects all).
func (m KindMask) matches(k wire.Kind) bool {
	return m == 0 || m&MaskOf(k) != 0
}

// LinkFault is a probabilistic fault active on matching links during a
// time window. A zero From or To matches any sender or receiver.
type LinkFault struct {
	// From and To select the link; zero means any participant.
	From, To wire.ParticipantID
	// Kinds selects affected packet kinds; zero means all.
	Kinds KindMask
	// Start and End bound the active window. A zero End means the fault
	// never expires.
	Start, End time.Duration
	// Loss is the probability a matching packet is dropped.
	Loss float64
	// Dup is the probability a matching packet is delivered twice.
	Dup float64
	// DelayProb is the probability a matching packet is delayed by an
	// extra Delay, reordering it behind packets sent after it.
	DelayProb float64
	// Delay is the extra delivery delay applied with DelayProb.
	Delay time.Duration
}

// active reports whether the fault window covers time t.
func (f *LinkFault) active(t time.Duration) bool {
	return t >= f.Start && (f.End == 0 || t < f.End)
}

// matchesLink reports whether the fault applies to the (from, to) link.
func (f *LinkFault) matchesLink(from, to wire.ParticipantID) bool {
	return (f.From == 0 || f.From == from) && (f.To == 0 || f.To == to)
}

// EventKind discriminates scheduled node events.
type EventKind uint8

// Node event kinds.
const (
	// EventCrash silences a node: it stops sending, receiving and firing
	// timers.
	EventCrash EventKind = iota + 1
	// EventRestart revives a crashed node with a fresh engine; it rejoins
	// through the membership protocol.
	EventRestart
	// EventPartition moves a node into partition group Group; traffic
	// flows only within a group. All nodes start in group 0.
	EventPartition
	// EventHeal reconnects all partitions (every node back to group 0).
	EventHeal
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventCrash:
		return "crash"
	case EventRestart:
		return "restart"
	case EventPartition:
		return "partition"
	case EventHeal:
		return "heal"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// NodeEvent is one scheduled fault event.
type NodeEvent struct {
	// At is the event time, relative to the start of the run.
	At time.Duration
	// Kind is the event type.
	Kind EventKind
	// Node is the affected participant (unused for EventHeal).
	Node wire.ParticipantID
	// Group is the partition group for EventPartition.
	Group int
}

// Plan is one deterministic fault program.
type Plan struct {
	// Seed drives every probabilistic decision of the plan's Injector.
	Seed int64
	// Links are the probabilistic link faults.
	Links []LinkFault
	// Events are the scheduled node events, in any order.
	Events []NodeEvent
}

// NodeEvents returns the plan's events sorted by time (stable, so events
// at the same instant keep their declaration order).
func (p *Plan) NodeEvents() []NodeEvent {
	out := make([]NodeEvent, len(p.Events))
	copy(out, p.Events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// String summarizes the plan for logs.
func (p *Plan) String() string {
	return fmt.Sprintf("plan(seed=%d links=%d events=%d)", p.Seed, len(p.Links), len(p.Events))
}

// Verdict is the injector's decision about one packet transmission.
type Verdict struct {
	// Drop discards the packet.
	Drop bool
	// Dup delivers the packet twice.
	Dup bool
	// Delay adds extra delivery latency, reordering the packet behind
	// later traffic.
	Delay time.Duration
}

// Injector evaluates a plan at runtime. It is not safe for concurrent use;
// callers that share one injector across goroutines (the memnet hub) must
// serialize Decide calls.
type Injector struct {
	plan   *Plan
	events []NodeEvent
	cursor int
	groups map[wire.ParticipantID]int
	links  map[linkKey]*rand.Rand
}

type linkKey struct {
	from, to wire.ParticipantID
}

// Injector builds a runtime evaluator for the plan. Each call returns a
// fresh injector replaying the identical decision streams.
func (p *Plan) Injector() *Injector {
	return &Injector{
		plan:   p,
		events: p.NodeEvents(),
		groups: make(map[wire.ParticipantID]int),
		links:  make(map[linkKey]*rand.Rand),
	}
}

// advance applies partition/heal events due at or before now. Crash and
// restart events are the substrate's job (the injector cannot revive an
// engine); it only tracks connectivity.
func (in *Injector) advance(now time.Duration) {
	for in.cursor < len(in.events) && in.events[in.cursor].At <= now {
		ev := in.events[in.cursor]
		in.cursor++
		switch ev.Kind {
		case EventPartition:
			in.groups[ev.Node] = ev.Group
		case EventHeal:
			in.groups = make(map[wire.ParticipantID]int)
		}
	}
}

// Connected reports whether traffic flows from a to b at time now, per the
// plan's partition events.
func (in *Injector) Connected(now time.Duration, a, b wire.ParticipantID) bool {
	in.advance(now)
	return in.groups[a] == in.groups[b]
}

// linkRng returns the per-link decision stream. Streams are keyed by the
// (from, to) pair only, so a link's fault sequence depends on the packets
// sent over that link, never on interleaving with other links.
func (in *Injector) linkRng(from, to wire.ParticipantID) *rand.Rand {
	key := linkKey{from, to}
	r, ok := in.links[key]
	if !ok {
		r = rand.New(rand.NewSource(int64(splitmix64(uint64(in.plan.Seed) ^
			uint64(from)<<32 ^ uint64(to)))))
		in.links[key] = r
	}
	return r
}

// Decide returns the fault verdict for one packet sent from from to to at
// time now. Self-sends (from == to) are never faulted. Cross-partition
// packets are dropped.
func (in *Injector) Decide(now time.Duration, from, to wire.ParticipantID, kind wire.Kind) Verdict {
	if from == to {
		return Verdict{}
	}
	in.advance(now)
	if in.groups[from] != in.groups[to] {
		return Verdict{Drop: true}
	}
	var v Verdict
	for i := range in.plan.Links {
		f := &in.plan.Links[i]
		if !f.active(now) || !f.matchesLink(from, to) || !f.Kinds.matches(kind) {
			continue
		}
		r := in.linkRng(from, to)
		if f.Loss > 0 && r.Float64() < f.Loss {
			v.Drop = true
		}
		if f.Dup > 0 && r.Float64() < f.Dup {
			v.Dup = true
		}
		if f.DelayProb > 0 && r.Float64() < f.DelayProb {
			v.Delay += f.Delay
		}
	}
	if v.Drop {
		return Verdict{Drop: true}
	}
	return v
}

// splitmix64 mixes a seed into a well-distributed 64-bit value.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
