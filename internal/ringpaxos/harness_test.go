package ringpaxos

import (
	"fmt"
	"testing"

	"accelring/internal/core"
	"accelring/internal/wire"
)

// The in-package harness wires several engines together directly through
// their action outputs — no goroutines, no clocks, no sockets — so every
// test is a deterministic single-threaded execution. Messages travel
// through the real wire codec (encode + decode per receiver) to keep the
// aliasing rules honest; timers are fired explicitly by tests.

// rec is one delivered message as observed by the application.
type rec struct {
	pid     wire.ParticipantID
	seq     uint64
	payload string
}

func (r rec) String() string { return fmt.Sprintf("%d/%d:%s", uint32(r.pid), r.seq, r.payload) }

// event is one in-flight encoded frame: a multicast copy (value or control
// frame) or the unicast token.
type event struct {
	from, to wire.ParticipantID
	pkt      []byte
	unicast  bool
}

type cluster struct {
	t         *testing.T
	ids       []wire.ParticipantID
	engines   map[wire.ParticipantID]*Engine
	queue     []event
	delivered map[wire.ParticipantID][]rec
	configs   map[wire.ParticipantID]int
	timers    map[wire.ParticipantID]map[core.TimerKind]bool
	crashed   map[wire.ParticipantID]bool
	// starts counts engine creations per id; restarts get a fresh
	// incarnation, mimicking the root runtime's wall-clock stamp.
	starts map[wire.ParticipantID]uint32
	// dropData/dropToken, when set, discard matching multicast (value and
	// control) / unicast (token) frames in flight.
	dropData  func(from, to wire.ParticipantID) bool
	dropToken func(from, to wire.ParticipantID) bool
	dec       wire.Decoder
	// dupAll re-enqueues every frame a second time when set.
	dupAll bool
	steps  int
}

func newCluster(t *testing.T, n int) *cluster {
	t.Helper()
	c := &cluster{
		t:         t,
		engines:   make(map[wire.ParticipantID]*Engine),
		delivered: make(map[wire.ParticipantID][]rec),
		configs:   make(map[wire.ParticipantID]int),
		timers:    make(map[wire.ParticipantID]map[core.TimerKind]bool),
		crashed:   make(map[wire.ParticipantID]bool),
		starts:    make(map[wire.ParticipantID]uint32),
	}
	for i := 1; i <= n; i++ {
		c.ids = append(c.ids, wire.ParticipantID(i*100))
	}
	for _, id := range c.ids {
		c.addEngine(id)
	}
	return c
}

// addEngine creates (or re-creates, for restart tests) the engine for id
// and starts it with the cluster's member list.
func (c *cluster) addEngine(id wire.ParticipantID) {
	c.t.Helper()
	eng, err := New(core.Config{MyID: id, Incarnation: c.starts[id]})
	if err != nil {
		c.t.Fatalf("New(%v): %v", id, err)
	}
	c.starts[id]++
	acts, err := eng.Start(c.ids)
	if err != nil {
		c.t.Fatalf("Start(%v): %v", id, err)
	}
	c.engines[id] = eng
	c.timers[id] = make(map[core.TimerKind]bool)
	c.crashed[id] = false
	c.exec(id, acts)
}

// exec carries out engine actions in order.
func (c *cluster) exec(from wire.ParticipantID, acts []core.Action) {
	c.t.Helper()
	for _, a := range acts {
		switch a := a.(type) {
		case core.SendData:
			c.send(from, 0, a.Msg)
		case core.Send:
			c.send(from, a.To, a.Frame)
		case core.Deliver:
			c.delivered[from] = append(c.delivered[from], rec{
				pid:     a.Msg.PID,
				seq:     uint64(a.Msg.Seq),
				payload: string(a.Msg.Payload),
			})
		case core.DeliverConfig:
			c.configs[from]++
		case core.SetTimer:
			c.timers[from][a.Kind] = true
		case core.CancelTimer:
			delete(c.timers[from], a.Kind)
		default:
			c.t.Fatalf("unexpected action %T from %v", a, from)
		}
	}
}

// send encodes one frame and enqueues a copy per destination (every other
// node when to is zero).
func (c *cluster) send(from, to wire.ParticipantID, f wire.Frame) {
	c.t.Helper()
	enc, err := f.AppendTo(nil)
	if err != nil {
		c.t.Fatalf("encode %v frame from %v: %v", f.Kind(), from, err)
	}
	dests := []wire.ParticipantID{to}
	if to == 0 {
		dests = nil
		for _, id := range c.ids {
			if id != from {
				dests = append(dests, id)
			}
		}
	}
	for _, d := range dests {
		ev := event{from: from, to: d, pkt: enc, unicast: to != 0}
		c.queue = append(c.queue, ev)
		if c.dupAll {
			c.queue = append(c.queue, ev)
		}
	}
}

// step delivers the head-of-queue frame. Returns false when idle.
func (c *cluster) step() bool {
	c.t.Helper()
	if len(c.queue) == 0 {
		return false
	}
	ev := c.queue[0]
	c.queue = c.queue[1:]
	c.steps++
	if c.crashed[ev.to] || c.crashed[ev.from] {
		return true
	}
	drop := c.dropData
	if ev.unicast {
		drop = c.dropToken
	}
	if drop != nil && drop(ev.from, ev.to) {
		return true
	}
	f, err := c.dec.Decode(ev.pkt)
	if err != nil {
		c.t.Fatalf("decode: %v", err)
	}
	c.exec(ev.to, c.engines[ev.to].Step(core.Input{Frame: f}))
	return true
}

// run drains the queue, failing the test on livelock.
func (c *cluster) run() {
	c.t.Helper()
	const maxSteps = 200000
	for i := 0; c.step(); i++ {
		if i > maxSteps {
			c.t.Fatalf("livelock: %d steps without quiescing", maxSteps)
		}
	}
}

// fire triggers one armed timer, if armed.
func (c *cluster) fire(id wire.ParticipantID, kind core.TimerKind) {
	c.t.Helper()
	if c.crashed[id] || !c.timers[id][kind] {
		return
	}
	delete(c.timers[id], kind)
	c.exec(id, c.engines[id].Step(core.Input{Timer: kind}))
}

// submit feeds one value in at id and executes its protocol output.
func (c *cluster) submit(id wire.ParticipantID, payload string) {
	c.t.Helper()
	acts, err := c.engines[id].Submit([]byte(payload), wire.ServiceAgreed)
	if err != nil {
		c.t.Fatalf("submit at %v: %v", id, err)
	}
	c.exec(id, acts)
}

// pump drives the cluster to convergence: drain the queue, then fire
// pacing timers (join/retransmit/commit) round-robin; if a full round
// makes no progress, escalate to the failure detectors (token loss, then
// consensus retry). Fails the test if maxRounds rounds do not converge.
func (c *cluster) pump(maxRounds int) {
	c.t.Helper()
	lastProgress := c.progress()
	quiet := 0
	for r := 0; r < maxRounds; r++ {
		c.run()
		for _, id := range c.ids {
			c.fire(id, core.TimerJoin)
			c.fire(id, core.TimerTokenRetrans)
			c.fire(id, core.TimerCommit)
		}
		c.run()
		if p := c.progress(); p != lastProgress {
			lastProgress = p
			quiet = 0
			continue
		}
		quiet++
		if quiet >= 2 {
			if c.allIdle() {
				return
			}
			// No pacing progress for two rounds: escalate.
			for _, id := range c.ids {
				c.fire(id, core.TimerTokenLoss)
			}
			c.run()
			for _, id := range c.ids {
				c.fire(id, core.TimerConsensus)
			}
			c.run()
			if p := c.progress(); p != lastProgress {
				lastProgress = p
				quiet = 0
			}
		}
	}
	if !c.allIdle() {
		c.t.Fatalf("pump: no convergence after %d rounds", maxRounds)
	}
}

// progress is a monotone fingerprint of cluster state used to detect
// forward motion.
func (c *cluster) progress() string {
	s := ""
	for _, id := range c.ids {
		if c.crashed[id] {
			s += "x;"
			continue
		}
		e := c.engines[id]
		s += fmt.Sprintf("%d,%d,%d,%d;", e.decided, e.delivered, e.view, len(c.delivered[id]))
	}
	return s
}

// allIdle reports whether every live node has no undelivered decisions
// and no pending submissions.
func (c *cluster) allIdle() bool {
	for _, id := range c.ids {
		if c.crashed[id] {
			continue
		}
		e := c.engines[id]
		if e.delivered < e.decided || len(e.myPendOrd) > 0 || e.poolSize > 0 || e.high > e.decided {
			return false
		}
	}
	return true
}

// crash marks a node dead: frames to and from it vanish.
func (c *cluster) crash(id wire.ParticipantID) { c.crashed[id] = true }

// checkAgreement verifies pairwise relative-order agreement and
// per-sender FIFO across all live nodes' delivery logs.
func (c *cluster) checkAgreement() {
	c.t.Helper()
	for _, id := range c.ids {
		if c.crashed[id] {
			continue
		}
		seen := make(map[wire.ParticipantID]uint64)
		for _, r := range c.delivered[id] {
			if r.seq <= seen[r.pid] {
				c.t.Fatalf("node %v: FIFO violation for sender %v: %d after %d", id, r.pid, r.seq, seen[r.pid])
			}
			seen[r.pid] = r.seq
		}
	}
	for i := 0; i < len(c.ids); i++ {
		for j := i + 1; j < len(c.ids); j++ {
			a, b := c.ids[i], c.ids[j]
			if c.crashed[a] || c.crashed[b] {
				continue
			}
			c.checkPairOrder(a, b)
		}
	}
}

// checkPairOrder verifies that the messages delivered by both a and b
// appear in the same relative order at each.
func (c *cluster) checkPairOrder(a, b wire.ParticipantID) {
	c.t.Helper()
	type key struct {
		pid wire.ParticipantID
		seq uint64
	}
	posA := make(map[key]int)
	for i, r := range c.delivered[a] {
		posA[key{r.pid, r.seq}] = i
	}
	lastA := -1
	for _, r := range c.delivered[b] {
		pa, ok := posA[key{r.pid, r.seq}]
		if !ok {
			continue
		}
		if pa <= lastA {
			c.t.Fatalf("order divergence between %v and %v at %v", a, b, r)
		}
		lastA = pa
	}
}

// deliveredAt returns node id's delivery log rendered as strings.
func (c *cluster) deliveredAt(id wire.ParticipantID) []string {
	out := make([]string, len(c.delivered[id]))
	for i, r := range c.delivered[id] {
		out[i] = r.String()
	}
	return out
}
