package enginetest

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"accelring/internal/engine"
	"accelring/internal/faultplan"
	"accelring/internal/wire"
)

// toy is a scripted engine: Start answers start, Submit answers submit (nil
// multicasts the payload) and Step answers step (nil answers nothing).
// Every Step input is logged with the virtual time it was taken.
type toy struct {
	now    func() time.Duration
	id     wire.ParticipantID
	start  []engine.Action
	submit func(p []byte) []engine.Action
	step   func(in engine.Input) []engine.Action
	seen   []string
}

func (e *toy) Start([]wire.ParticipantID) ([]engine.Action, error) { return e.start, nil }

func (e *toy) Submit(p []byte, svc wire.Service) ([]engine.Action, error) {
	if e.submit != nil {
		return e.submit(p), nil
	}
	return []engine.Action{multicast(e.id, string(p))}, nil
}

func (e *toy) Step(in engine.Input) []engine.Action {
	what := in.Timer.String()
	switch f := in.Frame.(type) {
	case *wire.DataMessage:
		what = "data " + string(f.Payload)
	case *wire.Control:
		what = "control " + string(f.Body)
	}
	e.seen = append(e.seen, fmt.Sprintf("%v %s", e.now(), what))
	if e.step != nil {
		return e.step(in)
	}
	return nil
}

func multicast(from wire.ParticipantID, p string) engine.Action {
	return engine.SendData{Msg: &wire.DataMessage{PID: from, Service: wire.ServiceAgreed, Payload: []byte(p)}}
}

// toys builds a cluster of n toy engines; setup, when set, scripts every
// incarnation as the factory builds it.
func toys(n int, setup func(e *toy, inc uint32)) *Cluster {
	var c *Cluster
	c = New(n, func(id wire.ParticipantID, inc uint32) Engine {
		e := &toy{now: func() time.Duration { return c.Now() }, id: id}
		if setup != nil {
			setup(e, inc)
		}
		return e
	})
	return c
}

func seen(c *Cluster, id wire.ParticipantID) []string { return c.Node(id).Engine.(*toy).seen }

func want(t *testing.T, what string, got, want []string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: got %q, want %q", what, got, want)
	}
}

// TestPendingTimerBecomesNoOp arms a 10ms join timer at start; a re-arm, a
// cancel or a crash in between must leave the original firing event with
// nothing to do. A restart 1ms after the crash arms the next incarnation's
// own timer.
func TestPendingTimerBecomesNoOp(t *testing.T) {
	arm := []engine.Action{engine.SetTimer{Kind: engine.TimerJoin, After: 10 * time.Millisecond}}
	for _, tc := range []struct {
		name  string
		at4ms func(c *Cluster)
		fired []string // by the current incarnation
	}{
		{"untouched", func(*Cluster) {}, []string{"10ms join"}},
		{"re-arm", func(c *Cluster) { _ = c.Submit(1, nil, wire.ServiceAgreed) }, []string{"14ms join"}},
		{"cancel", func(c *Cluster) {
			c.Node(1).Engine.(*toy).submit = func([]byte) []engine.Action {
				return []engine.Action{engine.CancelTimer{Kind: engine.TimerJoin}}
			}
			_ = c.Submit(1, nil, wire.ServiceAgreed)
		}, nil},
		{"crash", func(c *Cluster) {
			first := c.Node(1).Engine.(*toy)
			c.Crash(1)
			c.After(time.Millisecond, func() { c.Restart(1) })
			t.Cleanup(func() { want(t, "crashed incarnation", first.seen, nil) })
		}, []string{"15ms join"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := toys(1, func(e *toy, _ uint32) {
				e.start = arm
				e.submit = func([]byte) []engine.Action { return arm }
			})
			c.Start()
			c.After(4*time.Millisecond, func() { tc.at4ms(c) })
			c.Run(30 * time.Millisecond)
			want(t, "timer firings", seen(c, 1), tc.fired)
		})
	}
}

// TestDupArrivesTwice: a duplicating link delivers each copy, both after
// the link's latency.
func TestDupArrivesTwice(t *testing.T) {
	c := toys(2, nil)
	c.Fault = func(time.Duration, wire.ParticipantID, wire.ParticipantID, wire.Frame) faultplan.Verdict {
		return faultplan.Verdict{Dup: true, Delay: Delay}
	}
	c.Start()
	if err := c.Submit(1, []byte("x"), wire.ServiceAgreed); err != nil {
		t.Fatal(err)
	}
	c.Run(time.Millisecond)
	want(t, "node 2", seen(c, 2), []string{"100µs data x", "100µs data x"})
	want(t, "node 1 (a multicast skips its sender)", seen(c, 1), nil)
}

// TestFramesOutliveCrashedSender: what a node sent before it crashed is on
// the wire and still arrives; the crashed node takes nothing.
func TestFramesOutliveCrashedSender(t *testing.T) {
	c := toys(2, func(e *toy, _ uint32) {
		e.step = func(engine.Input) []engine.Action { return []engine.Action{multicast(e.id, "echo")} }
	})
	c.Start()
	if err := c.Submit(1, []byte("x"), wire.ServiceAgreed); err != nil {
		t.Fatal(err)
	}
	c.Crash(1)
	if err := c.Submit(1, []byte("y"), wire.ServiceAgreed); err != ErrCrashed {
		t.Fatalf("submit to a crashed node: %v, want ErrCrashed", err)
	}
	c.Run(time.Millisecond)
	want(t, "node 2", seen(c, 2), []string{"100µs data x"})
	want(t, "crashed node 1", seen(c, 1), nil)
}

// TestRestartNumbersIncarnation: each restart builds the next incarnation
// number cluster-wide, not per node, and the log names every incarnation,
// all but the live one crashed.
func TestRestartNumbersIncarnation(t *testing.T) {
	var built []uint32
	c := toys(2, func(e *toy, inc uint32) {
		built = append(built, inc)
		e.start = []engine.Action{engine.DeliverConfig{Config: engine.Configuration{Members: []wire.ParticipantID{e.id}}}}
	})
	c.Start()
	for _, id := range []wire.ParticipantID{2, 1, 2} {
		c.Crash(id)
		c.Restart(id)
	}
	if !slices.Equal(built, []uint32{0, 0, 1, 2, 3}) {
		t.Fatalf("factory built incarnations %v, want [0 0 1 2 3]", built)
	}
	log := c.Log()
	for name, crashed := range map[string]bool{"1": true, "1#2": false, "2": true, "2#2": true, "2#3": false} {
		if nl := log[name]; nl == nil || nl.Crashed != crashed || len(nl.Events) != 1 {
			t.Fatalf("log entry %s = %+v, want crashed=%v with its configuration", name, nl, crashed)
		}
	}
}

// queueCPU is a toy CPU model: frames wait in one queue of at most limit
// (unicasts first when priority is set), and every input and every action
// costs a millisecond of the node's clock.
type queueCPU struct {
	c        *Cluster
	id       wire.ParticipantID
	clock    time.Duration
	queue    []arrival
	limit    int
	priority bool
	busy     bool
	drops    int
}

type arrival struct {
	pkt     []byte
	unicast bool
}

func (m *queueCPU) Arrive(pkt []byte, unicast bool) {
	if len(m.queue) == m.limit {
		m.drops++
		return
	}
	m.queue = append(m.queue, arrival{pkt, unicast})
	m.wake()
}

func (m *queueCPU) wake() {
	if !m.busy {
		m.busy = true
		m.c.After(m.clock-m.c.Now(), m.take)
	}
}

func (m *queueCPU) take() {
	m.busy = false
	i := 0
	if j := slices.IndexFunc(m.queue, func(a arrival) bool { return a.unicast }); m.priority && j >= 0 {
		i = j
	}
	pkt := m.queue[i].pkt
	m.queue = slices.Delete(m.queue, i, i+1)
	m.clock = max(m.clock, m.c.Now()) + time.Millisecond
	m.c.Receive(m.id, pkt)
	if len(m.queue) > 0 {
		m.wake()
	}
}

func (m *queueCPU) Stamp(engine.Action) time.Duration {
	m.clock = max(m.clock, m.c.Now()) + time.Millisecond
	return m.clock
}

func (m *queueCPU) Crash() { m.queue = nil }

func withCPU(c *Cluster, id wire.ParticipantID, limit int, priority bool) *queueCPU {
	m := &queueCPU{c: c, id: id, limit: limit, priority: priority}
	c.Node(id).CPU = m
	return m
}

// TestSendsLeaveAtNodeClock: with a CPU model, the link sees each send at
// the time the model stamps it, and a timer runs from its stamp.
func TestSendsLeaveAtNodeClock(t *testing.T) {
	c := toys(2, func(e *toy, _ uint32) {
		e.submit = func([]byte) []engine.Action {
			return []engine.Action{multicast(e.id, "a"), multicast(e.id, "b"),
				engine.SetTimer{Kind: engine.TimerJoin, After: 10 * time.Millisecond}}
		}
	})
	withCPU(c, 1, 8, false)
	var left []time.Duration
	c.Fault = func(now time.Duration, _, _ wire.ParticipantID, _ wire.Frame) faultplan.Verdict {
		left = append(left, now)
		return faultplan.Verdict{Delay: Delay}
	}
	c.Start()
	if err := c.Submit(1, nil, wire.ServiceAgreed); err != nil {
		t.Fatal(err)
	}
	c.Run(20 * time.Millisecond)
	if !slices.Equal(left, []time.Duration{time.Millisecond, 2 * time.Millisecond}) {
		t.Fatalf("sends left at %v, want [1ms 2ms]", left)
	}
	want(t, "node 2", seen(c, 2), []string{"1.1ms data a", "2.1ms data b"})
	want(t, "node 1", seen(c, 1), []string{"13ms join"})
}

// TestCPUPicksTheNextInput: the model, not arrival order, decides which
// queued frame the engine takes next.
func TestCPUPicksTheNextInput(t *testing.T) {
	for _, priority := range []bool{false, true} {
		c := toys(2, func(e *toy, _ uint32) {
			e.submit = func([]byte) []engine.Action {
				return []engine.Action{multicast(e.id, "a"),
					engine.Send{To: 2, Frame: &wire.Control{Sender: e.id, Sub: 1, Body: []byte("b")}}}
			}
		})
		withCPU(c, 2, 8, priority)
		c.Start()
		if err := c.Submit(1, nil, wire.ServiceAgreed); err != nil {
			t.Fatal(err)
		}
		c.Run(10 * time.Millisecond)
		order := []string{"100µs data a", "100µs control b"}
		if priority {
			order = []string{"100µs control b", "1.1ms data a"}
		} else {
			order[1] = "1.1ms control b"
		}
		want(t, fmt.Sprintf("priority=%v", priority), seen(c, 2), order)
	}
}

// TestSocketBufferDropIsCounted: frames arriving at a full queue are lost
// to the engine and counted by the model.
func TestSocketBufferDropIsCounted(t *testing.T) {
	c := toys(2, func(e *toy, _ uint32) {
		e.submit = func([]byte) []engine.Action {
			return []engine.Action{multicast(e.id, "a"), multicast(e.id, "b"), multicast(e.id, "c")}
		}
	})
	m := withCPU(c, 2, 1, false)
	c.Start()
	if err := c.Submit(1, nil, wire.ServiceAgreed); err != nil {
		t.Fatal(err)
	}
	c.Run(10 * time.Millisecond)
	if m.drops != 2 {
		t.Fatalf("model counted %d drops, want 2", m.drops)
	}
	want(t, "node 2", seen(c, 2), []string{"100µs data a"})
}
