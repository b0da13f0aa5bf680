package netsim

import (
	"encoding/binary"
	"errors"
	"testing"

	"accelring/internal/core"
	"accelring/internal/engine"
	"accelring/internal/evscheck"
	"accelring/internal/wire"
)

// fixedSequencer is ROADMAP's design test made executable: a third ordering
// engine of a different shape — no token, no ring, no timers; proposers
// multicast data frames and the ring's first member orders them with
// control frames — written against core.OrderingEngine alone. If it needs a
// side interface, a new action type or a type assertion in the simulator to
// run, the contract still carries another engine's silhouette. It tolerates
// no loss; the test runs it on a clean network.
type fixedSequencer struct {
	cfg     core.Config
	ring    engine.Configuration
	mySeq   uint64 // own submissions so far
	pending int    // own submissions not yet delivered
	lastPos uint64 // sequencer only: last global position assigned
	next    uint64 // last global position delivered
	values  map[seqKey]*wire.DataMessage
	order   map[uint64]seqKey // global position → message
	stats   core.Stats
}

type seqKey struct {
	pid wire.ParticipantID
	seq uint64
}

// subOrder is the engine's one control subkind: body = pid u32, proposer
// sequence u64, global position u64.
const subOrder = 1

func newFixedSequencer(cfg core.Config) *fixedSequencer {
	return &fixedSequencer{cfg: cfg, values: map[seqKey]*wire.DataMessage{}, order: map[uint64]seqKey{}}
}

func (e *fixedSequencer) Start(members []wire.ParticipantID) ([]engine.Action, error) {
	if len(members) == 0 {
		return nil, errors.New("sequencer: static membership required")
	}
	e.ring = engine.Configuration{ID: wire.RingID{Rep: members[0], Seq: 4}, Members: members}
	return []engine.Action{engine.DeliverConfig{Config: e.ring.Clone()}}, nil
}

func (e *fixedSequencer) Submit(payload []byte, svc wire.Service) ([]engine.Action, error) {
	e.mySeq++
	e.pending++
	e.stats.MsgsSent++
	m := &wire.DataMessage{RingID: e.ring.ID, PID: e.cfg.MyID, Seq: wire.Seq(e.mySeq), Service: svc, Payload: payload}
	return e.learn(m, []engine.Action{engine.SendData{Msg: m}}), nil
}

func (e *fixedSequencer) Step(in engine.Input) []engine.Action {
	switch f := in.Frame.(type) {
	case *wire.DataMessage:
		return e.learn(f, nil)
	case *wire.Control:
		if f.Sub == subOrder && len(f.Body) == 20 {
			pid := wire.ParticipantID(binary.BigEndian.Uint32(f.Body))
			e.order[binary.BigEndian.Uint64(f.Body[12:])] = seqKey{pid, binary.BigEndian.Uint64(f.Body[4:])}
		}
	}
	return e.deliver(nil)
}

// learn stores a proposal; the sequencer (the first member) also assigns it
// the next global position and announces that in a control frame.
func (e *fixedSequencer) learn(m *wire.DataMessage, acts []engine.Action) []engine.Action {
	k := seqKey{m.PID, uint64(m.Seq)}
	e.values[k] = m
	if e.cfg.MyID == e.ring.Members[0] {
		e.lastPos++
		e.order[e.lastPos] = k
		body := binary.BigEndian.AppendUint32(nil, uint32(k.pid))
		body = binary.BigEndian.AppendUint64(body, k.seq)
		body = binary.BigEndian.AppendUint64(body, e.lastPos)
		acts = append(acts, engine.Send{Frame: &wire.Control{RingID: e.ring.ID, Sender: e.cfg.MyID, Sub: subOrder, Body: body}})
	}
	return e.deliver(acts)
}

// deliver hands over every message whose position and value are both known,
// in position order.
func (e *fixedSequencer) deliver(acts []engine.Action) []engine.Action {
	for {
		m, ok := e.values[e.order[e.next+1]] // unknown position → zero key → no value
		if !ok {
			return acts
		}
		e.next++
		e.stats.Delivered++
		if m.PID == e.cfg.MyID {
			e.pending--
		}
		acts = append(acts, engine.Deliver{Msg: m})
	}
}

func (e *fixedSequencer) Progress() core.Progress { return core.Progress{Pending: e.pending} }

func (e *fixedSequencer) Snapshot() core.Snapshot {
	return core.Snapshot{Config: e.cfg, State: core.StateOperational, Ring: e.ring.Clone(), Stats: e.stats}
}

// TestThirdEngineFitsTheContract runs the sequencer through the unmodified
// simulator and requires one agreed order, complete at every node.
func TestThirdEngineFitsTheContract(t *testing.T) {
	cfg := quickCfg(core.ProtocolAcceleratedRing, Net1G, ProfileLibrary, 100)
	cfg.Nodes = 4
	cfg.EngineFactory = func(c core.Config) (core.OrderingEngine, error) { return newFixedSequencer(c), nil }
	res, c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := c.Log()
	if res.SwitchDrops+res.SockDrops != 0 {
		t.Fatalf("test premise broken: the clean network dropped packets (%+v)", res)
	}
	if res.Samples == 0 || res.BacklogLeft != 0 {
		t.Fatalf("deliveries sampled %d, backlog left %d", res.Samples, res.BacklogLeft)
	}
	opt := evscheck.Options{Profile: evscheck.ProfileTotalOrder, Quiescent: true}
	for _, v := range evscheck.Check(log, opt) {
		t.Errorf("total-order violation: %v", v)
	}
	var want []string
	for name, nl := range log {
		var got []string
		for _, ev := range nl.Events {
			if !ev.Config {
				got = append(got, ev.Key)
			}
		}
		if want == nil {
			want = got
		}
		if len(got) == 0 || len(got) != len(want) {
			t.Fatalf("node %s delivered %d messages, another node %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("node %s delivery %d is %s, another node has %s", name, i, got[i], want[i])
			}
		}
	}
	if len(log) != cfg.Nodes {
		t.Fatalf("captured %d node logs, want %d", len(log), cfg.Nodes)
	}
}
