package accelring

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"accelring/internal/core"
	"accelring/internal/engine"
	"accelring/internal/ringpaxos"
	"accelring/internal/transport"
	"accelring/internal/wire"
)

// recordingTransport records every send the runtime hands it, in order, so
// the tests can pin the one send path: each maximal run of consecutive
// SendData actions arrives as one Multicast vector, everything else as its
// own call. A test that runs the loop reads calls only after Close.
type recordingTransport struct {
	transport.Metrics
	calls []sendCall
	// gate, when non-nil, holds every Multicast until it is closed, and
	// held (buffered) is signalled as each one starts waiting: a loop
	// blocked in a pathological transport call, on demand.
	gate chan struct{}
	held chan struct{}
	// data and token, when non-nil, are what Data and Token return: a test
	// queues receive runs there for the loop.
	data, token chan transport.Run
}

// sendCall is one transport send: a Multicast carrying the decoded
// payloads of its vector, or (payloads nil) a Unicast.
type sendCall struct {
	op       string
	payloads []string
}

func (r *recordingTransport) Multicast(pkts [][]byte) error {
	if r.gate != nil {
		select {
		case r.held <- struct{}{}:
		default:
		}
		<-r.gate
	}
	c := sendCall{op: "Multicast"}
	for _, p := range pkts {
		c.payloads = append(c.payloads, decodePayload(p))
	}
	r.calls = append(r.calls, c)
	return nil
}

func (r *recordingTransport) Unicast(wire.ParticipantID, []byte) error {
	r.calls = append(r.calls, sendCall{op: "Unicast"})
	return nil
}

func (r *recordingTransport) Data() <-chan transport.Run  { return r.data }
func (r *recordingTransport) Token() <-chan transport.Run { return r.token }
func (r *recordingTransport) Close() error                { return nil }

func decodePayload(pkt []byte) string {
	m, err := wire.DecodeData(pkt)
	if err != nil {
		return "decode-error: " + err.Error()
	}
	return string(m.Payload)
}

func dataAction(payload string) engine.SendData {
	return engine.SendData{Msg: &wire.DataMessage{
		RingID:  wire.RingID{Rep: 1, Seq: 1},
		Seq:     1,
		PID:     1,
		Service: wire.ServiceAgreed,
		Payload: []byte(payload),
	}}
}

// TestBurstEachDataRunIsOneVector: a mixed action stream shaped like
// the engine's token hand-off output (pre-token run, token Send, post-token
// accelerated flush, token Send, a lone frame) must reach the transport as
// exactly Multicast[3], Unicast, Multicast[2], Unicast, Multicast[1], in
// that order — the position of the token between the runs is the
// acceleration on the wire — with the frames' order and contents intact.
func TestBurstEachDataRunIsOneVector(t *testing.T) {
	ft := &recordingTransport{}
	n := &Node{tr: ft, nm: newNodeMetrics()}
	tok := &wire.Token{RingID: wire.RingID{Rep: 1, Seq: 1}}

	n.execute([]engine.Action{
		dataAction("pre-1"),
		dataAction("pre-2"),
		dataAction("pre-3"),
		engine.Send{To: 2, Frame: tok},
		dataAction("post-1"),
		dataAction("post-2"),
		engine.Send{To: 2, Frame: tok},
		dataAction("lone"),
	})

	want := []sendCall{
		{op: "Multicast", payloads: []string{"pre-1", "pre-2", "pre-3"}},
		{op: "Unicast"},
		{op: "Multicast", payloads: []string{"post-1", "post-2"}},
		{op: "Unicast"},
		{op: "Multicast", payloads: []string{"lone"}},
	}
	if !reflect.DeepEqual(ft.calls, want) {
		t.Fatalf("transport saw\n %v\nwant\n %v", ft.calls, want)
	}
	snap := n.nm.runtimeSnapshot(n)
	if snap.SendBursts != 3 || snap.SendBurstMsgs != 6 {
		t.Fatalf("burst counters = %d/%d, want 3 runs carrying 6 frames",
			snap.SendBursts, snap.SendBurstMsgs)
	}
}

// TestBurstControlFrameIsVectorOfOne: a Send addressed to participant 0
// (joins, engine control frames) takes the same Multicast, as a vector of
// one, and is not counted as a data run.
func TestBurstControlFrameIsVectorOfOne(t *testing.T) {
	ft := &recordingTransport{}
	n := &Node{tr: ft, nm: newNodeMetrics()}
	n.execute([]engine.Action{engine.Send{To: 0, Frame: dataAction("ctl").Msg}})
	want := []sendCall{{op: "Multicast", payloads: []string{"ctl"}}}
	if !reflect.DeepEqual(ft.calls, want) {
		t.Fatalf("transport saw %v, want %v", ft.calls, want)
	}
	if snap := n.nm.runtimeSnapshot(n); snap.SendBursts != 0 {
		t.Fatalf("SendBursts = %d for a control frame, want 0", snap.SendBursts)
	}
}

// TestBurstRecyclesBuffers: for every run length, a lone frame
// included, the run's pooled encode buffers must all return to the pool,
// and the retained scratch vectors must not alias recycled buffers
// afterwards.
func TestBurstRecyclesBuffers(t *testing.T) {
	for _, runLen := range []int{1, 2, 4, 17} {
		ft := &recordingTransport{}
		n := &Node{tr: ft, nm: newNodeMetrics()}
		run := make([]engine.Action, runLen)
		for i := range run {
			run[i] = dataAction("r")
		}
		before := transport.Buffers.Snapshot()
		n.execute(run)
		after := transport.Buffers.Snapshot()
		gets := (after.Hits + after.Misses) - (before.Hits + before.Misses)
		puts := after.Puts - before.Puts
		if gets != uint64(runLen) || puts != uint64(runLen) {
			t.Fatalf("run of %d did %d pool gets and %d puts, want %d/%d", runLen, gets, puts, runLen, runLen)
		}
		if len(ft.calls) != 1 || len(ft.calls[0].payloads) != runLen {
			t.Fatalf("run of %d reached the transport as %v", runLen, ft.calls)
		}
		for i, b := range n.burstPkts[:cap(n.burstPkts)] {
			if b != nil {
				t.Fatalf("run of %d: burstPkts[%d] still aliases a recycled buffer", runLen, i)
			}
		}
		for i, b := range n.burstBufs[:cap(n.burstBufs)] {
			if b != nil {
				t.Fatalf("run of %d: burstBufs[%d] still aliases a recycled buffer", runLen, i)
			}
		}
	}
}

// startTestNode runs an engine of the given kind as participant 2 of the
// static ring {1, 2} over tr, with participant 1 absent: no token ever
// arrives and no value is ever decided, so the backlog only grows, and
// with hour-long timers nothing fires. maxPending zero keeps the default.
// The node closes when the test ends.
func startTestNode(t *testing.T, kind EngineKind, tr transport.Transport, maxPending int) *Node {
	t.Helper()
	n, initial := newTestNode(t, kind, tr, maxPending)
	go n.loop(initial)
	t.Cleanup(func() { n.Close() })
	return n
}

// newTestNode builds startTestNode's node without starting its loop: the
// caller runs n.loop(initial), whose first step delivers the ring's
// configuration, and closes the node.
func newTestNode(t *testing.T, kind EngineKind, tr transport.Transport, maxPending int) (*Node, []engine.Action) {
	t.Helper()
	cfg := core.Config{
		MyID:               2,
		MaxPending:         maxPending,
		TokenLossTimeout:   time.Hour,
		TokenRetransPeriod: time.Hour,
		JoinPeriod:         time.Hour,
		ConsensusTimeout:   time.Hour,
		CommitTimeout:      time.Hour,
	}
	var eng core.OrderingEngine
	var err error
	if kind == EngineRingPaxos {
		eng, err = ringpaxos.New(cfg)
	} else {
		eng, err = core.New(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	n, initial, err := newNode(Options{ID: 2, Transport: tr, Members: []ParticipantID{1, 2}}, kind, eng)
	if err != nil {
		t.Fatal(err)
	}
	return n, initial
}

// waitHeld waits until the loop is held inside a gated Multicast.
func waitHeld(t *testing.T, rt *recordingTransport) {
	t.Helper()
	select {
	case <-rt.held:
	case <-time.After(5 * time.Second):
		t.Fatal("the loop never reached the gated Multicast")
	}
}

// waitSubmits waits until the loop has stepped want submissions.
func waitSubmits(t *testing.T, n *Node, want uint64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); n.nm.submits.Load() < want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("loop stepped %d submissions, want %d", n.nm.submits.Load(), want)
		}
	}
}

// TestSubmissionRunIsOneMulticast: the submissions a loop pass takes are
// one run, executed once, so Ring Paxos's proposals — one SendData per
// Submit — reach the transport as one Multicast in submission order. The
// loop is held inside a lone submission's Multicast (a run of one) while
// SubmitQuota more queue behind it; released, it takes all of them in its
// next pass. Accelerated Ring queues a submission until the token visits,
// so its Submit makes no transport call at all.
func TestSubmissionRunIsOneMulticast(t *testing.T) {
	t.Run("ringpaxos", func(t *testing.T) {
		rt := &recordingTransport{gate: make(chan struct{}), held: make(chan struct{}, 1)}
		n := startTestNode(t, EngineRingPaxos, rt, 0)
		if err := n.Submit([]byte("lone"), Agreed); err != nil {
			t.Fatal(err)
		}
		waitHeld(t, rt)
		run := []string{}
		for i := 0; i < engine.SubmitQuota; i++ {
			p := fmt.Sprintf("run-%d", i)
			if err := n.Submit([]byte(p), Agreed); err != nil {
				t.Fatal(err)
			}
			run = append(run, p)
		}
		close(rt.gate)
		waitSubmits(t, n, 1+engine.SubmitQuota)
		n.Close()
		want := []sendCall{
			{op: "Multicast", payloads: []string{"lone"}},
			{op: "Multicast", payloads: run},
		}
		if !reflect.DeepEqual(rt.calls, want) {
			t.Fatalf("transport saw\n %v\nwant\n %v", rt.calls, want)
		}
	})
	t.Run("accelring", func(t *testing.T) {
		rt := &recordingTransport{}
		n := startTestNode(t, EngineAccelRing, rt, 0)
		if err := n.Submit([]byte("queued"), Agreed); err != nil {
			t.Fatal(err)
		}
		waitSubmits(t, n, 1)
		n.Close()
		if len(rt.calls) != 0 {
			t.Fatalf("Submit reached the transport: %v", rt.calls)
		}
	})
}
