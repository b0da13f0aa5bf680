package accelring

import (
	"reflect"
	"testing"

	"accelring/internal/engine"
	"accelring/internal/transport"
	"accelring/internal/wire"
)

// recordingTransport records every send the runtime hands it, in order, so
// the tests can pin the one send path: each maximal run of consecutive
// SendData actions arrives as one Multicast vector, everything else as its
// own call.
type recordingTransport struct {
	transport.Metrics
	calls []sendCall
}

// sendCall is one transport send: a Multicast carrying the decoded
// payloads of its vector, or (payloads nil) a Unicast.
type sendCall struct {
	op       string
	payloads []string
}

func (r *recordingTransport) Multicast(pkts [][]byte) error {
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

func (r *recordingTransport) Data() <-chan []byte  { return nil }
func (r *recordingTransport) Token() <-chan []byte { return nil }
func (r *recordingTransport) Close() error         { return nil }

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

	n.execute(nil, []engine.Action{
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
	n.execute(nil, []engine.Action{engine.Send{To: 0, Frame: dataAction("ctl").Msg}})
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
		n.execute(nil, run)
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
