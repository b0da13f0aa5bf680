package accelring

import (
	"testing"
	"time"

	"accelring/internal/core"
	"accelring/internal/engine"
	"accelring/internal/transport"
	"accelring/internal/wire"
)

// dataFrame encodes a data message from participant 1 with an n-byte
// payload; frames of equal n are of equal size.
func dataFrame(t testing.TB, seq, n int) []byte {
	t.Helper()
	pkt, err := wire.AppendData(nil, &wire.DataMessage{
		RingID:  wire.RingID{Rep: 1, Seq: 1},
		Seq:     wire.Seq(seq),
		PID:     1,
		Service: wire.ServiceAgreed,
		Payload: make([]byte, n),
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// pooledRun copies pkts back to back into a pooled buffer, as a receive
// run of seg-byte segments.
func pooledRun(seg int, pkts ...[]byte) transport.Run {
	buf := transport.Buffers.Get()[:0]
	for _, p := range pkts {
		buf = append(buf, p...)
	}
	return transport.Run{Buf: buf, Seg: seg}
}

// TestLoopStepsRunSegments: the loop steps every datagram of a run it
// takes off the data channel, each where it lies. An undecodable segment
// in the middle of a run is one decode failure and the segments around it
// are still stepped; a short last segment is stepped; a segment size not
// below the run's length makes it one datagram.
func TestLoopStepsRunSegments(t *testing.T) {
	frame := dataFrame(t, 1, 100)
	garbage := make([]byte, len(frame)) // no wire header: does not decode
	short := dataFrame(t, 3, 40)
	for _, tc := range []struct {
		name           string
		run            transport.Run
		data, failures uint64
	}{
		{"undecodable middle segment", pooledRun(len(frame), frame, garbage, dataFrame(t, 2, 100)), 2, 1},
		{"short last segment", pooledRun(len(frame), frame, dataFrame(t, 2, 100), short), 3, 0},
		{"segment size past the run", pooledRun(len(frame)+1, frame), 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := &recordingTransport{data: make(chan transport.Run, 1)}
			n := startTestNode(t, EngineAccelRing, rt, 0)
			rt.data <- tc.run
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				data, failures := n.nm.pkts[wire.KindData].Load(), n.nm.decodeFailures.Load()
				if data+failures == tc.data+tc.failures {
					if data != tc.data || failures != tc.failures {
						t.Fatalf("stepped %d data frames and %d decode failures, want %d and %d", data, failures, tc.data, tc.failures)
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("stepped %d data frames and %d decode failures, want %d and %d", data, failures, tc.data, tc.failures)
				}
			}
			if left := n.dataRun.pending(); left != 0 {
				t.Fatalf("the loop still holds %d datagrams of a stepped run", left)
			}
		})
	}
}

// nopEngine takes every input and does nothing, so a gate driving it
// measures the loop's cost alone.
type nopEngine struct{ steps int }

func (e *nopEngine) Start([]wire.ParticipantID) ([]engine.Action, error)  { return nil, nil }
func (e *nopEngine) Submit([]byte, wire.Service) ([]engine.Action, error) { return nil, nil }
func (e *nopEngine) Step(engine.Input) []engine.Action                    { e.steps++; return nil }
func (e *nopEngine) Progress() core.Progress                              { return core.Progress{} }
func (e *nopEngine) Snapshot() core.Snapshot                              { return core.Snapshot{} }

// TestRunStepAllocs: stepping a k-segment run costs no runtime allocation
// beyond the engine's own — decoding and stepping the same k datagrams one
// by one is the baseline, since a data frame is decoded detached — and
// returns the run's buffer to the pool exactly once, after the last
// segment. The measured runs use one buffer from outside the pool, which
// Put counts and drops, so the gate holds under -race too, where sync.Pool
// drops at random.
func TestRunStepAllocs(t *testing.T) {
	const k = 24 // the UDP_GRO run the loopback benchmark receives
	pkts := make([][]byte, k)
	for i := range pkts {
		pkts[i] = dataFrame(t, i+1, 1300)
	}
	eng := &nopEngine{}
	n := &Node{tr: &recordingTransport{}, nm: newNodeMetrics(), eng: eng}
	stepRun := func(r transport.Run) {
		n.dataRun.hold(r)
		for n.dataRun.pending() > 0 {
			n.step(&n.dataRun, nil)
		}
	}

	before := transport.Buffers.Snapshot()
	stepRun(pooledRun(len(pkts[0]), pkts...))
	after := transport.Buffers.Snapshot()
	if puts := after.Puts - before.Puts; puts != 1 || eng.steps != k {
		t.Fatalf("a %d-segment run took %d steps and %d pool puts, want %d and 1", k, eng.steps, puts, k)
	}
	foreign := transport.Run{Seg: len(pkts[0])}
	for _, pkt := range pkts {
		foreign.Buf = append(foreign.Buf, pkt...)
	}

	baseline := testing.AllocsPerRun(100, func() {
		for _, pkt := range pkts {
			f, err := n.dec.Decode(pkt)
			if err != nil {
				t.Fatal(err)
			}
			eng.Step(engine.Input{Frame: f})
		}
	})
	if allocs := testing.AllocsPerRun(100, func() { stepRun(foreign) }); allocs != baseline {
		t.Fatalf("stepping a %d-segment run costs %v allocations, want the engine's own %v (%v per segment beyond it)",
			k, allocs, baseline, (allocs-baseline)/k)
	}
}

// TestWatchdogSeesHeldRun: a loop wedged while it holds a run owes the
// run's remaining datagrams, though the data channel is empty. A run of
// three joins from a participant outside the ring reaches a node of a
// static ring; the first sends the node gathering, and its join Multicast
// is held. The watchdog must report within two intervals, naming the two
// datagrams the loop holds and nothing else.
func TestWatchdogSeesHeldRun(t *testing.T) {
	const interval = 200 * time.Millisecond
	join, err := wire.AppendJoin(nil, &wire.JoinMessage{Sender: 3, ProcSet: []wire.ParticipantID{3}})
	if err != nil {
		t.Fatal(err)
	}
	rt := &recordingTransport{gate: make(chan struct{}), held: make(chan struct{}, 1), data: make(chan transport.Run, 1)}
	n := startTestNode(t, EngineAccelRing, rt, 0)
	defer close(rt.gate)
	rt.data <- pooledRun(len(join), join, join, join)
	waitHeld(t, rt)
	wedgedAt := time.Now()
	stalls := make(chan StallReport, 16)
	go n.watchdog(interval, func(r StallReport) { stalls <- r })

	select {
	case r := <-stalls:
		if elapsed := time.Since(wedgedAt); elapsed > 2*interval+100*time.Millisecond {
			t.Fatalf("stall reported after %v, want within 2×%v of the wedge", elapsed, interval)
		}
		want := StallReport{Interval: interval, PendingData: 2}
		if r != want {
			t.Fatalf("stall report %+v, want %+v", r, want)
		}
	case <-time.After(3 * interval):
		t.Fatalf("watchdog never reported the wedged loop (checks=%d)", n.nm.watchdogChecks.Load())
	}
	if m := n.nm.runtimeSnapshot(n); m.DataQueueLen != 2 {
		t.Fatalf("DataQueueLen = %d with two datagrams held, want 2", m.DataQueueLen)
	}
}
