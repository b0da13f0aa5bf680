package core

import (
	"testing"

	"accelring/internal/engine"
	"accelring/internal/wire"
)

// The ring side's allocation gates: a data frame the runtime has decoded
// costs the engine nothing more to store and deliver, and a packed
// container costs one allocation for all of its sub-messages.

const allocRuns = 200

// laterRoundFrames builds n in-order data frames from member 3, sent in a
// round after the one member 1 last processed, so each also cancels the
// token retransmission timer. Building them is the decode's cost, outside
// the measurement.
func laterRoundFrames(e *Engine, n int, payload []byte, packed bool) []*wire.DataMessage {
	frames := make([]*wire.DataMessage, n)
	for i := range frames {
		frames[i] = &wire.DataMessage{
			RingID:  e.ring.ID,
			Seq:     wire.Seq(i + 1),
			PID:     3,
			Round:   e.round + 1,
			Service: wire.ServiceAgreed,
			Payload: payload,
			Packed:  packed,
		}
	}
	return frames
}

// stepAllocs steps each frame in turn and returns the allocations per
// Step, checking each delivers want messages. The test discards what was
// delivered after each Step, as the token's stability bound does in a
// running ring, so the buffer stays at its steady-state size.
func stepAllocs(t *testing.T, e *Engine, frames []*wire.DataMessage, want int) float64 {
	t.Helper()
	next := 0
	return testing.AllocsPerRun(allocRuns, func() {
		acts := e.Step(engine.Input{Frame: frames[next]})
		next++
		got := 0
		for _, a := range acts {
			if _, ok := a.(engine.Deliver); ok {
				got++
			}
		}
		if got != want {
			t.Fatalf("step %d delivered %d, want %d", next, got, want)
		}
		if _, ok := acts[0].(engine.CancelTimer); !ok {
			t.Fatalf("step %d: first action %T, want the retransmission cancel", next, acts[0])
		}
		e.buf.DiscardStable(e.buf.Delivered())
	})
}

func TestDataStepAllocs(t *testing.T) {
	e := newMember(t, 1, 3, Config{})
	frames := laterRoundFrames(e, allocRuns+1, make([]byte, 1350), false)
	if allocs := stepAllocs(t, e, frames, 1); allocs != 0 {
		t.Fatalf("in-order data frame: %.1f allocs per Step, want 0", allocs)
	}
}

func TestPackedStepAllocs(t *testing.T) {
	const k = 20
	e := newMember(t, 1, 3, Config{PackThreshold: 1350})
	subs := make([][]byte, k)
	for i := range subs {
		subs[i] = make([]byte, 60)
	}
	packed, err := wire.PackPayloads(subs)
	if err != nil {
		t.Fatal(err)
	}
	frames := laterRoundFrames(e, allocRuns+1, packed, true)
	if allocs := stepAllocs(t, e, frames, k); allocs != 1 {
		t.Fatalf("container of %d: %.1f allocs per Step, want 1", k, allocs)
	}
}
