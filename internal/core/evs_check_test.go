package core

import (
	"testing"
	"time"

	"accelring/internal/enginetest"
	"accelring/internal/faultplan"
	"accelring/internal/wire"
)

// The EVS conformance checker itself lives in internal/evscheck (with its
// own mutation self-tests); harness.checkEVS runs it over every node and
// incarnation, so every scenario and chaos campaign ends with the same
// machine-checked verdict.

func TestEVSCheckerOnCleanRun(t *testing.T) {
	h := newHarness(t, 4, accelConfig())
	h.Start()
	for i := 0; i < 20; i++ {
		for id := wire.ParticipantID(1); id <= 4; id++ {
			h.submit(id, payload(id, i), wire.ServiceAgreed)
		}
	}
	h.Run(2 * time.Second)
	h.checkAllDelivered(80, 1, 2, 3, 4)
	h.checkEVS(false)
}

func TestEVSUnderMixedFaults(t *testing.T) {
	// The gauntlet: loss from the start, a crash mid-stream, a partition,
	// more traffic in both halves, then a merge — EVS axioms must hold
	// throughout for every node that is still alive.
	h := newHarness(t, 5, accelConfig())
	loss := randomLoss(1234, 0.03)
	h.Fault = loss
	h.Start()

	send := func(base int) {
		for i := 0; i < 10; i++ {
			for id := wire.ParticipantID(1); id <= 5; id++ {
				if h.Node(id).Crashed {
					continue
				}
				h.submit(id, payload(id, base+i), wire.ServiceAgreed)
			}
		}
	}
	send(0)
	h.Run(5 * time.Millisecond)
	h.Crash(5)
	h.waitConfig(5*time.Second, []wire.ParticipantID{1, 2, 3, 4}, 1, 2, 3, 4)
	send(100)
	h.Run(500 * time.Millisecond)

	// Partition {1,2} / {3,4}.
	h.Fault = partitioned(map[wire.ParticipantID]int{3: 1, 4: 1}, loss)
	h.waitConfig(5*time.Second, []wire.ParticipantID{1, 2}, 1, 2)
	h.waitConfig(5*time.Second, []wire.ParticipantID{3, 4}, 3, 4)
	for i := 0; i < 10; i++ {
		h.submit(1, payload(1, 200+i), wire.ServiceSafe)
		h.submit(3, payload(3, 200+i), wire.ServiceSafe)
	}
	h.Run(1 * time.Second)

	// Merge back and push more traffic.
	h.Fault = loss
	h.submit(2, payload(2, 300), wire.ServiceAgreed)
	h.waitConfig(10*time.Second, []wire.ParticipantID{1, 2, 3, 4}, 1, 2, 3, 4)
	send(400)
	h.Run(3 * time.Second)

	// The crashed node's history must also satisfy the axioms up to its
	// death; checkEVS covers all nodes including it.
	h.checkEVS(false)
}

func TestEVSUnderTokenLossStorm(t *testing.T) {
	// Repeated token loss forces membership churn without any crash; the
	// ring must keep re-forming with all members and histories must stay
	// consistent.
	h := newHarness(t, 3, accelConfig())
	dropped := 0
	h.Fault = func(_ time.Duration, _, _ wire.ParticipantID, f wire.Frame) faultplan.Verdict {
		if f.Kind() != wire.KindToken {
			return faultplan.Verdict{Delay: enginetest.Delay}
		}
		dropped++
		return faultplan.Verdict{Drop: dropped%40 == 0, Delay: enginetest.Delay} // periodic token loss bursts past retransmission
	}
	h.Start()
	for i := 0; i < 60; i++ {
		for id := wire.ParticipantID(1); id <= 3; id++ {
			h.submit(id, payload(id, i), wire.ServiceAgreed)
		}
	}
	h.Run(10 * time.Second)
	h.checkAllDelivered(180, 1, 2, 3)
	h.checkEVS(false)
}
