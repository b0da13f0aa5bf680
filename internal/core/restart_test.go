package core

import (
	"testing"
	"time"

	"accelring/internal/wire"
)

// TestRestartRejoinsRing crashes a node mid-stream, lets the survivors
// reconfigure, then revives it with a fresh engine: the new incarnation
// must rejoin through the membership protocol, the full ring must order
// traffic again, and the merged delivery logs of all incarnations must
// pass the conformance checker.
func TestRestartRejoinsRing(t *testing.T) {
	h := newHarness(t, 3, accelConfig())
	h.Start()
	h.Members = nil // rejoin after restarts by discovery
	for i := 0; i < 10; i++ {
		for id := wire.ParticipantID(1); id <= 3; id++ {
			h.submit(id, payload(id, i), wire.ServiceAgreed)
		}
	}
	h.Run(100 * time.Millisecond)

	h.Crash(3)
	h.waitConfig(5*time.Second, []wire.ParticipantID{1, 2}, 1, 2)
	for i := 100; i < 110; i++ {
		h.submit(1, payload(1, i), wire.ServiceAgreed)
		h.submit(2, payload(2, i), wire.ServiceSafe)
	}
	h.Run(200 * time.Millisecond)

	h.Restart(3)
	h.waitConfig(10*time.Second, []wire.ParticipantID{1, 2, 3}, 1, 2, 3)
	for i := 200; i < 210; i++ {
		for id := wire.ParticipantID(1); id <= 3; id++ {
			h.submit(id, payload(id, i), wire.ServiceAgreed)
		}
	}
	h.Run(2 * time.Second)

	// The restarted incarnation must have delivered everything submitted
	// after the rejoin, in the same order as the survivors.
	n3 := h.Node(3)
	if got := len(n3.Payloads()); got < 30 {
		t.Fatalf("restarted node delivered %d messages, want at least the 30 post-rejoin ones", got)
	}
	// Cross-node order is checked per configuration epoch by the EVS
	// checker (prefix alignment from index 0 would be wrong across
	// incarnations: the new incarnation's history starts at the rejoin).
	h.checkEVS(true)

	// The archived first incarnation must be part of the checked log.
	if len(n3.Incarnations) != 2 || len(n3.Incarnations[0]) == 0 {
		t.Fatalf("first incarnation history not archived: %d incarnations", len(n3.Incarnations))
	}
}

// TestRestartedSingletonFormsNewRing restarts node 1 while it is cut off
// from the others, so its fresh incarnation can only form a singleton. That
// ring must be new: with the ring sequence restarting at zero it was
// {1, 4}, the static ring the first incarnation delivered in, and two
// histories in one ring ID broke EVS agreement.
func TestRestartedSingletonFormsNewRing(t *testing.T) {
	h := newHarness(t, 3, accelConfig())
	h.Start()
	h.Members = nil // rejoin after restarts by discovery
	for id := wire.ParticipantID(1); id <= 3; id++ {
		h.submit(id, payload(id, 0), wire.ServiceAgreed)
	}
	h.Run(50 * time.Millisecond)

	h.Fault = partitioned(map[wire.ParticipantID]int{1: 1}, nil)
	h.Crash(1)
	h.Restart(1)
	h.waitConfig(5*time.Second, []wire.ParticipantID{1}, 1)

	singleton, _ := lastRegularConfig(h.Node(1))
	for _, ev := range h.Node(1).Incarnations[0] {
		if ev.Msg == nil && ev.Config.ID == singleton.ID {
			t.Fatalf("restarted node 1 formed ring %s, which its first incarnation delivered in", singleton.ID)
		}
	}
	h.checkEVS(false)
}

// TestRestartAfterTotalSilence restarts a node that crashed before the
// survivors noticed: the membership merge must still converge.
func TestDoubleRestart(t *testing.T) {
	h := newHarness(t, 3, accelConfig())
	h.Start()
	h.Members = nil // rejoin after restarts by discovery
	h.Run(50 * time.Millisecond)

	for round := 0; round < 2; round++ {
		h.Crash(2)
		h.waitConfig(5*time.Second, []wire.ParticipantID{1, 3}, 1, 3)
		h.Restart(2)
		h.waitConfig(10*time.Second, []wire.ParticipantID{1, 2, 3}, 1, 2, 3)
	}
	for i := 0; i < 5; i++ {
		for id := wire.ParticipantID(1); id <= 3; id++ {
			h.submit(id, payload(id, i), wire.ServiceAgreed)
		}
	}
	h.Run(1 * time.Second)
	h.checkAllDelivered(15, 1, 2, 3)
	h.checkEVS(true)

	if n := len(h.Node(2).Incarnations); n != 3 {
		t.Fatalf("node 2 should have 3 incarnations, has %d", n)
	}
}
