package core

import (
	"testing"
	"time"

	"accelring/internal/enginetest"
	"accelring/internal/wire"
)

// checkInvariants asserts the engine's internal consistency conditions.
// The harness calls it after every handler invocation (AfterStep), so
// any protocol step that breaks an invariant fails the test at the exact
// step that broke it.
func (e *Engine) checkInvariants(t *testing.T) {
	t.Helper()
	switch e.state {
	case StateOperational, StateRecovery:
		if e.buf == nil {
			t.Fatalf("%s: %s state without a buffer", e.cfg.MyID, e.state)
		}
		if e.myIndex < 0 || e.myIndex >= len(e.ring.Members) || e.ring.Members[e.myIndex] != e.cfg.MyID {
			t.Fatalf("%s: bad ring index %d in %v", e.cfg.MyID, e.myIndex, e.ring.Members)
		}
		// The safe bound can never exceed what this node itself holds
		// contiguously: it is the min over everyone's acknowledged state.
		if e.safeBound > e.buf.LocalARU() {
			t.Fatalf("%s: safeBound %d > localARU %d", e.cfg.MyID, e.safeBound, e.buf.LocalARU())
		}
		// Buffer-internal ordering (delivery never outruns receipt etc.)
		if e.buf.Stable() > e.buf.Delivered() || e.buf.Delivered() > e.buf.LocalARU() ||
			e.buf.LocalARU() > e.buf.HighSeq() {
			t.Fatalf("%s: buffer cursors disordered: stable %d delivered %d aru %d high %d",
				e.cfg.MyID, e.buf.Stable(), e.buf.Delivered(), e.buf.LocalARU(), e.buf.HighSeq())
		}
	case StateGather:
		if e.procSet == nil || !e.procSet[e.cfg.MyID] {
			t.Fatalf("%s: gather without self in proc set", e.cfg.MyID)
		}
		if e.failSet[e.cfg.MyID] {
			t.Fatalf("%s: self in own fail set", e.cfg.MyID)
		}
	case StateCommit:
		if !e.pendingRing.Contains(e.cfg.MyID) {
			t.Fatalf("%s: committing to a ring that excludes self: %v",
				e.cfg.MyID, e.pendingRing.Members)
		}
	}
	if e.pendingHead > len(e.pending) {
		t.Fatalf("%s: pending head %d beyond queue %d", e.cfg.MyID, e.pendingHead, len(e.pending))
	}
	if e.state == StateRecovery {
		if e.obligationsHead > len(e.obligations) {
			t.Fatalf("%s: obligations head %d beyond %d",
				e.cfg.MyID, e.obligationsHead, len(e.obligations))
		}
		if e.recoveryMarkers == nil {
			t.Fatalf("%s: recovery without marker tracking", e.cfg.MyID)
		}
	}
}

// TestInvariantsUnderLoad drives the mixed-fault gauntlet with invariant
// checking enabled on every step of every node.
func TestInvariantsUnderLoad(t *testing.T) {
	h := newHarness(t, 4, accelConfig())
	h.AfterStep = func(n *enginetest.Node) { eng(n).checkInvariants(t) }
	h.Fault = randomLoss(5, 0.05)
	h.Start()
	for i := 0; i < 30; i++ {
		for id := wire.ParticipantID(1); id <= 4; id++ {
			svc := wire.ServiceAgreed
			if i%2 == 0 {
				svc = wire.ServiceSafe
			}
			h.submit(id, payload(id, i), svc)
		}
	}
	h.Run(5 * time.Millisecond)
	h.Crash(4)
	h.waitConfig(5*time.Second, []wire.ParticipantID{1, 2, 3}, 1, 2, 3)
	h.Run(3 * time.Second)
	h.checkTotalOrder(1, 2, 3)
}

// TestInvariantsUnderPartitionMerge does the same across a partition and
// merge cycle.
func TestInvariantsUnderPartitionMerge(t *testing.T) {
	h := newHarness(t, 4, accelConfig())
	h.AfterStep = func(n *enginetest.Node) { eng(n).checkInvariants(t) }
	h.Start()
	h.Run(50 * time.Millisecond)
	h.Fault = partitioned(map[wire.ParticipantID]int{3: 1, 4: 1}, nil)
	h.waitConfig(3*time.Second, []wire.ParticipantID{1, 2}, 1, 2)
	h.waitConfig(3*time.Second, []wire.ParticipantID{3, 4}, 3, 4)
	for i := 0; i < 5; i++ {
		h.submit(1, payload(1, i), wire.ServiceSafe)
		h.submit(3, payload(3, i), wire.ServiceSafe)
	}
	h.Run(500 * time.Millisecond)
	h.Fault = nil
	h.submit(2, payload(2, 50), wire.ServiceAgreed)
	all := []wire.ParticipantID{1, 2, 3, 4}
	h.waitConfig(10*time.Second, all, all...)
	h.Run(1 * time.Second)
	h.checkEVS(false)
}
