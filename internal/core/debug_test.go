package core

import (
	"testing"
	"time"

	"accelring/internal/wire"
)

// TestFiveNodeCrashReformation is a regression test for a membership
// livelock: after a crash, nodes that bounced from Commit back to Gather
// used to reset their proc sets to {self}, and their next joins bounced
// already-committed peers back to Gather indefinitely. Formation knowledge
// must be preserved across failed attempts.
func TestFiveNodeCrashReformation(t *testing.T) {
	h := newHarness(t, 5, accelConfig())
	h.Start()
	h.Run(100 * time.Millisecond)
	h.Crash(5)
	h.waitConfig(3*time.Second, []wire.ParticipantID{1, 2, 3, 4}, 1, 2, 3, 4)

	for i := 0; i < 10; i++ {
		for id := wire.ParticipantID(1); id <= 4; id++ {
			h.submit(id, payload(id, i), wire.ServiceSafe)
		}
	}
	h.Run(2 * time.Second)
	h.checkAllDelivered(40, 1, 2, 3, 4)
	h.checkTotalOrder(1, 2, 3, 4)
}
