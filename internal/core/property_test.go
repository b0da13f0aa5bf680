package core

import (
	"testing"
	"testing/quick"
	"time"

	"accelring/internal/wire"
)

// TestQuickTotalOrderUnderRandomLoss runs rings of random size under random
// message loss and verifies the fundamental invariant: all participants
// deliver the same messages in the same order (prefix consistency), and
// nothing is delivered twice.
func TestQuickTotalOrderUnderRandomLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64, sizeRaw, lossRaw uint8) bool {
		size := int(sizeRaw%4) + 2          // 2..5 nodes
		loss := float64(lossRaw%20) / 100.0 // 0..19% loss
		h := newHarness(t, size, accelConfig())
		h.Fault = randomLoss(seed, loss)
		h.Start()
		perNode := 15
		for i := 0; i < perNode; i++ {
			for id := 1; id <= size; id++ {
				svc := wire.ServiceAgreed
				if (i+id)%3 == 0 {
					svc = wire.ServiceSafe
				}
				h.submit(wire.ParticipantID(id), payload(wire.ParticipantID(id), i), svc)
			}
		}
		h.Run(20 * time.Second)

		want := perNode * size
		for _, n := range h.Nodes {
			msgs := n.Payloads()
			if len(msgs) != want {
				t.Logf("seed %d size %d loss %.2f: node %s delivered %d, want %d",
					seed, size, loss, n.ID, len(msgs), want)
				return false
			}
			seen := map[string]bool{}
			for _, m := range msgs {
				if seen[m] {
					t.Logf("duplicate delivery %q at node %s", m, n.ID)
					return false
				}
				seen[m] = true
			}
		}
		ref := h.Nodes[0].Payloads()
		for _, n := range h.Nodes[1:] {
			msgs := n.Payloads()
			for k := range ref {
				if msgs[k] != ref[k] {
					t.Logf("order divergence at %d between nodes 1 and %s", k, n.ID)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickConsistencyUnderCrash crashes a random node at a random point in
// the stream and checks the survivors' delivery sequences stay consistent
// and complete for surviving senders' messages.
func TestQuickConsistencyUnderCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64, victimRaw, whenRaw uint8) bool {
		const size = 4
		victim := wire.ParticipantID(victimRaw%size) + 1
		when := time.Duration(whenRaw%40) * 100 * time.Microsecond
		h := newHarness(t, size, accelConfig())
		h.Fault = randomLoss(seed, 0.03)
		h.Start()
		for i := 0; i < 20; i++ {
			for id := 1; id <= size; id++ {
				h.submit(wire.ParticipantID(id), payload(wire.ParticipantID(id), i), wire.ServiceAgreed)
			}
		}
		h.Run(when)
		h.Crash(victim)
		h.Run(20 * time.Second)

		var survivors []wire.ParticipantID
		for id := wire.ParticipantID(1); id <= size; id++ {
			if id != victim {
				survivors = append(survivors, id)
			}
		}
		// Prefix consistency across survivors.
		ref := h.Node(survivors[0]).Payloads()
		for _, id := range survivors[1:] {
			msgs := h.Node(id).Payloads()
			n := len(ref)
			if len(msgs) < n {
				n = len(msgs)
			}
			for k := 0; k < n; k++ {
				if msgs[k] != ref[k] {
					t.Logf("seed %d victim %s when %v: divergence at %d", seed, victim, when, k)
					return false
				}
			}
		}
		// Survivors' own messages must all be delivered at every survivor.
		for _, id := range survivors {
			seen := map[string]bool{}
			for _, m := range h.Node(id).Payloads() {
				seen[m] = true
			}
			for _, sender := range survivors {
				for i := 0; i < 20; i++ {
					if !seen[string(payload(sender, i))] {
						t.Logf("seed %d victim %s when %v: node %s missing %s/%d",
							seed, victim, when, id, sender, i)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
