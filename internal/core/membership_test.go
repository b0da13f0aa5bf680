package core

import (
	"errors"
	"testing"
	"time"

	"accelring/internal/engine"
	"accelring/internal/wire"
)

// waitOperational runs the cluster until every listed node is operational.
func (h *harness) waitOperational(d time.Duration, ids ...wire.ParticipantID) {
	h.t.Helper()
	if h.RunUntil(d, func() bool {
		for _, id := range ids {
			if eng(h.Node(id)).state != StateOperational {
				return false
			}
		}
		return true
	}) {
		return
	}
	states := map[wire.ParticipantID]State{}
	for _, id := range ids {
		states[id] = eng(h.Node(id)).state
	}
	h.t.Fatalf("nodes not operational after %v: %v", d, states)
}

// waitConfig runs the cluster until every listed node has installed a
// regular configuration with exactly the given members.
func (h *harness) waitConfig(d time.Duration, members []wire.ParticipantID, ids ...wire.ParticipantID) {
	h.t.Helper()
	if h.RunUntil(d, func() bool {
		for _, id := range ids {
			if cfg, ok := lastRegularConfig(h.Node(id)); !ok || !idSliceEqual(cfg.Members, members) {
				return false
			}
		}
		return true
	}) {
		return
	}
	for _, id := range ids {
		cfg, _ := lastRegularConfig(h.Node(id))
		h.t.Logf("node %s: state %s config %v", id, eng(h.Node(id)).state, cfg)
	}
	h.t.Fatalf("nodes %v did not install config %v within %v", ids, members, d)
}

// TestStaticConfiguration: a valid list installs sorted with the smallest
// ID as representative; every list a node could not run is
// ErrBadMembership, a list naming ID 0 included — its representative would
// be an ID no node may take, and nobody would inject the first token.
func TestStaticConfiguration(t *testing.T) {
	for _, tc := range []struct {
		name    string
		members []wire.ParticipantID
		me      wire.ParticipantID
		ok      bool
	}{
		{"valid", []wire.ParticipantID{3, 1, 2}, 2, true},
		{"empty", nil, 1, false},
		{"duplicate", []wire.ParticipantID{1, 2, 2}, 1, false},
		{"without me", []wire.ParticipantID{2, 3}, 1, false},
		{"member ID 0", []wire.ParticipantID{0, 1, 2}, 1, false},
		{"too many", make([]wire.ParticipantID, wire.MaxMembers+1), 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, idx, err := StaticConfiguration(tc.members, tc.me)
			if !tc.ok {
				if !errors.Is(err, ErrBadMembership) {
					t.Fatalf("err = %v, want ErrBadMembership", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if cfg.ID.Rep != 1 || !idSliceEqual(cfg.Members, []wire.ParticipantID{1, 2, 3}) || idx != 1 {
				t.Fatalf("got %v at index %d, want ring {1,2,3} rep 1, index 1", cfg, idx)
			}
		})
	}
}

func TestGatherFormsRingFromScratch(t *testing.T) {
	h := newHarness(t, 3, accelConfig())
	h.Members = nil // form the ring by discovery
	h.Start()
	h.waitOperational(2*time.Second, 1, 2, 3)
	for _, n := range h.Nodes {
		cfg, ok := lastRegularConfig(n)
		if !ok {
			t.Fatalf("node %s has no regular configuration", n.ID)
		}
		if len(cfg.Members) != 3 {
			t.Fatalf("node %s installed %d members, want 3 (cfg %v)", n.ID, len(cfg.Members), cfg)
		}
	}
	// The formed ring must carry traffic.
	for i := 0; i < 10; i++ {
		for id := wire.ParticipantID(1); id <= 3; id++ {
			h.submit(id, payload(id, i), wire.ServiceAgreed)
		}
	}
	h.Run(2 * time.Second)
	h.checkAllDelivered(30, 1, 2, 3)
	h.checkTotalOrder(1, 2, 3)
}

func TestSingleNodeFormsSingletonRing(t *testing.T) {
	h := newHarness(t, 1, accelConfig())
	h.Members = nil // form the ring by discovery
	h.Start()
	h.waitOperational(2*time.Second, 1)
	cfg, ok := lastRegularConfig(h.Node(1))
	if !ok || len(cfg.Members) != 1 || cfg.Members[0] != 1 {
		t.Fatalf("singleton config = %v, ok=%v", cfg, ok)
	}
	h.submit(1, []byte("solo"), wire.ServiceSafe)
	h.Run(1 * time.Second)
	h.checkAllDelivered(1, 1)
}

func TestCrashTriggersReformation(t *testing.T) {
	h := newHarness(t, 3, accelConfig())
	h.Start()
	for i := 0; i < 10; i++ {
		h.submit(1, payload(1, i), wire.ServiceAgreed)
	}
	h.Run(500 * time.Millisecond)
	h.checkAllDelivered(10, 1, 2, 3)

	h.Crash(3)
	h.waitConfig(3*time.Second, []wire.ParticipantID{1, 2}, 1, 2)
	// The survivors received a transitional configuration first.
	for _, id := range []wire.ParticipantID{1, 2} {
		foundTrans := false
		for _, d := range h.Node(id).Events() {
			if d.Transitional {
				foundTrans = true
				if len(d.Config.Members) != 2 {
					t.Fatalf("node %s transitional members = %v, want {1,2}", id, d.Config.Members)
				}
			}
		}
		if !foundTrans {
			t.Fatalf("node %s never delivered a transitional configuration", id)
		}
	}
	// The reduced ring still orders messages.
	for i := 0; i < 10; i++ {
		h.submit(1, payload(1, 100+i), wire.ServiceSafe)
		h.submit(2, payload(2, 100+i), wire.ServiceSafe)
	}
	h.Run(2 * time.Second)
	h.checkAllDelivered(30, 1, 2)
	h.checkTotalOrder(1, 2)
}

func TestMessagesInFlightSurviveMembershipChange(t *testing.T) {
	// Submit messages, crash a node mid-stream, and verify the survivors
	// still deliver everything the ring ordered, consistently.
	h := newHarness(t, 4, accelConfig())
	h.Start()
	for i := 0; i < 30; i++ {
		for id := wire.ParticipantID(1); id <= 4; id++ {
			h.submit(id, payload(id, i), wire.ServiceAgreed)
		}
	}
	h.Run(2 * time.Millisecond) // let a little traffic flow, then crash
	h.Crash(4)
	h.waitConfig(3*time.Second, []wire.ParticipantID{1, 2, 3}, 1, 2, 3)
	h.Run(2 * time.Second)
	h.checkTotalOrder(1, 2, 3)
	// All messages from surviving senders must be delivered exactly once.
	h.checkDeliveredRange(3, 0, 30, 1, 2, 3)
	h.checkEVS(false)
}

func TestPartitionFormsTwoRings(t *testing.T) {
	h := newHarness(t, 4, accelConfig())
	h.Start()
	h.Run(100 * time.Millisecond)

	// Partition {1,2} from {3,4}.
	h.Fault = partitioned(map[wire.ParticipantID]int{3: 1, 4: 1}, nil)
	h.waitConfig(3*time.Second, []wire.ParticipantID{1, 2}, 1, 2)
	h.waitConfig(3*time.Second, []wire.ParticipantID{3, 4}, 3, 4)

	cfgA, _ := lastRegularConfig(h.Node(1))
	cfgB, _ := lastRegularConfig(h.Node(3))
	if len(cfgA.Members) != 2 || cfgA.Members[0] != 1 || cfgA.Members[1] != 2 {
		t.Fatalf("partition A config = %v, want {1,2}", cfgA)
	}
	if len(cfgB.Members) != 2 || cfgB.Members[0] != 3 || cfgB.Members[1] != 4 {
		t.Fatalf("partition B config = %v, want {3,4}", cfgB)
	}
	if cfgA.ID == cfgB.ID {
		t.Fatal("the two partitions share a ring ID")
	}

	// Both partitions make progress independently (EVS allows it).
	for i := 0; i < 5; i++ {
		h.submit(1, payload(1, i), wire.ServiceSafe)
		h.submit(3, payload(3, i), wire.ServiceSafe)
	}
	h.Run(2 * time.Second)
	h.checkAllDelivered(5, 1, 2)
	h.checkAllDelivered(5, 3, 4)
	h.checkTotalOrder(1, 2)
	h.checkTotalOrder(3, 4)
}

func TestPartitionHealMergesRings(t *testing.T) {
	h := newHarness(t, 4, accelConfig())
	h.Start()
	h.Run(100 * time.Millisecond)

	h.Fault = partitioned(map[wire.ParticipantID]int{3: 1, 4: 1}, nil)
	h.waitConfig(3*time.Second, []wire.ParticipantID{1, 2}, 1, 2)
	h.waitConfig(3*time.Second, []wire.ParticipantID{3, 4}, 3, 4)
	for i := 0; i < 5; i++ {
		h.submit(1, payload(1, i), wire.ServiceAgreed)
		h.submit(3, payload(3, i), wire.ServiceAgreed)
	}
	h.Run(1 * time.Second)

	// Heal. The sides discover each other via joins (periodic joins have
	// stopped — both sides are operational — but any ambient traffic is
	// foreign to the other side and triggers a merge).
	h.Fault = nil
	for i := 0; i < 5; i++ {
		h.submit(1, payload(1, 100+i), wire.ServiceAgreed)
		h.submit(3, payload(3, 100+i), wire.ServiceAgreed)
	}
	h.waitConfig(5*time.Second, []wire.ParticipantID{1, 2, 3, 4}, 1, 2, 3, 4)
	h.Run(2 * time.Second)

	for _, n := range h.Nodes {
		cfg, ok := lastRegularConfig(n)
		if !ok || len(cfg.Members) != 4 {
			t.Fatalf("node %s post-merge config = %v, want 4 members", n.ID, cfg)
		}
	}
	// Messages submitted after the merge are totally ordered across all.
	for i := 0; i < 5; i++ {
		for id := wire.ParticipantID(1); id <= 4; id++ {
			h.submit(id, payload(id, 200+i), wire.ServiceSafe)
		}
	}
	h.Run(2 * time.Second)
	h.checkDeliveredRange(4, 200, 205, 1, 2, 3, 4)
	h.checkEVS(false) // one order per configuration, the merged one included
}

func TestSafeMessagesNotLostAcrossMembershipChange(t *testing.T) {
	// Safe messages in flight when a member crashes must be delivered by
	// the survivors (in the transitional configuration if stability in the
	// old configuration could not be established).
	h := newHarness(t, 3, accelConfig())
	h.Start()
	for i := 0; i < 20; i++ {
		h.submit(1, payload(1, i), wire.ServiceSafe)
	}
	h.Run(1 * time.Millisecond) // barely any progress yet
	h.Crash(3)
	h.waitConfig(3*time.Second, []wire.ParticipantID{1, 2}, 1, 2)
	h.Run(2 * time.Second)
	h.checkAllDelivered(20, 1, 2)
	h.checkTotalOrder(1, 2)
}

func TestLateJoinerMergesIntoRunningRing(t *testing.T) {
	h := newHarness(t, 3, accelConfig())
	// Only nodes 1 and 2 start as a static ring; node 3 is isolated.
	h.Fault = partitioned(map[wire.ParticipantID]int{3: 1}, nil)
	h.StartNode(1, []wire.ParticipantID{1, 2})
	h.StartNode(2, []wire.ParticipantID{1, 2})
	h.StartNode(3, nil)
	h.waitOperational(2*time.Second, 1, 2, 3) // 3 forms a singleton
	for i := 0; i < 5; i++ {
		h.submit(1, payload(1, i), wire.ServiceAgreed)
	}
	h.Run(500 * time.Millisecond)
	h.checkAllDelivered(5, 1, 2)

	// Node 3 becomes reachable; its traffic/joins trigger a merge.
	h.Fault = nil
	h.submit(3, []byte("hello"), wire.ServiceAgreed)
	h.waitConfig(5*time.Second, []wire.ParticipantID{1, 2, 3}, 1, 2, 3)
	h.Run(1 * time.Second)
	for _, n := range h.Nodes {
		cfg, ok := lastRegularConfig(n)
		if !ok || len(cfg.Members) != 3 {
			t.Fatalf("node %s post-join config = %v, want 3 members", n.ID, cfg)
		}
	}
	// New traffic flows to all three.
	for i := 0; i < 5; i++ {
		h.submit(2, payload(2, 100+i), wire.ServiceSafe)
	}
	before1 := len(h.Node(1).Payloads())
	before3 := len(h.Node(3).Payloads())
	h.Run(2 * time.Second)
	if got := len(h.Node(1).Payloads()) - before1; got != 5 {
		t.Fatalf("node 1 delivered %d new messages, want 5", got)
	}
	if got := len(h.Node(3).Payloads()) - before3; got != 5 {
		t.Fatalf("node 3 delivered %d new messages, want 5", got)
	}
}

func TestCascadingCrashes(t *testing.T) {
	h := newHarness(t, 5, accelConfig())
	h.Start()
	h.Run(100 * time.Millisecond)
	h.Crash(5)
	h.waitConfig(3*time.Second, []wire.ParticipantID{1, 2, 3, 4}, 1, 2, 3, 4)
	h.Crash(4)
	h.waitConfig(3*time.Second, []wire.ParticipantID{1, 2, 3}, 1, 2, 3)
	h.Crash(3)
	h.waitConfig(3*time.Second, []wire.ParticipantID{1, 2}, 1, 2)
	for i := 0; i < 5; i++ {
		h.submit(1, payload(1, i), wire.ServiceSafe)
	}
	h.Run(2 * time.Second)
	h.checkAllDelivered(5, 1, 2)
	cfg, _ := lastRegularConfig(h.Node(1))
	if len(cfg.Members) != 2 {
		t.Fatalf("final config = %v, want {1,2}", cfg)
	}
}

func TestTotalCrashLeavesSingleton(t *testing.T) {
	h := newHarness(t, 3, accelConfig())
	h.Start()
	h.Run(100 * time.Millisecond)
	h.Crash(2)
	h.Crash(3)
	h.waitConfig(3*time.Second, []wire.ParticipantID{1}, 1)
	cfg, _ := lastRegularConfig(h.Node(1))
	if len(cfg.Members) != 1 {
		t.Fatalf("config after losing all peers = %v, want singleton", cfg)
	}
	h.submit(1, []byte("alone"), wire.ServiceSafe)
	h.Run(1 * time.Second)
	h.checkAllDelivered(1, 1)
}

func TestEVSSameOldRingMembersAgreeOnOldMessages(t *testing.T) {
	// Extended Virtual Synchrony: members that move together from one
	// configuration to the next must deliver the same set of the old
	// configuration's messages before the new configuration is installed.
	h := newHarness(t, 4, accelConfig())
	h.Fault = randomLoss(7, 0.05)
	h.Start()
	for i := 0; i < 40; i++ {
		for id := wire.ParticipantID(1); id <= 4; id++ {
			h.submit(id, payload(id, i), wire.ServiceAgreed)
		}
	}
	h.Run(3 * time.Millisecond)
	h.Crash(4)
	h.waitConfig(5*time.Second, []wire.ParticipantID{1, 2, 3}, 1, 2, 3)
	h.Run(3 * time.Second)

	// For each survivor, split deliveries at the final regular config.
	oldSets := map[wire.ParticipantID]map[string]bool{}
	for _, id := range []wire.ParticipantID{1, 2, 3} {
		n := h.Node(id)
		set := map[string]bool{}
		for _, d := range n.Events() {
			if d.Msg == nil && !d.Transitional && len(d.Config.Members) == 3 {
				break
			}
			if d.Msg != nil {
				set[string(d.Msg.Payload)] = true
			}
		}
		oldSets[id] = set
	}
	for _, id := range []wire.ParticipantID{2, 3} {
		if len(oldSets[id]) != len(oldSets[1]) {
			t.Fatalf("node %s delivered %d old-config messages, node 1 delivered %d",
				id, len(oldSets[id]), len(oldSets[1]))
		}
		for p := range oldSets[1] {
			if !oldSets[id][p] {
				t.Fatalf("node %s missing old-config message %q", id, p)
			}
		}
	}
	h.checkTotalOrder(1, 2, 3)
}

func TestThreeWayPartitionAndFullMerge(t *testing.T) {
	h := newHarness(t, 6, accelConfig())
	h.Start()
	h.Run(100 * time.Millisecond)

	// Split into {1,2}, {3,4}, {5,6}.
	h.Fault = partitioned(map[wire.ParticipantID]int{3: 1, 4: 1, 5: 2, 6: 2}, nil)
	h.waitConfig(3*time.Second, []wire.ParticipantID{1, 2}, 1, 2)
	h.waitConfig(3*time.Second, []wire.ParticipantID{3, 4}, 3, 4)
	h.waitConfig(3*time.Second, []wire.ParticipantID{5, 6}, 5, 6)

	// Each partition makes independent progress.
	for i := 0; i < 3; i++ {
		h.submit(1, payload(1, i), wire.ServiceSafe)
		h.submit(3, payload(3, i), wire.ServiceSafe)
		h.submit(5, payload(5, i), wire.ServiceSafe)
	}
	h.Run(1 * time.Second)
	h.checkAllDelivered(3, 1, 2)
	h.checkAllDelivered(3, 3, 4)
	h.checkAllDelivered(3, 5, 6)

	// Heal everything at once; ambient traffic triggers a three-way merge.
	h.Fault = nil
	for i := 0; i < 3; i++ {
		h.submit(1, payload(1, 100+i), wire.ServiceAgreed)
		h.submit(3, payload(3, 100+i), wire.ServiceAgreed)
		h.submit(5, payload(5, 100+i), wire.ServiceAgreed)
	}
	all := []wire.ParticipantID{1, 2, 3, 4, 5, 6}
	h.waitConfig(10*time.Second, all, all...)

	// Post-merge traffic reaches everyone in one total order.
	for i := 0; i < 5; i++ {
		for _, id := range all {
			h.submit(id, payload(id, 200+i), wire.ServiceSafe)
		}
	}
	h.Run(3 * time.Second)
	h.checkDeliveredRange(6, 200, 205, all...)
	h.checkEVS(false)
}

func TestTransitionalPeersComeFromSameOldRing(t *testing.T) {
	// After a merge of two rings, a member's transitional configuration
	// must contain only members that came from ITS old ring (per EVS),
	// not everyone in both rings.
	h := newHarness(t, 4, accelConfig())
	h.Start()
	h.Run(100 * time.Millisecond)
	h.Fault = partitioned(map[wire.ParticipantID]int{3: 1, 4: 1}, nil)
	h.waitConfig(3*time.Second, []wire.ParticipantID{1, 2}, 1, 2)
	h.waitConfig(3*time.Second, []wire.ParticipantID{3, 4}, 3, 4)

	h.Fault = nil
	h.submit(1, []byte("wake"), wire.ServiceAgreed)
	all := []wire.ParticipantID{1, 2, 3, 4}
	h.waitConfig(10*time.Second, all, all...)

	// Each side's LAST transitional config (for the merge) is its old ring.
	for id, want := range map[wire.ParticipantID][]wire.ParticipantID{1: {1, 2}, 3: {3, 4}} {
		var last engine.Configuration
		for _, d := range h.Node(id).Events() {
			if d.Msg == nil && d.Transitional {
				last = d.Config
			}
		}
		if !idSliceEqual(last.Members, want) {
			t.Fatalf("node %s merge transitional = %v, want %v", id, last.Members, want)
		}
	}
}

func TestSubmissionsDuringMembershipChangeAreDelivered(t *testing.T) {
	// Messages submitted while the ring is reforming must be queued and
	// ordered once the new configuration installs.
	h := newHarness(t, 3, accelConfig())
	h.Start()
	h.Run(50 * time.Millisecond)
	h.Crash(3)
	// Expire the survivors' token-loss timers now, so the submissions
	// arrive mid-gather.
	for _, id := range []wire.ParticipantID{1, 2} {
		if !h.Fire(id, engine.TimerTokenLoss) || eng(h.Node(id)).state != StateGather {
			t.Fatalf("node %s did not enter gather on token loss", id)
		}
	}
	for i := 0; i < 10; i++ {
		h.submit(1, payload(1, i), wire.ServiceSafe)
	}
	h.waitConfig(3*time.Second, []wire.ParticipantID{1, 2}, 1, 2)
	h.Run(2 * time.Second)
	h.checkAllDelivered(10, 1, 2)
	h.checkTotalOrder(1, 2)
}
