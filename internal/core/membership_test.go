package core

import (
	"testing"
	"time"

	"accelring/internal/wire"
)

// waitOperational runs the harness until every non-crashed node is
// operational (or the deadline passes).
func (h *harness) waitOperational(d time.Duration, ids ...wire.ParticipantID) {
	h.t.Helper()
	step := 10 * time.Millisecond
	for elapsed := time.Duration(0); elapsed < d; elapsed += step {
		h.run(step)
		all := true
		for _, id := range ids {
			if h.node(id).eng.state != StateOperational {
				all = false
				break
			}
		}
		if all {
			return
		}
	}
	states := map[wire.ParticipantID]State{}
	for _, id := range ids {
		states[id] = h.node(id).eng.state
	}
	h.t.Fatalf("nodes not operational after %v: %v", d, states)
}

// waitConfig runs the harness until every listed node has installed a
// regular configuration with exactly the given members.
func (h *harness) waitConfig(d time.Duration, members []wire.ParticipantID, ids ...wire.ParticipantID) {
	h.t.Helper()
	step := 10 * time.Millisecond
	for elapsed := time.Duration(0); elapsed < d; elapsed += step {
		h.run(step)
		all := true
		for _, id := range ids {
			cfg, ok := h.node(id).lastRegularConfig()
			if !ok || !idSliceEqual(cfg.Members, members) {
				all = false
				break
			}
		}
		if all {
			return
		}
	}
	for _, id := range ids {
		cfg, _ := h.node(id).lastRegularConfig()
		h.t.Logf("node %s: state %s config %v", id, h.node(id).eng.state, cfg)
	}
	h.t.Fatalf("nodes %v did not install config %v within %v", ids, members, d)
}

// lastRegularConfig returns the node's most recent regular configuration.
func (n *hnode) lastRegularConfig() (Configuration, bool) {
	for i := len(n.delivered) - 1; i >= 0; i-- {
		d := n.delivered[i]
		if d.msg == nil && !d.trans {
			return d.config, true
		}
	}
	return Configuration{}, false
}

func TestGatherFormsRingFromScratch(t *testing.T) {
	h := newHarness(t, 3, accelConfig())
	h.startGather()
	h.waitOperational(2*time.Second, 1, 2, 3)
	for _, n := range h.nodes {
		cfg, ok := n.lastRegularConfig()
		if !ok {
			t.Fatalf("node %s has no regular configuration", n.id)
		}
		if len(cfg.Members) != 3 {
			t.Fatalf("node %s installed %d members, want 3 (cfg %v)", n.id, len(cfg.Members), cfg)
		}
	}
	// The formed ring must carry traffic.
	for i := 0; i < 10; i++ {
		for id := wire.ParticipantID(1); id <= 3; id++ {
			h.submit(id, payload(id, i), wire.ServiceAgreed)
		}
	}
	h.run(2 * time.Second)
	h.checkAllDelivered(30, 1, 2, 3)
	h.checkTotalOrder(1, 2, 3)
}

func TestSingleNodeFormsSingletonRing(t *testing.T) {
	h := newHarness(t, 1, accelConfig())
	h.startGather()
	h.waitOperational(2*time.Second, 1)
	cfg, ok := h.node(1).lastRegularConfig()
	if !ok || len(cfg.Members) != 1 || cfg.Members[0] != 1 {
		t.Fatalf("singleton config = %v, ok=%v", cfg, ok)
	}
	h.submit(1, []byte("solo"), wire.ServiceSafe)
	h.run(1 * time.Second)
	h.checkAllDelivered(1, 1)
}

func TestCrashTriggersReformation(t *testing.T) {
	h := newHarness(t, 3, accelConfig())
	h.startStatic()
	for i := 0; i < 10; i++ {
		h.submit(1, payload(1, i), wire.ServiceAgreed)
	}
	h.run(500 * time.Millisecond)
	h.checkAllDelivered(10, 1, 2, 3)

	h.crash(3)
	h.waitConfig(3*time.Second, []wire.ParticipantID{1, 2}, 1, 2)
	// The survivors received a transitional configuration first.
	for _, id := range []wire.ParticipantID{1, 2} {
		foundTrans := false
		for _, d := range h.node(id).configs() {
			if d.trans {
				foundTrans = true
				if len(d.config.Members) != 2 {
					t.Fatalf("node %s transitional members = %v, want {1,2}", id, d.config.Members)
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
	h.run(2 * time.Second)
	h.checkAllDelivered(30, 1, 2)
	h.checkTotalOrder(1, 2)
}

func TestMessagesInFlightSurviveMembershipChange(t *testing.T) {
	// Submit messages, crash a node mid-stream, and verify the survivors
	// still deliver everything the ring ordered, consistently.
	h := newHarness(t, 4, accelConfig())
	h.startStatic()
	for i := 0; i < 30; i++ {
		for id := wire.ParticipantID(1); id <= 4; id++ {
			h.submit(id, payload(id, i), wire.ServiceAgreed)
		}
	}
	h.run(2 * time.Millisecond) // let a little traffic flow, then crash
	h.crash(4)
	h.waitConfig(3*time.Second, []wire.ParticipantID{1, 2, 3}, 1, 2, 3)
	h.run(2 * time.Second)
	h.checkTotalOrder(1, 2, 3)
	// All messages from surviving senders must be delivered exactly once.
	for _, id := range []wire.ParticipantID{1, 2, 3} {
		msgs := h.node(id).appMsgs()
		seen := map[string]int{}
		for _, m := range msgs {
			seen[string(m.Payload)]++
		}
		for p, n := range seen {
			if n != 1 {
				t.Fatalf("node %s delivered %q %d times", id, p, n)
			}
		}
		for _, sender := range []wire.ParticipantID{1, 2, 3} {
			for i := 0; i < 30; i++ {
				if seen[string(payload(sender, i))] != 1 {
					t.Fatalf("node %s missed message %s/%d", id, sender, i)
				}
			}
		}
	}
}

func TestPartitionFormsTwoRings(t *testing.T) {
	h := newHarness(t, 4, accelConfig())
	h.startStatic()
	h.run(100 * time.Millisecond)

	// Partition {1,2} from {3,4}.
	h.partition[3] = 1
	h.partition[4] = 1
	h.waitConfig(3*time.Second, []wire.ParticipantID{1, 2}, 1, 2)
	h.waitConfig(3*time.Second, []wire.ParticipantID{3, 4}, 3, 4)

	cfgA, _ := h.node(1).lastRegularConfig()
	cfgB, _ := h.node(3).lastRegularConfig()
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
	h.run(2 * time.Second)
	h.checkAllDelivered(5, 1, 2)
	h.checkAllDelivered(5, 3, 4)
	h.checkTotalOrder(1, 2)
	h.checkTotalOrder(3, 4)
}

func TestPartitionHealMergesRings(t *testing.T) {
	h := newHarness(t, 4, accelConfig())
	h.startStatic()
	h.run(100 * time.Millisecond)

	h.partition[3] = 1
	h.partition[4] = 1
	h.waitConfig(3*time.Second, []wire.ParticipantID{1, 2}, 1, 2)
	h.waitConfig(3*time.Second, []wire.ParticipantID{3, 4}, 3, 4)
	for i := 0; i < 5; i++ {
		h.submit(1, payload(1, i), wire.ServiceAgreed)
		h.submit(3, payload(3, i), wire.ServiceAgreed)
	}
	h.run(1 * time.Second)

	// Heal. The sides discover each other via joins (periodic joins have
	// stopped — both sides are operational — but any ambient traffic is
	// foreign to the other side and triggers a merge).
	h.partition = map[wire.ParticipantID]int{}
	for i := 0; i < 5; i++ {
		h.submit(1, payload(1, 100+i), wire.ServiceAgreed)
		h.submit(3, payload(3, 100+i), wire.ServiceAgreed)
	}
	h.waitConfig(5*time.Second, []wire.ParticipantID{1, 2, 3, 4}, 1, 2, 3, 4)
	h.run(2 * time.Second)

	for _, n := range h.nodes {
		cfg, ok := n.lastRegularConfig()
		if !ok || len(cfg.Members) != 4 {
			t.Fatalf("node %s post-merge config = %v, want 4 members", n.id, cfg)
		}
	}
	// Messages submitted after the merge are totally ordered across all.
	for i := 0; i < 5; i++ {
		for id := wire.ParticipantID(1); id <= 4; id++ {
			h.submit(id, payload(id, 200+i), wire.ServiceSafe)
		}
	}
	h.run(2 * time.Second)
	// Compare only the post-merge suffix: drop everything delivered before
	// the final configuration at each node.
	var suffixes [][]string
	for _, n := range h.nodes {
		var suffix []string
		inFinal := false
		for _, d := range n.delivered {
			if d.msg == nil && !d.trans && len(d.config.Members) == 4 {
				inFinal = true
				suffix = nil
				continue
			}
			if inFinal && d.msg != nil {
				suffix = append(suffix, string(d.msg.Payload))
			}
		}
		suffixes = append(suffixes, suffix)
	}
	for i := 1; i < len(suffixes); i++ {
		a, b := suffixes[0], suffixes[i]
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		for k := 0; k < n; k++ {
			if a[k] != b[k] {
				t.Fatalf("post-merge order differs at %d: node 1 %q vs node %d %q", k, a[k], i+1, b[k])
			}
		}
	}
	// Everyone must have delivered the 20 post-merge messages.
	for i, s := range suffixes {
		count := 0
		for _, p := range s {
			if len(p) > 0 && (p[len(p)-3:] == "200" || p[len(p)-3:] == "201" || p[len(p)-3:] == "202" || p[len(p)-3:] == "203" || p[len(p)-3:] == "204") {
				count++
			}
		}
		if count < 20 {
			t.Fatalf("node %d delivered %d of the 20 post-merge messages", i+1, count)
		}
	}
}

func TestSafeMessagesNotLostAcrossMembershipChange(t *testing.T) {
	// Safe messages in flight when a member crashes must be delivered by
	// the survivors (in the transitional configuration if stability in the
	// old configuration could not be established).
	h := newHarness(t, 3, accelConfig())
	h.startStatic()
	for i := 0; i < 20; i++ {
		h.submit(1, payload(1, i), wire.ServiceSafe)
	}
	h.run(1 * time.Millisecond) // barely any progress yet
	h.crash(3)
	h.waitConfig(3*time.Second, []wire.ParticipantID{1, 2}, 1, 2)
	h.run(2 * time.Second)
	h.checkAllDelivered(20, 1, 2)
	h.checkTotalOrder(1, 2)
}

func TestLateJoinerMergesIntoRunningRing(t *testing.T) {
	h := newHarness(t, 3, accelConfig())
	// Only nodes 1 and 2 start as a static ring; node 3 is isolated.
	h.partition[3] = 1
	members := []wire.ParticipantID{1, 2}
	for _, id := range members {
		n := h.node(id)
		actions, err := n.eng.Start(members)
		if err != nil {
			t.Fatal(err)
		}
		h.execute(n, actions)
	}
	h.startDiscover(h.node(3))
	h.waitOperational(2*time.Second, 1, 2, 3) // 3 forms a singleton
	for i := 0; i < 5; i++ {
		h.submit(1, payload(1, i), wire.ServiceAgreed)
	}
	h.run(500 * time.Millisecond)
	h.checkAllDelivered(5, 1, 2)

	// Node 3 becomes reachable; its traffic/joins trigger a merge.
	h.partition = map[wire.ParticipantID]int{}
	h.submit(3, []byte("hello"), wire.ServiceAgreed)
	h.waitConfig(5*time.Second, []wire.ParticipantID{1, 2, 3}, 1, 2, 3)
	h.run(1 * time.Second)
	for _, n := range h.nodes {
		cfg, ok := n.lastRegularConfig()
		if !ok || len(cfg.Members) != 3 {
			t.Fatalf("node %s post-join config = %v, want 3 members", n.id, cfg)
		}
	}
	// New traffic flows to all three.
	for i := 0; i < 5; i++ {
		h.submit(2, payload(2, 100+i), wire.ServiceSafe)
	}
	before1 := len(h.node(1).appMsgs())
	before3 := len(h.node(3).appMsgs())
	h.run(2 * time.Second)
	if got := len(h.node(1).appMsgs()) - before1; got != 5 {
		t.Fatalf("node 1 delivered %d new messages, want 5", got)
	}
	if got := len(h.node(3).appMsgs()) - before3; got != 5 {
		t.Fatalf("node 3 delivered %d new messages, want 5", got)
	}
}

func TestCascadingCrashes(t *testing.T) {
	h := newHarness(t, 5, accelConfig())
	h.startStatic()
	h.run(100 * time.Millisecond)
	h.crash(5)
	h.waitConfig(3*time.Second, []wire.ParticipantID{1, 2, 3, 4}, 1, 2, 3, 4)
	h.crash(4)
	h.waitConfig(3*time.Second, []wire.ParticipantID{1, 2, 3}, 1, 2, 3)
	h.crash(3)
	h.waitConfig(3*time.Second, []wire.ParticipantID{1, 2}, 1, 2)
	for i := 0; i < 5; i++ {
		h.submit(1, payload(1, i), wire.ServiceSafe)
	}
	h.run(2 * time.Second)
	h.checkAllDelivered(5, 1, 2)
	cfg, _ := h.node(1).lastRegularConfig()
	if len(cfg.Members) != 2 {
		t.Fatalf("final config = %v, want {1,2}", cfg)
	}
}

func TestTotalCrashLeavesSingleton(t *testing.T) {
	h := newHarness(t, 3, accelConfig())
	h.startStatic()
	h.run(100 * time.Millisecond)
	h.crash(2)
	h.crash(3)
	h.waitConfig(3*time.Second, []wire.ParticipantID{1}, 1)
	cfg, _ := h.node(1).lastRegularConfig()
	if len(cfg.Members) != 1 {
		t.Fatalf("config after losing all peers = %v, want singleton", cfg)
	}
	h.submit(1, []byte("alone"), wire.ServiceSafe)
	h.run(1 * time.Second)
	h.checkAllDelivered(1, 1)
}

func TestEVSSameOldRingMembersAgreeOnOldMessages(t *testing.T) {
	// Extended Virtual Synchrony: members that move together from one
	// configuration to the next must deliver the same set of the old
	// configuration's messages before the new configuration is installed.
	h := newHarness(t, 4, accelConfig())
	h.dropData = randomLoss(7, 0.05)
	h.startStatic()
	for i := 0; i < 40; i++ {
		for id := wire.ParticipantID(1); id <= 4; id++ {
			h.submit(id, payload(id, i), wire.ServiceAgreed)
		}
	}
	h.run(3 * time.Millisecond)
	h.crash(4)
	h.waitConfig(5*time.Second, []wire.ParticipantID{1, 2, 3}, 1, 2, 3)
	h.run(3 * time.Second)

	// For each survivor, split deliveries at the final regular config.
	oldSets := map[wire.ParticipantID]map[string]bool{}
	for _, id := range []wire.ParticipantID{1, 2, 3} {
		n := h.node(id)
		set := map[string]bool{}
		for _, d := range n.delivered {
			if d.msg == nil && !d.trans && len(d.config.Members) == 3 {
				break
			}
			if d.msg != nil {
				set[string(d.msg.Payload)] = true
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
	h.startStatic()
	h.run(100 * time.Millisecond)

	// Split into {1,2}, {3,4}, {5,6}.
	h.partition[3], h.partition[4] = 1, 1
	h.partition[5], h.partition[6] = 2, 2
	h.waitConfig(3*time.Second, []wire.ParticipantID{1, 2}, 1, 2)
	h.waitConfig(3*time.Second, []wire.ParticipantID{3, 4}, 3, 4)
	h.waitConfig(3*time.Second, []wire.ParticipantID{5, 6}, 5, 6)

	// Each partition makes independent progress.
	for i := 0; i < 3; i++ {
		h.submit(1, payload(1, i), wire.ServiceSafe)
		h.submit(3, payload(3, i), wire.ServiceSafe)
		h.submit(5, payload(5, i), wire.ServiceSafe)
	}
	h.run(1 * time.Second)
	h.checkAllDelivered(3, 1, 2)
	h.checkAllDelivered(3, 3, 4)
	h.checkAllDelivered(3, 5, 6)

	// Heal everything at once; ambient traffic triggers a three-way merge.
	h.partition = map[wire.ParticipantID]int{}
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
	h.run(3 * time.Second)
	var suffixes [][]string
	for _, id := range all {
		var suffix []string
		inFinal := false
		for _, d := range h.node(id).delivered {
			if d.msg == nil && !d.trans && len(d.config.Members) == 6 {
				inFinal = true
				suffix = nil
				continue
			}
			if inFinal && d.msg != nil {
				suffix = append(suffix, string(d.msg.Payload))
			}
		}
		if len(suffix) < 30 {
			t.Fatalf("node %s delivered only %d post-merge messages", id, len(suffix))
		}
		suffixes = append(suffixes, suffix)
	}
	for i := 1; i < len(suffixes); i++ {
		n := len(suffixes[0])
		if len(suffixes[i]) < n {
			n = len(suffixes[i])
		}
		for k := 0; k < n; k++ {
			if suffixes[i][k] != suffixes[0][k] {
				t.Fatalf("post-merge divergence at %d", k)
			}
		}
	}
}

func TestTransitionalPeersComeFromSameOldRing(t *testing.T) {
	// After a merge of two rings, a member's transitional configuration
	// must contain only members that came from ITS old ring (per EVS),
	// not everyone in both rings.
	h := newHarness(t, 4, accelConfig())
	h.startStatic()
	h.run(100 * time.Millisecond)
	h.partition[3] = 1
	h.partition[4] = 1
	h.waitConfig(3*time.Second, []wire.ParticipantID{1, 2}, 1, 2)
	h.waitConfig(3*time.Second, []wire.ParticipantID{3, 4}, 3, 4)

	h.partition = map[wire.ParticipantID]int{}
	h.submit(1, []byte("wake"), wire.ServiceAgreed)
	all := []wire.ParticipantID{1, 2, 3, 4}
	h.waitConfig(10*time.Second, all, all...)

	// Node 1's LAST transitional config (for the merge) must be {1,2}.
	var lastTrans Configuration
	for _, d := range h.node(1).delivered {
		if d.msg == nil && d.trans {
			lastTrans = d.config
		}
	}
	if !idSliceEqual(lastTrans.Members, []wire.ParticipantID{1, 2}) {
		t.Fatalf("node 1 merge transitional = %v, want {1,2}", lastTrans.Members)
	}
	var lastTrans3 Configuration
	for _, d := range h.node(3).delivered {
		if d.msg == nil && d.trans {
			lastTrans3 = d.config
		}
	}
	if !idSliceEqual(lastTrans3.Members, []wire.ParticipantID{3, 4}) {
		t.Fatalf("node 3 merge transitional = %v, want {3,4}", lastTrans3.Members)
	}
}

func TestSubmissionsDuringMembershipChangeAreDelivered(t *testing.T) {
	// Messages submitted while the ring is reforming must be queued and
	// ordered once the new configuration installs.
	h := newHarness(t, 3, accelConfig())
	h.startStatic()
	h.run(50 * time.Millisecond)
	h.crash(3)
	// Let token loss fire so the survivors are mid-gather, then submit.
	h.run(60 * time.Millisecond)
	if h.node(1).eng.state == StateOperational {
		t.Skip("reformation finished too quickly to catch mid-gather")
	}
	for i := 0; i < 10; i++ {
		h.submit(1, payload(1, i), wire.ServiceSafe)
	}
	h.waitConfig(3*time.Second, []wire.ParticipantID{1, 2}, 1, 2)
	h.run(2 * time.Second)
	h.checkAllDelivered(10, 1, 2)
	h.checkTotalOrder(1, 2)
}
