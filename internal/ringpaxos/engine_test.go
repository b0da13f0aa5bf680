package ringpaxos

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"accelring/internal/core"
	"accelring/internal/wire"
)

// paxosStats extracts the engine-specific counters from a snapshot.
func paxosStats(e *Engine) Stats { return e.Snapshot().Extra.(Stats) }

func TestNewValidation(t *testing.T) {
	if _, err := New(core.Config{}); err == nil {
		t.Fatal("New with zero MyID should fail")
	}
	eng, err := New(core.Config{MyID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Start(nil); err == nil {
		t.Fatal("Start with no members (dynamic discovery) should fail")
	}
	if _, err := eng.Start([]wire.ParticipantID{2, 3}); err == nil {
		t.Fatal("Start without self should fail")
	}
	if _, err := eng.Start([]wire.ParticipantID{1, 2, 2}); err == nil {
		t.Fatal("Start with duplicate member should fail")
	}
}

func TestSoloOrdering(t *testing.T) {
	c := newCluster(t, 1)
	id := c.ids[0]
	for i := 0; i < 10; i++ {
		c.submit(id, fmt.Sprintf("v%d", i))
	}
	c.run()
	if got := len(c.delivered[id]); got != 10 {
		t.Fatalf("delivered %d of 10", got)
	}
	for i, r := range c.delivered[id] {
		if want := fmt.Sprintf("v%d", i); r.payload != want {
			t.Fatalf("delivery %d = %q, want %q", i, r.payload, want)
		}
	}
	if st := paxosStats(c.engines[id]); st.QuorumDecides != 10 {
		t.Fatalf("QuorumDecides = %d, want 10", st.QuorumDecides)
	}
}

func TestThreeNodeOrdering(t *testing.T) {
	c := newCluster(t, 3)
	for i := 0; i < 10; i++ {
		for _, id := range c.ids {
			c.submit(id, fmt.Sprintf("p%d-v%d", uint32(id), i))
		}
	}
	c.pump(50)
	for _, id := range c.ids {
		if got := len(c.delivered[id]); got != 30 {
			t.Fatalf("node %v delivered %d of 30: %v", id, got, c.deliveredAt(id))
		}
	}
	c.checkAgreement()
	// All logs identical, not merely order-compatible, since nobody
	// crashed.
	for _, id := range c.ids[1:] {
		if !reflect.DeepEqual(c.delivered[c.ids[0]], c.delivered[id]) {
			t.Fatalf("logs differ:\n%v\n%v", c.deliveredAt(c.ids[0]), c.deliveredAt(id))
		}
	}
	// The ring must have quiesced: no node believes work is pending.
	for _, id := range c.ids {
		if c.engines[id].Progress().SteadyRotation {
			t.Fatal("ring paxos must report event-driven rotation")
		}
	}
}

func TestFiveNodeInterleavedBursts(t *testing.T) {
	c := newCluster(t, 5)
	for burst := 0; burst < 4; burst++ {
		for k, id := range c.ids {
			if (burst+k)%2 == 0 {
				c.submit(id, fmt.Sprintf("b%d-p%d", burst, uint32(id)))
			}
		}
		c.pump(50)
	}
	total := len(c.delivered[c.ids[0]])
	if total == 0 {
		t.Fatal("nothing delivered")
	}
	for _, id := range c.ids[1:] {
		if len(c.delivered[id]) != total {
			t.Fatalf("node %v delivered %d, node %v delivered %d",
				c.ids[0], total, id, len(c.delivered[id]))
		}
	}
	c.checkAgreement()
}

func TestCoordinatorCrashFailover(t *testing.T) {
	c := newCluster(t, 3)
	a, b, victim := c.ids[1], c.ids[2], c.ids[0] // ids[0] coordinates view 0
	c.submit(a, "before-1")
	c.submit(b, "before-2")
	c.pump(50)

	c.crash(victim)
	c.submit(a, "after-1")
	c.submit(b, "after-2")
	// The survivors' liveness timers notice the dead coordinator; pump
	// escalates to TimerTokenLoss and drives the view change.
	c.pump(80)

	for _, id := range []wire.ParticipantID{a, b} {
		got := c.deliveredAt(id)
		if len(got) != 4 {
			t.Fatalf("node %v delivered %v, want 4 messages", id, got)
		}
	}
	c.checkAgreement()
	if !reflect.DeepEqual(c.delivered[a], c.delivered[b]) {
		t.Fatalf("survivor logs differ:\n%v\n%v", c.deliveredAt(a), c.deliveredAt(b))
	}
	st := paxosStats(c.engines[a])
	if st.ViewInstalls == 0 {
		t.Fatal("expected at least one view install after coordinator crash")
	}
	if st.View == 0 {
		t.Fatal("view should have advanced past 0")
	}
}

func TestCrashMidStreamNoLossForSurvivors(t *testing.T) {
	c := newCluster(t, 5)
	victim := c.ids[0]
	// Submissions in flight when the coordinator dies.
	for i := 0; i < 5; i++ {
		for _, id := range c.ids[1:] {
			c.submit(id, fmt.Sprintf("s%d-p%d", i, uint32(id)))
		}
	}
	// Let a little of the protocol run, then kill the coordinator with
	// the pipeline full.
	for i := 0; i < 25; i++ {
		c.step()
	}
	c.crash(victim)
	c.pump(120)

	want := 20 // survivors' submissions must all survive
	for _, id := range c.ids[1:] {
		if got := len(c.delivered[id]); got != want {
			t.Fatalf("node %v delivered %d of %d: %v", id, got, want, c.deliveredAt(id))
		}
	}
	c.checkAgreement()
}

func TestLaggingLearnerCatchUp(t *testing.T) {
	c := newCluster(t, 3)
	laggard := c.ids[2]
	c.dropData = func(from, to wire.ParticipantID) bool { return to == laggard }
	c.dropToken = func(from, to wire.ParticipantID) bool { return to == laggard }
	for i := 0; i < 8; i++ {
		c.submit(c.ids[0], fmt.Sprintf("v%d", i))
	}
	c.pump(50)
	if got := len(c.delivered[laggard]); got != 0 {
		t.Fatalf("laggard delivered %d while partitioned", got)
	}

	// Heal; the next submission resumes the ring, whose assignment frame
	// carries the decided watermark — the laggard nacks and catches up.
	c.dropData, c.dropToken = nil, nil
	c.submit(c.ids[0], "v8")
	c.pump(80)

	for _, id := range c.ids {
		if got := len(c.delivered[id]); got != 9 {
			t.Fatalf("node %v delivered %d of 9: %v", id, got, c.deliveredAt(id))
		}
	}
	c.checkAgreement()
	if st := paxosStats(c.engines[laggard]); st.Delivered != 9 {
		t.Fatalf("laggard watermark %d, want 9", st.Delivered)
	}
}

func TestDuplicateFramesSuppressed(t *testing.T) {
	c := newCluster(t, 3)
	c.dupAll = true
	for i := 0; i < 6; i++ {
		c.submit(c.ids[i%3], fmt.Sprintf("v%d", i))
	}
	c.pump(50)
	for _, id := range c.ids {
		if got := len(c.delivered[id]); got != 6 {
			t.Fatalf("node %v delivered %d of 6", id, got)
		}
	}
	c.checkAgreement()
	var dupTok, dupMsg uint64
	for _, id := range c.ids {
		st := c.engines[id].Snapshot().Stats
		dupTok += st.TokensDuplicate
		dupMsg += st.MsgsDuplicate
	}
	if dupTok == 0 {
		t.Fatal("expected duplicate tokens to be counted")
	}
	if dupMsg == 0 {
		t.Fatal("expected duplicate values to be counted")
	}
}

func TestTokenLossRepairedByRetransmission(t *testing.T) {
	c := newCluster(t, 3)
	// Drop the first few tokens between ids[1] and ids[2]; the sender's
	// retransmit timer (fired by pump) must repair the circulation
	// without a view change.
	losses := 2
	c.dropToken = func(from, to wire.ParticipantID) bool {
		if from == c.ids[1] && to == c.ids[2] && losses > 0 {
			losses--
			return true
		}
		return false
	}
	for i := 0; i < 5; i++ {
		c.submit(c.ids[0], fmt.Sprintf("v%d", i))
	}
	c.pump(60)
	for _, id := range c.ids {
		if got := len(c.delivered[id]); got != 5 {
			t.Fatalf("node %v delivered %d of 5", id, got)
		}
	}
	c.checkAgreement()
}

func TestRestartRejoinsAsFreshIncarnation(t *testing.T) {
	c := newCluster(t, 3)
	for i := 0; i < 6; i++ {
		c.submit(c.ids[0], fmt.Sprintf("a%d", i))
	}
	c.pump(50)

	// Restart ids[2]: new engine, same identity, empty state.
	restarted := c.ids[2]
	c.addEngine(restarted)
	c.delivered[restarted] = nil

	for i := 0; i < 6; i++ {
		c.submit(c.ids[0], fmt.Sprintf("b%d", i))
	}
	c.pump(100)

	// The fresh incarnation must deliver the post-restart traffic and
	// stay order-consistent with the others on whatever it delivers.
	got := c.deliveredAt(restarted)
	if len(got) < 6 {
		t.Fatalf("restarted node delivered %v, want at least the 6 new messages", got)
	}
	c.checkAgreement()
}

// TestRestartedProposerValuesDeliverEverywhere is the regression test for
// the incarnation key collision: a restarted proposer's submission
// counter restarts at zero, so without the incarnation tag its new values
// reuse the keys of its previous incarnation's — the survivors' delivery
// dedup then suppresses the new values as duplicates, and retransmitted
// old values can be re-decided late. The chaos soak (root package) caught
// this as a FIFO violation after a crash/restart under loss.
func TestRestartedProposerValuesDeliverEverywhere(t *testing.T) {
	c := newCluster(t, 3)
	prop := c.ids[2]
	for i := 0; i < 6; i++ {
		c.submit(prop, fmt.Sprintf("a%d", i))
	}
	c.pump(50)

	// Restart the proposer: fresh engine, same identity, higher
	// incarnation (addEngine stamps it like the root runtime would).
	c.addEngine(prop)
	c.delivered[prop] = nil
	for i := 0; i < 4; i++ {
		c.submit(prop, fmt.Sprintf("b%d", i))
	}
	c.pump(100)

	// Every live node must deliver all four post-restart values, after
	// its a-values, and nobody may see any a-value twice.
	for _, id := range c.ids {
		var bs []string
		seen := make(map[string]int)
		for _, r := range c.delivered[id] {
			seen[r.payload]++
			if strings.HasPrefix(r.payload, "b") {
				bs = append(bs, r.payload)
			}
		}
		if want := []string{"b0", "b1", "b2", "b3"}; !reflect.DeepEqual(bs, want) {
			t.Fatalf("node %v delivered post-restart values %v, want %v (full log %v)",
				id, bs, want, c.deliveredAt(id))
		}
		for p, n := range seen {
			if n > 1 {
				t.Fatalf("node %v delivered %q %d times", id, p, n)
			}
		}
	}
	c.checkAgreement()
}

// TestRestartedCoordinatorCannotPoisonHistory is the regression test for
// the view-0 impostor bug: Start boots every engine believing the
// ring is at view 0, so a restarted members[0] thinks it is the current
// coordinator and — without the probe-circulation gate — self-assigns its
// first pooled value at instance 1, an instance the real cluster decided
// long ago. When catch-up then raises its decided watermark it delivers
// its own value ahead of the entire history, diverging from the
// survivors. The chaos soak (root package) caught this as a relative-
// order violation after a coordinator crash/restart.
func TestRestartedCoordinatorCannotPoisonHistory(t *testing.T) {
	c := newCluster(t, 3)
	victim := c.ids[0] // coordinates view 0
	for i := 0; i < 6; i++ {
		c.submit(c.ids[1], fmt.Sprintf("a%d", i))
	}
	c.pump(50)

	// Crash the view-0 coordinator; the survivors reform via Phase 1 and
	// keep ordering, so instance 1 is long settled when it comes back.
	c.crash(victim)
	for i := 0; i < 4; i++ {
		c.submit(c.ids[1], fmt.Sprintf("m%d", i))
	}
	c.pump(80)

	// Restart it and submit immediately, before it can learn the real
	// view — the poisoning window.
	c.addEngine(victim)
	c.delivered[victim] = nil
	c.submit(victim, "r0")
	c.pump(120)

	// r0 must be ordered after the settled history at every node — for
	// the impostor too, whose unproven view-0 self-assignment would have
	// put it first.
	for _, id := range c.ids {
		got := c.deliveredAt(id)
		if len(got) == 0 {
			t.Fatalf("node %v delivered nothing", id)
		}
		n := 0
		for _, r := range c.delivered[id] {
			if r.payload == "r0" {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("node %v delivered r0 %d times: %v", id, n, got)
		}
		if last := c.delivered[id][len(c.delivered[id])-1]; last.payload != "r0" {
			t.Fatalf("node %v: r0 not last: %v", id, got)
		}
	}
	c.checkAgreement()
}

func TestMutationHookFlipsOrderConsistently(t *testing.T) {
	run := func(mutate bool) map[wire.ParticipantID][]rec {
		TestMutateAssignOrder.Store(mutate)
		defer TestMutateAssignOrder.Store(false)
		c := newCluster(t, 3)
		// Two proposers submit concurrently so assignment batches hold ≥ 2
		// values for the mutation to swap.
		for i := 0; i < 6; i++ {
			c.submit(c.ids[1], fmt.Sprintf("x%d", i))
			c.submit(c.ids[2], fmt.Sprintf("y%d", i))
		}
		c.pump(50)
		for _, id := range c.ids {
			if got := len(c.delivered[id]); got != 12 {
				t.Fatalf("node %v delivered %d of 12", id, got)
			}
		}
		c.checkAgreement() // mutated or not, the cluster must agree with itself
		return c.delivered
	}
	honest := run(false)
	mutated := run(true)
	if reflect.DeepEqual(honest[100], mutated[100]) {
		t.Fatal("mutation hook did not change the total order")
	}
}

func TestStateAndRingAccessors(t *testing.T) {
	c := newCluster(t, 3)
	id := c.ids[0]
	eng := c.engines[id]
	snap := eng.Snapshot()
	if snap.State != core.StateOperational {
		t.Fatalf("State = %v, want operational", snap.State)
	}
	ring := snap.Ring
	if len(ring.Members) != 3 || ring.ID.Rep != c.ids[0] {
		t.Fatalf("Ring = %+v", ring)
	}
	if !eng.Progress().TokenPriority {
		t.Fatal("TokenPriority should be constant true")
	}
	if c.configs[id] != 1 {
		t.Fatalf("configs delivered = %d, want exactly 1", c.configs[id])
	}
	st := snap.Stats
	if st.MembershipChanges != 1 {
		t.Fatalf("MembershipChanges = %d, want 1 (initial)", st.MembershipChanges)
	}
}

func TestBacklogBounded(t *testing.T) {
	eng, err := New(core.Config{MyID: 7, MaxPending: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Start([]wire.ParticipantID{7}); err != nil {
		t.Fatal(err)
	}
	// Discard flush output: values stay pending forever (no peers in the
	// harness here, submissions decide instantly in solo mode — so use a
	// two-member ring where nothing can decide).
	eng2, _ := New(core.Config{MyID: 7, MaxPending: 4})
	if _, err := eng2.Start([]wire.ParticipantID{7, 9}); err != nil {
		t.Fatal(err)
	}
	var got error
	for i := 0; i < 10; i++ {
		if _, err := eng2.Submit([]byte("x"), wire.ServiceAgreed); err != nil {
			got = err
			break
		}
	}
	if got == nil {
		t.Fatal("expected backlog-full error")
	}
}
