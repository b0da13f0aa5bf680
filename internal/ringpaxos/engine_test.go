package ringpaxos

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"accelring/internal/core"
	"accelring/internal/enginetest"
	"accelring/internal/evscheck"
	"accelring/internal/faultplan"
	"accelring/internal/wire"
)

// The cluster tests run on internal/enginetest's virtual-time driver with
// the engine's default timers: every frame goes through the wire codec and
// every armed timer fires at its deadline, so failure detection, token
// retransmission and catch-up pacing all run on their own — no test fires
// a timer by hand.

// settle is virtual time enough for any of these scenarios to quiesce,
// failover (a few token-loss timeouts) included.
const settle = 10 * time.Second

// newCluster builds and starts an n-node cluster (IDs 1..n) on the static
// member list.
func newCluster(t *testing.T, n int) *enginetest.Cluster {
	t.Helper()
	c := enginetest.New(n, func(id wire.ParticipantID, inc uint32) enginetest.Engine {
		e, err := New(core.Config{MyID: id, Incarnation: inc})
		if err != nil {
			t.Fatalf("New(%v): %v", id, err)
		}
		return e
	})
	c.Start()
	return c
}

func submit(t *testing.T, c *enginetest.Cluster, id wire.ParticipantID, payload string) {
	t.Helper()
	if err := c.Submit(id, []byte(payload), wire.ServiceAgreed); err != nil {
		t.Fatalf("submit at %v: %v", id, err)
	}
}

// checkAgreement holds every incarnation of every node to the engine's
// evscheck profile: relative-order agreement, no duplicates.
func checkAgreement(t *testing.T, c *enginetest.Cluster) {
	t.Helper()
	if err := c.Check(evscheck.Options{Profile: evscheck.ProfileTotalOrder}); err != nil {
		t.Fatal(err)
	}
}

// engineOf returns node id's current engine.
func engineOf(c *enginetest.Cluster, id wire.ParticipantID) *Engine {
	return c.Node(id).Engine.(*Engine)
}

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
	if _, err := New(core.Config{MyID: 1, TokenLossTimeout: -time.Second}); err == nil {
		t.Fatal("New with a negative token-loss timeout should fail")
	}
}

// TestTimersDeriveFromTokenLoss: Ring Paxos takes core's timer defaults,
// so its timers derive from the token-loss timeout the same way.
func TestTimersDeriveFromTokenLoss(t *testing.T) {
	eng, err := New(core.Config{MyID: 1, TokenLossTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c := eng.cfg
	got := []time.Duration{c.TokenLossTimeout, c.TokenRetransPeriod, c.JoinPeriod, c.ConsensusTimeout, c.CommitTimeout}
	want := []time.Duration{200 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond, 400 * time.Millisecond, 200 * time.Millisecond}
	if !slices.Equal(got, want) {
		t.Fatalf("timers (loss, retransmit, join, consensus, commit) = %v, want %v", got, want)
	}
}

func TestSoloOrdering(t *testing.T) {
	c := newCluster(t, 1)
	for i := 0; i < 10; i++ {
		submit(t, c, 1, fmt.Sprintf("v%d", i))
	}
	c.Run(settle)
	got := c.Node(1).Payloads()
	if len(got) != 10 {
		t.Fatalf("delivered %d of 10", len(got))
	}
	for i, p := range got {
		if want := fmt.Sprintf("v%d", i); p != want {
			t.Fatalf("delivery %d = %q, want %q", i, p, want)
		}
	}
	if st := paxosStats(engineOf(c, 1)); st.QuorumDecides != 10 {
		t.Fatalf("QuorumDecides = %d, want 10", st.QuorumDecides)
	}
}

func TestThreeNodeOrdering(t *testing.T) {
	c := newCluster(t, 3)
	for i := 0; i < 10; i++ {
		for _, n := range c.Nodes {
			submit(t, c, n.ID, fmt.Sprintf("p%d-v%d", uint32(n.ID), i))
		}
	}
	c.Run(settle)
	for _, n := range c.Nodes {
		if got := len(n.Payloads()); got != 30 {
			t.Fatalf("node %v delivered %d of 30: %v", n.ID, got, n.Payloads())
		}
	}
	checkAgreement(t, c)
	// All logs identical, not merely order-compatible, since nobody
	// crashed.
	for _, n := range c.Nodes[1:] {
		if !reflect.DeepEqual(c.Nodes[0].Payloads(), n.Payloads()) {
			t.Fatalf("logs differ:\n%v\n%v", c.Nodes[0].Payloads(), n.Payloads())
		}
	}
	// The ring must have quiesced: no node believes work is pending.
	for _, n := range c.Nodes {
		if p := engineOf(c, n.ID).Progress().Pending; p != 0 {
			t.Fatalf("node %v still has %d pending after settling", n.ID, p)
		}
	}
}

func TestFiveNodeInterleavedBursts(t *testing.T) {
	c := newCluster(t, 5)
	for burst := 0; burst < 4; burst++ {
		for k, n := range c.Nodes {
			if (burst+k)%2 == 0 {
				submit(t, c, n.ID, fmt.Sprintf("b%d-p%d", burst, uint32(n.ID)))
			}
		}
		c.Run(settle)
	}
	total := len(c.Nodes[0].Payloads())
	if total == 0 {
		t.Fatal("nothing delivered")
	}
	for _, n := range c.Nodes[1:] {
		if got := len(n.Payloads()); got != total {
			t.Fatalf("node 1 delivered %d, node %v delivered %d", total, n.ID, got)
		}
	}
	checkAgreement(t, c)
}

// TestCoordinatorCrashFailover crashes the coordinator and leaves failure
// detection to the engines' own timers: the survivors must install a new
// view and deliver within two token-loss timeouts of virtual time — one to
// detect the crash, then Phase 1 and one proposal-retransmission pace
// (1.25 s with the default timers). It is also the regression test for a
// coordinator-elect that had heard a survivor's value before it led and
// dropped its retransmissions as duplicates: that value waited for one
// more view change, until its own proposer led (2.0 s).
func TestCoordinatorCrashFailover(t *testing.T) {
	c := newCluster(t, 3)
	const a, b, victim = 2, 3, 1 // node 1 coordinates view 0
	submit(t, c, a, "before-1")
	submit(t, c, b, "before-2")
	c.Run(settle)

	c.Crash(victim)
	crashed := c.Now()
	submit(t, c, a, "after-1")
	submit(t, c, b, "after-2")
	bound := 2 * core.DefaultTokenLossTimeout
	if !c.RunUntil(bound, func() bool {
		return len(c.Node(a).Payloads()) == 4 && len(c.Node(b).Payloads()) == 4
	}) {
		t.Fatalf("no failover within %v: node %v delivered %v, node %v delivered %v",
			bound, a, c.Node(a).Payloads(), b, c.Node(b).Payloads())
	}
	t.Logf("failover delivered after %v", c.Now()-crashed)
	checkAgreement(t, c)
	if !reflect.DeepEqual(c.Node(a).Payloads(), c.Node(b).Payloads()) {
		t.Fatalf("survivor logs differ:\n%v\n%v", c.Node(a).Payloads(), c.Node(b).Payloads())
	}
	st := paxosStats(engineOf(c, a))
	if st.ViewInstalls == 0 {
		t.Fatal("expected at least one view install after coordinator crash")
	}
	if st.View == 0 {
		t.Fatal("view should have advanced past 0")
	}
}

func TestCrashMidStreamNoLossForSurvivors(t *testing.T) {
	c := newCluster(t, 5)
	const victim = 1
	// Submissions in flight when the coordinator dies.
	for i := 0; i < 5; i++ {
		for _, n := range c.Nodes[1:] {
			submit(t, c, n.ID, fmt.Sprintf("s%d-p%d", i, uint32(n.ID)))
		}
	}
	// Let a few hops of the protocol run, then kill the coordinator with
	// the pipeline full.
	c.Run(3 * enginetest.Delay)
	c.Crash(victim)
	c.Run(settle)

	want := 20 // survivors' submissions must all survive
	for _, n := range c.Nodes[1:] {
		if got := len(n.Payloads()); got != want {
			t.Fatalf("node %v delivered %d of %d: %v", n.ID, got, want, n.Payloads())
		}
	}
	checkAgreement(t, c)
}

func TestLaggingLearnerCatchUp(t *testing.T) {
	c := newCluster(t, 3)
	const laggard = 3
	c.Fault = func(_ time.Duration, _, to wire.ParticipantID, _ wire.Frame) faultplan.Verdict {
		return faultplan.Verdict{Drop: to == laggard, Delay: enginetest.Delay}
	}
	for i := 0; i < 8; i++ {
		submit(t, c, 1, fmt.Sprintf("v%d", i))
	}
	c.Run(settle)
	if got := len(c.Node(laggard).Payloads()); got != 0 {
		t.Fatalf("laggard delivered %d while partitioned", got)
	}

	// Heal; the next submission resumes the ring, whose assignment frame
	// carries the decided watermark — the laggard nacks and catches up.
	c.Fault = nil
	submit(t, c, 1, "v8")
	c.Run(settle)

	for _, n := range c.Nodes {
		if got := len(n.Payloads()); got != 9 {
			t.Fatalf("node %v delivered %d of 9: %v", n.ID, got, n.Payloads())
		}
	}
	checkAgreement(t, c)
	if st := paxosStats(engineOf(c, laggard)); st.Delivered != 9 {
		t.Fatalf("laggard watermark %d, want 9", st.Delivered)
	}
}

func TestDuplicateFramesSuppressed(t *testing.T) {
	c := newCluster(t, 3)
	c.Fault = func(time.Duration, wire.ParticipantID, wire.ParticipantID, wire.Frame) faultplan.Verdict {
		return faultplan.Verdict{Dup: true, Delay: enginetest.Delay}
	}
	for i := 0; i < 6; i++ {
		submit(t, c, wire.ParticipantID(i%3+1), fmt.Sprintf("v%d", i))
	}
	c.Run(settle)
	for _, n := range c.Nodes {
		if got := len(n.Payloads()); got != 6 {
			t.Fatalf("node %v delivered %d of 6", n.ID, got)
		}
	}
	checkAgreement(t, c)
	var dupTok, dupMsg uint64
	for _, n := range c.Nodes {
		st := engineOf(c, n.ID).Snapshot().Stats
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
	// Drop the first few tokens between nodes 2 and 3; the sender's
	// retransmit timer must repair the circulation without a view change.
	// Regression: every member starts with the coordinator's paused flag
	// set, which disabled a non-coordinator's retransmission in view 0.
	losses := 2
	c.Fault = func(_ time.Duration, from, to wire.ParticipantID, f wire.Frame) faultplan.Verdict {
		if f.Kind() == wire.KindToken && from == 2 && to == 3 && losses > 0 {
			losses--
			return faultplan.Verdict{Drop: true}
		}
		return faultplan.Verdict{Delay: enginetest.Delay}
	}
	for i := 0; i < 5; i++ {
		submit(t, c, 1, fmt.Sprintf("v%d", i))
	}
	c.Run(settle)
	for _, n := range c.Nodes {
		if got := len(n.Payloads()); got != 5 {
			t.Fatalf("node %v delivered %d of 5", n.ID, got)
		}
	}
	checkAgreement(t, c)
	if st := paxosStats(engineOf(c, 1)); st.ViewInstalls != 0 {
		t.Fatalf("token loss caused %d view installs, want retransmission alone", st.ViewInstalls)
	}
}

func TestRestartRejoinsAsFreshIncarnation(t *testing.T) {
	c := newCluster(t, 3)
	for i := 0; i < 6; i++ {
		submit(t, c, 1, fmt.Sprintf("a%d", i))
	}
	c.Run(settle)

	// Restart node 3: new engine, same identity, empty state.
	const restarted = 3
	c.Crash(restarted)
	c.Restart(restarted)
	for i := 0; i < 6; i++ {
		submit(t, c, 1, fmt.Sprintf("b%d", i))
	}
	c.Run(settle)

	// The fresh incarnation must deliver the post-restart traffic and
	// stay order-consistent with the others on whatever it delivers.
	if got := c.Node(restarted).Payloads(); len(got) < 6 {
		t.Fatalf("restarted node delivered %v, want at least the 6 new messages", got)
	}
	checkAgreement(t, c)
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
	const prop = 3
	for i := 0; i < 6; i++ {
		submit(t, c, prop, fmt.Sprintf("a%d", i))
	}
	c.Run(settle)

	// Restart the proposer: fresh engine, same identity, higher
	// incarnation (the driver stamps it like the root runtime would).
	c.Crash(prop)
	c.Restart(prop)
	for i := 0; i < 4; i++ {
		submit(t, c, prop, fmt.Sprintf("b%d", i))
	}
	c.Run(settle)

	// Every live node must deliver all four post-restart values, after
	// its a-values, and nobody may see any a-value twice.
	for _, n := range c.Nodes {
		var bs []string
		seen := make(map[string]int)
		for _, p := range n.Payloads() {
			seen[p]++
			if strings.HasPrefix(p, "b") {
				bs = append(bs, p)
			}
		}
		if want := []string{"b0", "b1", "b2", "b3"}; !reflect.DeepEqual(bs, want) {
			t.Fatalf("node %v delivered post-restart values %v, want %v (full log %v)",
				n.ID, bs, want, n.Payloads())
		}
		for p, k := range seen {
			if k > 1 {
				t.Fatalf("node %v delivered %q %d times", n.ID, p, k)
			}
		}
	}
	checkAgreement(t, c)
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
	const victim = 1 // coordinates view 0
	for i := 0; i < 6; i++ {
		submit(t, c, 2, fmt.Sprintf("a%d", i))
	}
	c.Run(settle)

	// Crash the view-0 coordinator; the survivors reform via Phase 1 and
	// keep ordering, so instance 1 is long settled when it comes back.
	c.Crash(victim)
	for i := 0; i < 4; i++ {
		submit(t, c, 2, fmt.Sprintf("m%d", i))
	}
	c.Run(settle)

	// Restart it and submit immediately, before it can learn the real
	// view — the poisoning window.
	c.Restart(victim)
	submit(t, c, victim, "r0")
	c.Run(settle)

	// r0 must be ordered after the settled history at every node — for
	// the impostor too, whose unproven view-0 self-assignment would have
	// put it first.
	for _, n := range c.Nodes {
		got := n.Payloads()
		if len(got) == 0 {
			t.Fatalf("node %v delivered nothing", n.ID)
		}
		k := 0
		for _, p := range got {
			if p == "r0" {
				k++
			}
		}
		if k != 1 {
			t.Fatalf("node %v delivered r0 %d times: %v", n.ID, k, got)
		}
		if got[len(got)-1] != "r0" {
			t.Fatalf("node %v: r0 not last: %v", n.ID, got)
		}
	}
	checkAgreement(t, c)
}

func TestStateAndRingAccessors(t *testing.T) {
	c := newCluster(t, 3)
	eng := engineOf(c, 1)
	snap := eng.Snapshot()
	if snap.State != core.StateOperational {
		t.Fatalf("State = %v, want operational", snap.State)
	}
	ring := snap.Ring
	if len(ring.Members) != 3 || ring.ID.Rep != 1 {
		t.Fatalf("Ring = %+v", ring)
	}
	if !eng.Progress().TokenPriority {
		t.Fatal("TokenPriority should be constant true")
	}
	if evs := c.Node(1).Events(); len(evs) != 1 || evs[0].Msg != nil {
		t.Fatalf("events = %+v, want exactly the one configuration", evs)
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

// TestMinorityCannotDeliverStaleAcceptances is the regression test for
// chaos seed 24 (TestChaosCampaign/seed=24/ringpaxos/default in
// internal/diffconform):
// the view-0 coordinator is cut off with one other member and keeps
// assigning their values, which both accept in view 0, while the majority
// changes view and decides its own values at the same instances. After the
// heal the minority learns the majority's decided watermark and must
// deliver the majority's values there — not its stale view-0 acceptances.
func TestMinorityCannotDeliverStaleAcceptances(t *testing.T) {
	c := newCluster(t, 5)
	submit(t, c, 2, "warm") // prove the view-0 ring, so node 1 assigns
	c.Run(settle)

	minority := map[wire.ParticipantID]bool{1: true, 5: true}
	c.Fault = func(_ time.Duration, from, to wire.ParticipantID, _ wire.Frame) faultplan.Verdict {
		return faultplan.Verdict{Drop: minority[from] != minority[to], Delay: enginetest.Delay}
	}
	submit(t, c, 1, "minority-1")
	submit(t, c, 5, "minority-5")
	submit(t, c, 2, "majority-2")
	submit(t, c, 3, "majority-3")
	c.Run(settle)
	c.Fault = nil
	c.Run(settle)

	for _, n := range c.Nodes {
		if got := len(n.Payloads()); got != 5 {
			t.Fatalf("node %v delivered %v, want all 5 values", n.ID, n.Payloads())
		}
	}
	if err := c.Check(evscheck.Options{Quiescent: true, Profile: evscheck.ProfileTotalOrder}); err != nil {
		t.Fatal(err)
	}
}

// TestCatchUpAnswerFromNewerViewMovesNoWatermark: node 5, cut off with
// the view-0 coordinator, holds that coordinator's view-0 assignment of
// minority-1 at instance 2, where the majority's view 1 decides majority-2.
// Before its own failure detector fires, node 5 overhears a view-1
// catch-up answer for instance 3. Raising its watermark to 3 there would
// deliver its stale instance 2, as an acceptance of its own view; it must
// wait for the view instead, and after the heal deliver the majority's
// order.
func TestCatchUpAnswerFromNewerViewMovesNoWatermark(t *testing.T) {
	c := newCluster(t, 5)
	submit(t, c, 2, "warm") // prove the view-0 ring, so node 1 assigns
	c.Run(settle)

	minority := map[wire.ParticipantID]bool{1: true, 5: true}
	c.Fault = func(_ time.Duration, from, to wire.ParticipantID, f wire.Frame) faultplan.Verdict {
		if minority[from] == minority[to] {
			// Node 4 misses majority-3's value, so it asks for instance 3.
			m, ok := f.(*wire.DataMessage)
			return faultplan.Verdict{Drop: ok && to == 4 && string(m.Payload) == "majority-3", Delay: enginetest.Delay}
		}
		// Across the cut only catch-up answers reach node 5.
		ctl, ok := f.(*wire.Control)
		return faultplan.Verdict{Drop: !ok || ctl.Sub != subDecided || to != 5, Delay: enginetest.Delay}
	}
	submit(t, c, 2, "majority-2")
	submit(t, c, 3, "majority-3")
	c.Run(core.DefaultTokenLossTimeout / 2) // node 5 detects the cut later
	submit(t, c, 1, "minority-1")
	c.Run(settle)
	c.Fault = nil
	c.Run(settle)

	want := []string{"warm", "majority-2", "majority-3", "minority-1"}
	for _, n := range c.Nodes {
		if got := n.Payloads(); !reflect.DeepEqual(got, want) {
			t.Fatalf("node %v delivered %v, want %v", n.ID, got, want)
		}
	}
}

// TestDecidedValueSurvivesHolderCrashAfterReport: the view-0 coordinator
// decides x and tells only node 4, then crashes. Nodes 2, 3 and 5 accepted
// x in view 0 but never learned it decided. Node 4 reports its decided
// watermark to view 1's elect (node 2) and crashes before it can answer
// anything. No live node holds x as decided, so the survivors must recover
// it from their view-0 acceptances: a coordinator that adopts a decided
// watermark it cannot back with values, and so makes everyone discard
// those acceptances, stalls the survivors at x for good.
func TestDecidedValueSurvivesHolderCrashAfterReport(t *testing.T) {
	c := newCluster(t, 5)
	const coord, holder, elect, other = 1, 4, 2, 5
	submit(t, c, 2, "warm") // prove the view-0 ring, so node 1 assigns
	c.Run(settle)
	x := engineOf(c, coord).decided + 1

	report := func(f wire.Frame, view uint64) bool {
		ctl, ok := f.(*wire.Control)
		return ok && ctl.Sub == subReport && getU64(ctl.Body) == view
	}
	c.Fault = func(_ time.Duration, from, to wire.ParticipantID, f wire.Frame) faultplan.Verdict {
		switch from {
		case coord: // once x is decided, only the holder hears from node 1
			return faultplan.Verdict{Drop: engineOf(c, coord).decided >= x && to != holder, Delay: enginetest.Delay}
		case holder: // the report reaches the elect; the holder dies
			if report(f, 1) && to == elect {
				c.After(0, func() { c.Crash(holder) })
			}
		case other: // view 1's majority is nodes 2, 3 and the holder
			return faultplan.Verdict{Drop: report(f, 1) && to == elect, Delay: enginetest.Delay}
		}
		return faultplan.Verdict{Delay: enginetest.Delay}
	}
	submit(t, c, 3, "x")
	c.Run(2 * enginetest.Delay)
	submit(t, c, other, "y") // pooled while x circulates: assigned with x's decision
	if !c.RunUntil(settle, func() bool { return len(c.Node(holder).Payloads()) == 2 }) {
		t.Fatalf("holder delivered %v, want warm and x", c.Node(holder).Payloads())
	}
	c.Crash(coord)
	c.Run(settle)

	if !c.Node(holder).Crashed {
		t.Fatal("the holder never reported to view 1's elect")
	}
	for _, id := range []wire.ParticipantID{2, 3, 5} {
		if got, want := c.Node(id).Payloads(), []string{"warm", "x", "y"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("node %v delivered %v, want %v", id, got, want)
		}
	}
	checkAgreement(t, c)
}
