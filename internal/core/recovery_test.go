package core

import (
	"testing"

	"accelring/internal/engine"
	"accelring/internal/msgbuf"
	"accelring/internal/wire"
)

// buildRecoveryEngine assembles an engine that is about to compute its
// recovery obligations: oldBuf holds the listed sequence numbers from the
// old ring, and commitInfo describes each peer's (aru, high) from the old
// ring.
func buildRecoveryEngine(t *testing.T, myID wire.ParticipantID, have []wire.Seq, info []wire.CommitMember) *Engine {
	t.Helper()
	eng, err := New(Config{MyID: myID, Protocol: ProtocolAcceleratedRing})
	if err != nil {
		t.Fatal(err)
	}
	oldRing := wire.RingID{Rep: 1, Seq: 4}
	eng.oldRing = engine.Configuration{ID: oldRing, Members: []wire.ParticipantID{1, 2, 3}}
	eng.oldBuf = msgbuf.New(0)
	for _, s := range have {
		eng.oldBuf.Insert(&wire.DataMessage{RingID: oldRing, Seq: s, PID: 1, Service: wire.ServiceAgreed})
	}
	eng.commitInfo = info
	return eng
}

func member(id wire.ParticipantID, aru, high wire.Seq) wire.CommitMember {
	return wire.CommitMember{
		ID: id, OldRingID: wire.RingID{Rep: 1, Seq: 4},
		MyARU: aru, HighSeq: high, Filled: true,
	}
}

func obligationSeqs(msgs []*wire.DataMessage) []wire.Seq {
	out := make([]wire.Seq, 0, len(msgs))
	for _, m := range msgs {
		out = append(out, m.Seq)
	}
	return out
}

func TestObligationsDesignatedSender(t *testing.T) {
	// Peers: node 1 (aru 10, high 10), node 2 (aru 6, high 10). Node 2 is
	// missing 7..10; the lowest-ID member whose aru covers each of those is
	// node 1, so node 1 retransmits them all and node 2 sends nothing.
	info := []wire.CommitMember{member(1, 10, 10), member(2, 6, 10)}

	e1 := buildRecoveryEngine(t, 1, seqRange(1, 10), info)
	if got := obligationSeqs(e1.computeObligations()); !seqsEqual(got, []wire.Seq{7, 8, 9, 10}) {
		t.Fatalf("node 1 obligations = %v, want [7 8 9 10]", got)
	}

	e2 := buildRecoveryEngine(t, 2, seqRange(1, 6), info)
	if got := e2.computeObligations(); len(got) != 0 {
		t.Fatalf("node 2 obligations = %v, want none", obligationSeqs(got))
	}
}

func TestObligationsGapRegionSentByAllHolders(t *testing.T) {
	// Seq 9 is above everyone's aru (gap region): every member that holds
	// it must send it; receivers drop duplicates.
	info := []wire.CommitMember{member(1, 6, 9), member(2, 6, 9)}

	e1 := buildRecoveryEngine(t, 1, append(seqRange(1, 6), 9), info)
	if got := obligationSeqs(e1.computeObligations()); !seqsEqual(got, []wire.Seq{9}) {
		t.Fatalf("node 1 obligations = %v, want [9]", got)
	}
	e2 := buildRecoveryEngine(t, 2, append(seqRange(1, 6), 9), info)
	if got := obligationSeqs(e2.computeObligations()); !seqsEqual(got, []wire.Seq{9}) {
		t.Fatalf("node 2 obligations = %v, want [9]", got)
	}
	// A member that does not hold it sends nothing.
	e3 := buildRecoveryEngine(t, 2, seqRange(1, 6), info)
	if got := e3.computeObligations(); len(got) != 0 {
		t.Fatalf("holder-less obligations = %v, want none", obligationSeqs(got))
	}
}

func TestObligationsNothingBelowCommonARU(t *testing.T) {
	// Everything at or below min(aru) is held by every old-ring peer: no
	// exchange needed.
	info := []wire.CommitMember{member(1, 8, 8), member(2, 8, 8)}
	e := buildRecoveryEngine(t, 1, seqRange(1, 8), info)
	if got := e.computeObligations(); len(got) != 0 {
		t.Fatalf("obligations = %v, want none", obligationSeqs(got))
	}
}

func TestObligationsLonelySurvivor(t *testing.T) {
	// The only member from its old ring has nobody to exchange with.
	info := []wire.CommitMember{
		member(1, 5, 9),
		{ID: 2, OldRingID: wire.RingID{Rep: 2, Seq: 8}, MyARU: 3, HighSeq: 3, Filled: true},
	}
	e := buildRecoveryEngine(t, 1, seqRange(1, 9), info)
	if got := e.computeObligations(); len(got) != 0 {
		t.Fatalf("obligations = %v, want none", obligationSeqs(got))
	}
}

func TestObligationsFreshEngineNone(t *testing.T) {
	eng, err := New(Config{MyID: 5, Protocol: ProtocolAcceleratedRing})
	if err != nil {
		t.Fatal(err)
	}
	eng.commitInfo = []wire.CommitMember{member(1, 5, 9)}
	if got := eng.computeObligations(); got != nil {
		t.Fatalf("fresh engine obligations = %v, want nil", obligationSeqs(got))
	}
}

func TestTokenIgnoredOutsideOperational(t *testing.T) {
	eng, err := New(Config{MyID: 1, Protocol: ProtocolAcceleratedRing})
	if err != nil {
		t.Fatal(err)
	}
	eng.Start(nil) // Gather
	tok := &wire.Token{RingID: wire.RingID{Rep: 1, Seq: 4}, TokenSeq: 1}
	if got := eng.Step(engine.Input{Frame: tok}); got != nil {
		t.Fatalf("token in Gather produced %d actions", len(got))
	}
}

func TestCommitIgnoredWhenNotMember(t *testing.T) {
	eng, err := New(Config{MyID: 9, Protocol: ProtocolAcceleratedRing})
	if err != nil {
		t.Fatal(err)
	}
	eng.Start(nil)
	ct := &wire.CommitToken{
		RingID:   wire.RingID{Rep: 1, Seq: 8},
		Rotation: 1,
		Members:  []wire.CommitMember{{ID: 1}, {ID: 2}},
	}
	if got := eng.Step(engine.Input{Frame: ct}); got != nil {
		t.Fatalf("foreign commit produced %d actions", len(got))
	}
}

func TestForeignDataTriggersGather(t *testing.T) {
	e := newMember(t, 2, 3, accelConfig())
	if e.state != StateOperational {
		t.Fatal("not operational")
	}
	// Data from an unknown ring with a higher seq: evidence of another
	// ring out there — merge via gather.
	m := &wire.DataMessage{
		RingID: wire.RingID{Rep: 9, Seq: 100}, Seq: 1, PID: 9,
		Service: wire.ServiceAgreed,
	}
	actions := e.Step(engine.Input{Frame: m})
	if e.state != StateGather {
		t.Fatalf("state = %s, want gather", e.state)
	}
	foundJoin := false
	for _, a := range actions {
		if st, ok := a.(engine.Send); ok && st.Frame.Kind() == wire.KindJoin {
			foundJoin = true
		}
	}
	if !foundJoin {
		t.Fatal("gather entry did not multicast a join")
	}
}

func TestStaleOwnRingDataIgnored(t *testing.T) {
	e := newMember(t, 2, 3, accelConfig())
	// A straggler from an earlier ring of ours (lower seq, sender is a
	// current member) must not trigger a membership change.
	m := &wire.DataMessage{
		RingID: wire.RingID{Rep: 1, Seq: 0}, Seq: 1, PID: 3,
		Service: wire.ServiceAgreed,
	}
	if got := e.Step(engine.Input{Frame: m}); got != nil {
		t.Fatalf("stale data produced %d actions", len(got))
	}
	if e.state != StateOperational {
		t.Fatalf("state = %s, want operational", e.state)
	}
}

func TestRingReturnsClone(t *testing.T) {
	e := newMember(t, 2, 3, accelConfig())
	cfg := e.Snapshot().Ring
	cfg.Members[0] = 99
	if e.Snapshot().Ring.Members[0] == 99 {
		t.Fatal("Ring() exposes internal member slice")
	}
}

func seqRange(from, to wire.Seq) []wire.Seq {
	out := make([]wire.Seq, 0, to-from+1)
	for s := from; s <= to; s++ {
		out = append(out, s)
	}
	return out
}

func seqsEqual(a, b []wire.Seq) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
