package core

import (
	"math/rand"
	"testing"
	"time"

	"accelring/internal/wire"
)

func accelConfig() Config {
	return Config{Protocol: ProtocolAcceleratedRing}
}

func origConfig() Config {
	return Config{Protocol: ProtocolOriginalRing}
}

func TestStaticRingDeliversInTotalOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"accelerated", accelConfig()},
		{"original", origConfig()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, 4, tc.cfg)
			h.startStatic()
			for i := 0; i < 25; i++ {
				for id := wire.ParticipantID(1); id <= 4; id++ {
					h.submit(id, payload(id, i), wire.ServiceAgreed)
				}
			}
			h.run(2 * time.Second)
			h.checkAllDelivered(100, 1, 2, 3, 4)
			h.checkTotalOrder(1, 2, 3, 4)
		})
	}
}

func TestStaticRingDeliversConfigEventFirst(t *testing.T) {
	h := newHarness(t, 3, accelConfig())
	h.startStatic()
	h.run(100 * time.Millisecond)
	for _, n := range h.nodes {
		if len(n.delivered) == 0 || n.delivered[0].msg != nil {
			t.Fatalf("node %s: first event is not a configuration", n.id)
		}
		cfg := n.delivered[0].config
		if n.delivered[0].trans {
			t.Fatalf("node %s: initial configuration marked transitional", n.id)
		}
		if len(cfg.Members) != 3 {
			t.Fatalf("node %s: initial configuration has %d members, want 3", n.id, len(cfg.Members))
		}
	}
}

func TestSafeDeliveryReachesAll(t *testing.T) {
	h := newHarness(t, 3, accelConfig())
	h.startStatic()
	for i := 0; i < 10; i++ {
		h.submit(1, payload(1, i), wire.ServiceSafe)
	}
	h.run(2 * time.Second)
	h.checkAllDelivered(10, 1, 2, 3)
	h.checkTotalOrder(1, 2, 3)
	for _, n := range h.nodes {
		if got := n.eng.Snapshot().Stats.SafeDelivered; got != 10 {
			t.Fatalf("node %s SafeDelivered = %d, want 10", n.id, got)
		}
	}
}

func TestSafeDeliveryLagsAgreed(t *testing.T) {
	// Submit one Safe and one Agreed message at the same instant from
	// different nodes; both must be delivered, and the Safe one must not
	// be delivered anywhere before the token has established stability
	// (token stats let us verify it took extra rounds, indirectly: the
	// delivery still happens, which is the liveness half; the ordering
	// half is covered by checkTotalOrder).
	h := newHarness(t, 3, accelConfig())
	h.startStatic()
	h.submit(1, []byte("safe"), wire.ServiceSafe)
	h.submit(2, []byte("agreed"), wire.ServiceAgreed)
	h.run(1 * time.Second)
	h.checkAllDelivered(2, 1, 2, 3)
	h.checkTotalOrder(1, 2, 3)
}

func TestMixedServicesPreserveTotalOrder(t *testing.T) {
	h := newHarness(t, 4, accelConfig())
	h.startStatic()
	svcs := []wire.Service{wire.ServiceAgreed, wire.ServiceSafe, wire.ServiceFIFO, wire.ServiceCausal}
	for i := 0; i < 20; i++ {
		for id := wire.ParticipantID(1); id <= 4; id++ {
			h.submit(id, payload(id, i), svcs[(i+int(id))%len(svcs)])
		}
	}
	h.run(3 * time.Second)
	h.checkAllDelivered(80, 1, 2, 3, 4)
	h.checkTotalOrder(1, 2, 3, 4)
}

func TestDeliveryRespectsSenderFIFO(t *testing.T) {
	h := newHarness(t, 3, accelConfig())
	h.startStatic()
	for i := 0; i < 30; i++ {
		h.submit(2, payload(2, i), wire.ServiceAgreed)
	}
	h.run(2 * time.Second)
	h.checkAllDelivered(30, 1, 2, 3)
	// Messages from one sender must be delivered in submission order.
	for _, n := range h.nodes {
		msgs := n.appMsgs()
		for i, m := range msgs {
			if string(m.Payload) != string(payload(2, i)) {
				t.Fatalf("node %s: position %d has %q, want %q", n.id, i, m.Payload, payload(2, i))
			}
		}
	}
}

func TestRetransmissionRecoversLoss(t *testing.T) {
	h := newHarness(t, 4, accelConfig())
	h.dropData = lossEvery(7) // drop every 7th data transmission
	h.startStatic()
	for i := 0; i < 50; i++ {
		for id := wire.ParticipantID(1); id <= 4; id++ {
			h.submit(id, payload(id, i), wire.ServiceAgreed)
		}
	}
	h.run(5 * time.Second)
	h.checkAllDelivered(200, 1, 2, 3, 4)
	h.checkTotalOrder(1, 2, 3, 4)
	retrans := uint64(0)
	for _, n := range h.nodes {
		retrans += n.eng.Snapshot().Stats.MsgsRetransmitted
	}
	if retrans == 0 {
		t.Fatal("loss was injected but no retransmissions happened")
	}
}

func TestHeavyRandomLossStillConsistent(t *testing.T) {
	for _, proto := range []Config{accelConfig(), origConfig()} {
		h := newHarness(t, 4, proto)
		h.dropData = randomLoss(42, 0.10)
		h.startStatic()
		for i := 0; i < 40; i++ {
			for id := wire.ParticipantID(1); id <= 4; id++ {
				h.submit(id, payload(id, i), wire.ServiceSafe)
			}
		}
		h.run(10 * time.Second)
		h.checkAllDelivered(160, 1, 2, 3, 4)
		h.checkTotalOrder(1, 2, 3, 4)
	}
}

func TestTokenRetransmissionSurvivesTokenLoss(t *testing.T) {
	h := newHarness(t, 3, accelConfig())
	dropped := 0
	h.dropToken = func(from, to wire.ParticipantID, tok *wire.Token) bool {
		// Drop exactly two token transmissions early on.
		if dropped < 2 && tok.TokenSeq > 3 {
			dropped++
			return true
		}
		return false
	}
	h.startStatic()
	for i := 0; i < 20; i++ {
		h.submit(1, payload(1, i), wire.ServiceAgreed)
	}
	h.run(2 * time.Second)
	if dropped != 2 {
		t.Fatalf("wanted to drop 2 tokens, dropped %d", dropped)
	}
	h.checkAllDelivered(20, 1, 2, 3)
	h.checkTotalOrder(1, 2, 3)
	retrans := uint64(0)
	changes := uint64(0)
	for _, n := range h.nodes {
		retrans += n.eng.Snapshot().Stats.TokenRetransmits
		changes += n.eng.Snapshot().Stats.MembershipChanges
	}
	if retrans == 0 {
		t.Fatal("tokens were dropped but never retransmitted")
	}
	// Token retransmission should have recovered without a membership
	// change (each node counts 1 for the initial static installation).
	if changes != 3 {
		t.Fatalf("membership changes = %d, want 3 (initial only)", changes)
	}
}

func TestAcceleratedSendsPostToken(t *testing.T) {
	h := newHarness(t, 3, accelConfig())
	h.startStatic()
	for i := 0; i < 100; i++ {
		for id := wire.ParticipantID(1); id <= 3; id++ {
			h.submit(id, payload(id, i), wire.ServiceAgreed)
		}
	}
	h.run(3 * time.Second)
	post := uint64(0)
	for _, n := range h.nodes {
		post += n.eng.Snapshot().Stats.MsgsPostToken
	}
	if post == 0 {
		t.Fatal("accelerated protocol sent no post-token messages")
	}
}

func TestOriginalSendsNothingPostToken(t *testing.T) {
	h := newHarness(t, 3, origConfig())
	h.startStatic()
	for i := 0; i < 100; i++ {
		for id := wire.ParticipantID(1); id <= 3; id++ {
			h.submit(id, payload(id, i), wire.ServiceAgreed)
		}
	}
	h.run(3 * time.Second)
	for _, n := range h.nodes {
		if got := n.eng.Snapshot().Stats.MsgsPostToken; got != 0 {
			t.Fatalf("original protocol node %s sent %d post-token messages", n.id, got)
		}
	}
}

func TestSingletonRing(t *testing.T) {
	h := newHarness(t, 1, accelConfig())
	h.startStatic()
	for i := 0; i < 10; i++ {
		h.submit(1, payload(1, i), wire.ServiceSafe)
	}
	h.run(1 * time.Second)
	h.checkAllDelivered(10, 1)
}

func TestTwoNodeRing(t *testing.T) {
	h := newHarness(t, 2, accelConfig())
	h.startStatic()
	for i := 0; i < 20; i++ {
		h.submit(1, payload(1, i), wire.ServiceAgreed)
		h.submit(2, payload(2, i), wire.ServiceSafe)
	}
	h.run(2 * time.Second)
	h.checkAllDelivered(40, 1, 2)
	h.checkTotalOrder(1, 2)
}

func TestLargeRing(t *testing.T) {
	h := newHarness(t, 12, accelConfig())
	h.startStatic()
	for i := 0; i < 5; i++ {
		for id := wire.ParticipantID(1); id <= 12; id++ {
			h.submit(id, payload(id, i), wire.ServiceAgreed)
		}
	}
	h.run(3 * time.Second)
	ids := make([]wire.ParticipantID, 0, 12)
	for i := wire.ParticipantID(1); i <= 12; i++ {
		ids = append(ids, i)
	}
	h.checkAllDelivered(60, ids...)
	h.checkTotalOrder(ids...)
}

func TestBacklogBackpressure(t *testing.T) {
	cfg := accelConfig()
	cfg.MaxPending = 5
	eng, err := New(Config{MyID: 1, Protocol: ProtocolAcceleratedRing, MaxPending: 5})
	if err != nil {
		t.Fatal(err)
	}
	_ = cfg
	for i := 0; i < 5; i++ {
		if _, err := eng.Submit([]byte("x"), wire.ServiceAgreed); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	if _, err := eng.Submit([]byte("x"), wire.ServiceAgreed); err != ErrBacklogFull {
		t.Fatalf("Submit over cap = %v, want ErrBacklogFull", err)
	}
}

func TestGarbageCollectionBoundsBuffers(t *testing.T) {
	h := newHarness(t, 3, accelConfig())
	h.startStatic()
	for i := 0; i < 200; i++ {
		for id := wire.ParticipantID(1); id <= 3; id++ {
			h.submit(id, payload(id, i), wire.ServiceAgreed)
		}
	}
	h.run(5 * time.Second)
	h.checkAllDelivered(600, 1, 2, 3)
	for _, n := range h.nodes {
		if got := n.eng.Snapshot().Stats.Discarded; got == 0 {
			t.Fatalf("node %s never garbage-collected stable messages", n.id)
		}
		if n.eng.buf.Len() > n.eng.cfg.Flow.MaxSeqGap {
			t.Fatalf("node %s buffer holds %d messages, beyond the seq gap bound", n.id, n.eng.buf.Len())
		}
	}
}

func TestDuplicatedPacketsAreIdempotent(t *testing.T) {
	h := newHarness(t, 3, accelConfig())
	count := 0
	h.dupData = func(from, to wire.ParticipantID, m *wire.DataMessage) bool {
		count++
		return count%3 == 0 // duplicate every third delivery
	}
	h.startStatic()
	for i := 0; i < 40; i++ {
		for id := wire.ParticipantID(1); id <= 3; id++ {
			h.submit(id, payload(id, i), wire.ServiceSafe)
		}
	}
	h.run(3 * time.Second)
	h.checkAllDelivered(120, 1, 2, 3)
	h.checkTotalOrder(1, 2, 3)
	dups := uint64(0)
	for _, n := range h.nodes {
		dups += n.eng.Snapshot().Stats.MsgsDuplicate
	}
	if dups == 0 {
		t.Fatal("duplicates were injected but never detected")
	}
}

func TestReorderedPacketsStillTotallyOrdered(t *testing.T) {
	h := newHarness(t, 4, accelConfig())
	rng := rand.New(rand.NewSource(77))
	h.jitter = func() time.Duration {
		// Up to 3 hop-delays of jitter: heavy in-flight reordering.
		return time.Duration(rng.Intn(3)) * defaultHopDelay
	}
	h.startStatic()
	for i := 0; i < 40; i++ {
		for id := wire.ParticipantID(1); id <= 4; id++ {
			h.submit(id, payload(id, i), wire.ServiceAgreed)
		}
	}
	h.run(5 * time.Second)
	h.checkAllDelivered(160, 1, 2, 3, 4)
	h.checkTotalOrder(1, 2, 3, 4)
	h.checkEVS()
}

func TestReorderingPlusLossPlusDuplication(t *testing.T) {
	// The full UDP pathology menu at once.
	h := newHarness(t, 3, accelConfig())
	rng := rand.New(rand.NewSource(99))
	h.dropData = randomLoss(3, 0.05)
	h.dupData = func(from, to wire.ParticipantID, m *wire.DataMessage) bool {
		return rng.Intn(10) == 0
	}
	h.jitter = func() time.Duration {
		return time.Duration(rng.Intn(2)) * defaultHopDelay
	}
	h.startStatic()
	for i := 0; i < 30; i++ {
		for id := wire.ParticipantID(1); id <= 3; id++ {
			h.submit(id, payload(id, i), wire.ServiceSafe)
		}
	}
	h.run(10 * time.Second)
	h.checkAllDelivered(90, 1, 2, 3)
	h.checkTotalOrder(1, 2, 3)
	h.checkEVS()
}
