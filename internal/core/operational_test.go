package core

import (
	"math/rand"
	"testing"
	"time"

	"accelring/internal/enginetest"
	"accelring/internal/faultplan"
	"accelring/internal/wire"
)

func accelConfig() Config {
	return Config{}
}

func origConfig() Config {
	return OriginalRing(Config{})
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
			h.Start()
			for i := 0; i < 25; i++ {
				for id := wire.ParticipantID(1); id <= 4; id++ {
					h.submit(id, payload(id, i), wire.ServiceAgreed)
				}
			}
			h.Run(2 * time.Second)
			h.checkAllDelivered(100, 1, 2, 3, 4)
			h.checkTotalOrder(1, 2, 3, 4)
		})
	}
}

func TestStaticRingDeliversConfigEventFirst(t *testing.T) {
	h := newHarness(t, 3, accelConfig())
	h.Start()
	h.Run(100 * time.Millisecond)
	for _, n := range h.Nodes {
		if len(n.Events()) == 0 || n.Events()[0].Msg != nil {
			t.Fatalf("node %s: first event is not a configuration", n.ID)
		}
		cfg := n.Events()[0].Config
		if n.Events()[0].Transitional {
			t.Fatalf("node %s: initial configuration marked transitional", n.ID)
		}
		if len(cfg.Members) != 3 {
			t.Fatalf("node %s: initial configuration has %d members, want 3", n.ID, len(cfg.Members))
		}
	}
}

func TestSafeDeliveryReachesAll(t *testing.T) {
	h := newHarness(t, 3, accelConfig())
	h.Start()
	for i := 0; i < 10; i++ {
		h.submit(1, payload(1, i), wire.ServiceSafe)
	}
	h.Run(2 * time.Second)
	h.checkAllDelivered(10, 1, 2, 3)
	h.checkTotalOrder(1, 2, 3)
	for _, n := range h.Nodes {
		if got := eng(n).Snapshot().Stats.SafeDelivered; got != 10 {
			t.Fatalf("node %s SafeDelivered = %d, want 10", n.ID, got)
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
	h.Start()
	h.submit(1, []byte("safe"), wire.ServiceSafe)
	h.submit(2, []byte("agreed"), wire.ServiceAgreed)
	h.Run(1 * time.Second)
	h.checkAllDelivered(2, 1, 2, 3)
	h.checkTotalOrder(1, 2, 3)
}

func TestMixedServicesPreserveTotalOrder(t *testing.T) {
	h := newHarness(t, 4, accelConfig())
	h.Start()
	svcs := []wire.Service{wire.ServiceAgreed, wire.ServiceSafe, wire.ServiceFIFO, wire.ServiceCausal}
	for i := 0; i < 20; i++ {
		for id := wire.ParticipantID(1); id <= 4; id++ {
			h.submit(id, payload(id, i), svcs[(i+int(id))%len(svcs)])
		}
	}
	h.Run(3 * time.Second)
	h.checkAllDelivered(80, 1, 2, 3, 4)
	h.checkTotalOrder(1, 2, 3, 4)
}

func TestDeliveryRespectsSenderFIFO(t *testing.T) {
	h := newHarness(t, 3, accelConfig())
	h.Start()
	for i := 0; i < 30; i++ {
		h.submit(2, payload(2, i), wire.ServiceAgreed)
	}
	h.Run(2 * time.Second)
	h.checkAllDelivered(30, 1, 2, 3)
	// Messages from one sender must be delivered in submission order.
	for _, n := range h.Nodes {
		msgs := n.Payloads()
		for i, m := range msgs {
			if m != string(payload(2, i)) {
				t.Fatalf("node %s: position %d has %q, want %q", n.ID, i, m, payload(2, i))
			}
		}
	}
}

func TestRetransmissionRecoversLoss(t *testing.T) {
	h := newHarness(t, 4, accelConfig())
	h.Fault = lossEvery(7) // drop every 7th data transmission
	h.Start()
	for i := 0; i < 50; i++ {
		for id := wire.ParticipantID(1); id <= 4; id++ {
			h.submit(id, payload(id, i), wire.ServiceAgreed)
		}
	}
	h.Run(5 * time.Second)
	h.checkAllDelivered(200, 1, 2, 3, 4)
	h.checkTotalOrder(1, 2, 3, 4)
	retrans := uint64(0)
	for _, n := range h.Nodes {
		retrans += eng(n).Snapshot().Stats.MsgsRetransmitted
	}
	if retrans == 0 {
		t.Fatal("loss was injected but no retransmissions happened")
	}
}

func TestHeavyRandomLossStillConsistent(t *testing.T) {
	for _, proto := range []Config{accelConfig(), origConfig()} {
		h := newHarness(t, 4, proto)
		h.Fault = randomLoss(42, 0.10)
		h.Start()
		for i := 0; i < 40; i++ {
			for id := wire.ParticipantID(1); id <= 4; id++ {
				h.submit(id, payload(id, i), wire.ServiceSafe)
			}
		}
		h.Run(10 * time.Second)
		h.checkAllDelivered(160, 1, 2, 3, 4)
		h.checkTotalOrder(1, 2, 3, 4)
	}
}

func TestTokenRetransmissionSurvivesTokenLoss(t *testing.T) {
	h := newHarness(t, 3, accelConfig())
	dropped := 0
	h.Fault = func(_ time.Duration, _, _ wire.ParticipantID, f wire.Frame) faultplan.Verdict {
		// Drop exactly two token transmissions early on.
		if tok, ok := f.(*wire.Token); ok && dropped < 2 && tok.TokenSeq > 3 {
			dropped++
			return faultplan.Verdict{Drop: true}
		}
		return faultplan.Verdict{Delay: enginetest.Delay}
	}
	h.Start()
	for i := 0; i < 20; i++ {
		h.submit(1, payload(1, i), wire.ServiceAgreed)
	}
	h.Run(2 * time.Second)
	if dropped != 2 {
		t.Fatalf("wanted to drop 2 tokens, dropped %d", dropped)
	}
	h.checkAllDelivered(20, 1, 2, 3)
	h.checkTotalOrder(1, 2, 3)
	retrans := uint64(0)
	changes := uint64(0)
	for _, n := range h.Nodes {
		retrans += eng(n).Snapshot().Stats.TokenRetransmits
		changes += eng(n).Snapshot().Stats.MembershipChanges
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
	h.Start()
	for i := 0; i < 100; i++ {
		for id := wire.ParticipantID(1); id <= 3; id++ {
			h.submit(id, payload(id, i), wire.ServiceAgreed)
		}
	}
	h.Run(3 * time.Second)
	post := uint64(0)
	for _, n := range h.Nodes {
		post += eng(n).Snapshot().Stats.MsgsPostToken
	}
	if post == 0 {
		t.Fatal("accelerated protocol sent no post-token messages")
	}
}

func TestOriginalSendsNothingPostToken(t *testing.T) {
	h := newHarness(t, 3, origConfig())
	h.Start()
	for i := 0; i < 100; i++ {
		for id := wire.ParticipantID(1); id <= 3; id++ {
			h.submit(id, payload(id, i), wire.ServiceAgreed)
		}
	}
	h.Run(3 * time.Second)
	for _, n := range h.Nodes {
		if got := eng(n).Snapshot().Stats.MsgsPostToken; got != 0 {
			t.Fatalf("original protocol node %s sent %d post-token messages", n.ID, got)
		}
	}
}

func TestSingletonRing(t *testing.T) {
	h := newHarness(t, 1, accelConfig())
	h.Start()
	for i := 0; i < 10; i++ {
		h.submit(1, payload(1, i), wire.ServiceSafe)
	}
	h.Run(1 * time.Second)
	h.checkAllDelivered(10, 1)
}

func TestTwoNodeRing(t *testing.T) {
	h := newHarness(t, 2, accelConfig())
	h.Start()
	for i := 0; i < 20; i++ {
		h.submit(1, payload(1, i), wire.ServiceAgreed)
		h.submit(2, payload(2, i), wire.ServiceSafe)
	}
	h.Run(2 * time.Second)
	h.checkAllDelivered(40, 1, 2)
	h.checkTotalOrder(1, 2)
}

func TestLargeRing(t *testing.T) {
	h := newHarness(t, 12, accelConfig())
	h.Start()
	for i := 0; i < 5; i++ {
		for id := wire.ParticipantID(1); id <= 12; id++ {
			h.submit(id, payload(id, i), wire.ServiceAgreed)
		}
	}
	h.Run(3 * time.Second)
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
	eng, err := New(Config{MyID: 1, MaxPending: 5})
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
	h.Start()
	for i := 0; i < 200; i++ {
		for id := wire.ParticipantID(1); id <= 3; id++ {
			h.submit(id, payload(id, i), wire.ServiceAgreed)
		}
	}
	h.Run(5 * time.Second)
	h.checkAllDelivered(600, 1, 2, 3)
	for _, n := range h.Nodes {
		if got := eng(n).Snapshot().Stats.Discarded; got == 0 {
			t.Fatalf("node %s never garbage-collected stable messages", n.ID)
		}
		if eng(n).buf.Len() > eng(n).cfg.Flow.MaxSeqGap {
			t.Fatalf("node %s buffer holds %d messages, beyond the seq gap bound", n.ID, eng(n).buf.Len())
		}
	}
}

func TestDuplicatedPacketsAreIdempotent(t *testing.T) {
	h := newHarness(t, 3, accelConfig())
	count := 0
	h.Fault = dataFault(func() faultplan.Verdict {
		count++
		return faultplan.Verdict{Dup: count%3 == 0} // duplicate every third delivery
	})
	h.Start()
	for i := 0; i < 40; i++ {
		for id := wire.ParticipantID(1); id <= 3; id++ {
			h.submit(id, payload(id, i), wire.ServiceSafe)
		}
	}
	h.Run(3 * time.Second)
	h.checkAllDelivered(120, 1, 2, 3)
	h.checkTotalOrder(1, 2, 3)
	dups := uint64(0)
	for _, n := range h.Nodes {
		dups += eng(n).Snapshot().Stats.MsgsDuplicate
	}
	if dups == 0 {
		t.Fatal("duplicates were injected but never detected")
	}
}

func TestReorderedPacketsStillTotallyOrdered(t *testing.T) {
	h := newHarness(t, 4, accelConfig())
	rng := rand.New(rand.NewSource(77))
	h.Fault = dataFault(func() faultplan.Verdict {
		// Up to 3 hop-delays of jitter: heavy in-flight reordering.
		return faultplan.Verdict{Delay: time.Duration(rng.Intn(3)) * enginetest.Delay}
	})
	h.Start()
	for i := 0; i < 40; i++ {
		for id := wire.ParticipantID(1); id <= 4; id++ {
			h.submit(id, payload(id, i), wire.ServiceAgreed)
		}
	}
	h.Run(5 * time.Second)
	h.checkAllDelivered(160, 1, 2, 3, 4)
	h.checkTotalOrder(1, 2, 3, 4)
	h.checkEVS(false)
}

func TestReorderingPlusLossPlusDuplication(t *testing.T) {
	// The full UDP pathology menu at once.
	h := newHarness(t, 3, accelConfig())
	loss, rng := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(99))
	h.Fault = dataFault(func() faultplan.Verdict {
		return faultplan.Verdict{Drop: loss.Float64() < 0.05, Dup: rng.Intn(10) == 0,
			Delay: time.Duration(rng.Intn(2)) * enginetest.Delay}
	})
	h.Start()
	for i := 0; i < 30; i++ {
		for id := wire.ParticipantID(1); id <= 3; id++ {
			h.submit(id, payload(id, i), wire.ServiceSafe)
		}
	}
	h.Run(10 * time.Second)
	h.checkAllDelivered(90, 1, 2, 3)
	h.checkTotalOrder(1, 2, 3)
	h.checkEVS(false)
}
