package core

import (
	"fmt"
	"testing"
	"time"

	"accelring/internal/engine"
	"accelring/internal/wire"
)

func packedConfig(threshold int) Config {
	return Config{Protocol: ProtocolAcceleratedRing, PackThreshold: threshold}
}

func TestPackingCombinesSmallMessages(t *testing.T) {
	cfg := packedConfig(1350)
	cfg.MyID = 2
	e := newMember(t, 2, 3, cfg)
	for i := 0; i < 10; i++ {
		if _, err := e.Submit([]byte(fmt.Sprintf("small-%d", i)), wire.ServiceAgreed); err != nil {
			t.Fatal(err)
		}
	}
	actions := e.Step(engine.Input{Frame: ringToken(e, 5, 1, 0, 0)})
	sends := dataSends(actions)
	if len(sends) != 1 {
		t.Fatalf("sent %d packets, want 1 packed container", len(sends))
	}
	if !sends[0].Msg.Packed {
		t.Fatal("container not marked Packed")
	}
	// The container delivers as 10 individual messages.
	dels := deliveries(actions)
	if len(dels) != 10 {
		t.Fatalf("delivered %d messages, want 10", len(dels))
	}
	for i, d := range dels {
		if want := fmt.Sprintf("small-%d", i); string(d.Msg.Payload) != want {
			t.Fatalf("delivery %d = %q, want %q", i, d.Msg.Payload, want)
		}
		if d.Msg.Packed {
			t.Fatal("unpacked delivery still flagged Packed")
		}
	}
	if e.Snapshot().Stats.PayloadsPacked != 10 {
		t.Fatalf("PayloadsPacked = %d, want 10", e.Snapshot().Stats.PayloadsPacked)
	}
}

func TestPackingRespectsThreshold(t *testing.T) {
	cfg := packedConfig(100)
	cfg.MyID = 2
	e := newMember(t, 2, 3, cfg)
	// Each payload is 40 bytes; container overhead is 2 + 4/entry, so two
	// fit under 100 bytes (2+44+44=90) but three (134) do not.
	for i := 0; i < 6; i++ {
		if _, err := e.Submit(make([]byte, 40), wire.ServiceAgreed); err != nil {
			t.Fatal(err)
		}
	}
	actions := e.Step(engine.Input{Frame: ringToken(e, 5, 1, 0, 0)})
	sends := dataSends(actions)
	if len(sends) != 3 {
		t.Fatalf("sent %d packets, want 3 containers of 2", len(sends))
	}
	for _, s := range sends {
		if !s.Msg.Packed {
			t.Fatal("container not marked Packed")
		}
	}
	if got := len(deliveries(actions)); got != 6 {
		t.Fatalf("delivered %d, want 6", got)
	}
}

func TestPackingNeverMixesServices(t *testing.T) {
	cfg := packedConfig(1350)
	cfg.MyID = 2
	e := newMember(t, 2, 3, cfg)
	if _, err := e.Submit([]byte("a1"), wire.ServiceAgreed); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit([]byte("a2"), wire.ServiceAgreed); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit([]byte("s1"), wire.ServiceSafe); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit([]byte("a3"), wire.ServiceAgreed); err != nil {
		t.Fatal(err)
	}
	actions := e.Step(engine.Input{Frame: ringToken(e, 5, 1, 0, 0)})
	sends := dataSends(actions)
	// a1+a2 pack; s1 alone (different service); a3 alone (after the break).
	if len(sends) != 3 {
		t.Fatalf("sent %d packets, want 3", len(sends))
	}
	if !sends[0].Msg.Packed || sends[0].Msg.Service != wire.ServiceAgreed {
		t.Fatalf("first packet: packed=%v service=%v", sends[0].Msg.Packed, sends[0].Msg.Service)
	}
	if sends[1].Msg.Packed || sends[1].Msg.Service != wire.ServiceSafe {
		t.Fatalf("second packet: packed=%v service=%v", sends[1].Msg.Packed, sends[1].Msg.Service)
	}
	if sends[2].Msg.Packed {
		t.Fatal("third packet should be a plain single message")
	}
}

func TestPackingDisabledByDefault(t *testing.T) {
	e := newMember(t, 2, 3, accelConfig())
	for i := 0; i < 5; i++ {
		if _, err := e.Submit([]byte("x"), wire.ServiceAgreed); err != nil {
			t.Fatal(err)
		}
	}
	actions := e.Step(engine.Input{Frame: ringToken(e, 5, 1, 0, 0)})
	if got := len(dataSends(actions)); got != 5 {
		t.Fatalf("sent %d packets without packing, want 5", got)
	}
}

func TestPackingLargeMessagePassesThrough(t *testing.T) {
	cfg := packedConfig(200)
	cfg.MyID = 2
	e := newMember(t, 2, 3, cfg)
	big := make([]byte, 500) // exceeds the threshold alone
	if _, err := e.Submit(big, wire.ServiceAgreed); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit([]byte("tiny"), wire.ServiceAgreed); err != nil {
		t.Fatal(err)
	}
	actions := e.Step(engine.Input{Frame: ringToken(e, 5, 1, 0, 0)})
	sends := dataSends(actions)
	if len(sends) != 2 {
		t.Fatalf("sent %d packets, want 2", len(sends))
	}
	if sends[0].Msg.Packed {
		t.Fatal("oversized message must not be packed")
	}
	if len(sends[0].Msg.Payload) != 500 {
		t.Fatalf("first packet payload %d bytes", len(sends[0].Msg.Payload))
	}
}

func TestPackedClusterEndToEnd(t *testing.T) {
	cfg := packedConfig(1350)
	h := newHarness(t, 3, cfg)
	h.Start()
	const perNode = 50
	for i := 0; i < perNode; i++ {
		for id := wire.ParticipantID(1); id <= 3; id++ {
			h.submit(id, payload(id, i), wire.ServiceAgreed)
		}
	}
	h.Run(2 * time.Second)
	h.checkAllDelivered(perNode*3, 1, 2, 3)
	h.checkTotalOrder(1, 2, 3)
	packed := uint64(0)
	for _, n := range h.Nodes {
		packed += eng(n).Snapshot().Stats.PayloadsPacked
	}
	if packed == 0 {
		t.Fatal("no payloads travelled packed")
	}
}

func TestPackedClusterSafeDelivery(t *testing.T) {
	cfg := packedConfig(1350)
	h := newHarness(t, 3, cfg)
	h.Start()
	for i := 0; i < 30; i++ {
		h.submit(1, payload(1, i), wire.ServiceSafe)
	}
	h.Run(2 * time.Second)
	h.checkAllDelivered(30, 1, 2, 3)
	for _, n := range h.Nodes {
		if got := eng(n).Snapshot().Stats.SafeDelivered; got != 30 {
			t.Fatalf("node %s SafeDelivered = %d, want 30", n.ID, got)
		}
	}
}

func TestPackedSurvivesLossAndRetransmission(t *testing.T) {
	cfg := packedConfig(1350)
	h := newHarness(t, 3, cfg)
	h.Fault = lossEvery(5)
	h.Start()
	for i := 0; i < 40; i++ {
		for id := wire.ParticipantID(1); id <= 3; id++ {
			h.submit(id, payload(id, i), wire.ServiceAgreed)
		}
	}
	h.Run(5 * time.Second)
	h.checkAllDelivered(120, 1, 2, 3)
	h.checkTotalOrder(1, 2, 3)
}

func TestPackedSurvivesMembershipChange(t *testing.T) {
	cfg := packedConfig(1350)
	h := newHarness(t, 3, cfg)
	h.Start()
	for i := 0; i < 30; i++ {
		h.submit(1, payload(1, i), wire.ServiceAgreed)
		h.submit(2, payload(2, i), wire.ServiceAgreed)
	}
	h.Run(2 * time.Millisecond)
	h.Crash(3)
	h.waitConfig(3*time.Second, []wire.ParticipantID{1, 2}, 1, 2)
	h.Run(2 * time.Second)
	h.checkAllDelivered(60, 1, 2)
	h.checkTotalOrder(1, 2)
}

func TestPackThresholdValidation(t *testing.T) {
	if _, err := New(Config{MyID: 1, PackThreshold: -1}); err == nil {
		t.Fatal("negative threshold accepted")
	}
	if _, err := New(Config{MyID: 1, PackThreshold: wire.MaxPayload + 1}); err == nil {
		t.Fatal("oversized threshold accepted")
	}
}
