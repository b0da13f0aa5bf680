package core

import (
	"testing"
	"time"

	"accelring/internal/flowctl"
	"accelring/internal/wire"
)

func adaptiveConfig() Config {
	return Config{
		Protocol:       ProtocolAcceleratedRing,
		AdaptiveWindow: true,
		Flow:           flowctl.Config{PersonalWindow: 50, GlobalWindow: 300, AcceleratedWindow: 20, MaxSeqGap: 4000},
	}
}

func TestAdaptiveWindowHalvesOnRetransBurst(t *testing.T) {
	e := newMember(t, 2, 3, adaptiveConfig())
	if e.Snapshot().Stats.AccelWindow != 20 {
		t.Fatalf("initial window = %d, want 20", e.Snapshot().Stats.AccelWindow)
	}
	// A token carrying a burst of retransmission requests (none of which
	// we can answer) signals buffer overrun somewhere on the ring.
	tok := ringToken(e, 5, 1, 100, 0)
	for s := wire.Seq(1); s <= 10; s++ {
		tok.RTR = append(tok.RTR, s)
	}
	e.HandleToken(tok)
	if got := e.Snapshot().Stats.AccelWindow; got != 10 {
		t.Fatalf("window after burst = %d, want 10", got)
	}
	if e.Snapshot().Stats.WindowDecreases != 1 {
		t.Fatalf("WindowDecreases = %d, want 1", e.Snapshot().Stats.WindowDecreases)
	}
	// Another burst halves again; repeated bursts drive it to zero (the
	// original protocol's behaviour).
	for i := 0; i < 8; i++ {
		tok := ringToken(e, uint64(6+i), wire.Round(4+3*i), 100, 0)
		for s := wire.Seq(1); s <= 10; s++ {
			tok.RTR = append(tok.RTR, s)
		}
		e.HandleToken(tok)
	}
	if got := e.Snapshot().Stats.AccelWindow; got != 0 {
		t.Fatalf("window after sustained bursts = %d, want 0", got)
	}
}

func TestAdaptiveWindowGrowsAfterCleanStreak(t *testing.T) {
	e := newMember(t, 2, 3, adaptiveConfig())
	// Force it down first.
	tok := ringToken(e, 5, 1, 100, 0)
	for s := wire.Seq(1); s <= 10; s++ {
		tok.RTR = append(tok.RTR, s)
	}
	e.HandleToken(tok)
	if e.Snapshot().Stats.AccelWindow != 10 {
		t.Fatalf("window = %d, want 10", e.Snapshot().Stats.AccelWindow)
	}
	// 64 clean rounds → +1.
	for i := 0; i < 64; i++ {
		e.HandleToken(ringToken(e, uint64(6+i), wire.Round(4+3*i), 100, 100))
	}
	if got := e.Snapshot().Stats.AccelWindow; got != 11 {
		t.Fatalf("window after clean streak = %d, want 11", got)
	}
	if e.Snapshot().Stats.WindowIncreases != 1 {
		t.Fatalf("WindowIncreases = %d, want 1", e.Snapshot().Stats.WindowIncreases)
	}
}

func TestAdaptiveWindowCappedByPersonalWindow(t *testing.T) {
	cfg := adaptiveConfig()
	cfg.Flow.PersonalWindow = 21
	e := newMember(t, 2, 3, cfg)
	// 2 × 64 clean rounds: one increase to 21, then capped.
	for i := 0; i < 128; i++ {
		e.HandleToken(ringToken(e, uint64(5+i), wire.Round(1+3*i), 100, 100))
	}
	if got := e.Snapshot().Stats.AccelWindow; got != 21 {
		t.Fatalf("window = %d, want capped at 21", got)
	}
}

func TestAdaptiveWindowDisabledByDefault(t *testing.T) {
	e := newMember(t, 2, 3, accelConfig())
	tok := ringToken(e, 5, 1, 100, 0)
	for s := wire.Seq(1); s <= 10; s++ {
		tok.RTR = append(tok.RTR, s)
	}
	e.HandleToken(tok)
	if got := e.Snapshot().Stats.AccelWindow; got != flowctl.DefaultAcceleratedWindow {
		t.Fatalf("window moved without AdaptiveWindow: %d", got)
	}
	if e.Snapshot().Stats.WindowDecreases != 0 {
		t.Fatal("decrease counted while disabled")
	}
}

func TestAdaptiveClusterStillOrders(t *testing.T) {
	cfg := adaptiveConfig()
	h := newHarness(t, 4, cfg)
	h.dropData = randomLoss(99, 0.05)
	h.startStatic()
	for i := 0; i < 40; i++ {
		for id := wire.ParticipantID(1); id <= 4; id++ {
			h.submit(id, payload(id, i), wire.ServiceAgreed)
		}
	}
	h.run(5 * time.Second)
	h.checkAllDelivered(160, 1, 2, 3, 4)
	h.checkTotalOrder(1, 2, 3, 4)
}
