package core

import (
	"testing"
	"time"

	"accelring/internal/enginetest"
	"accelring/internal/faultplan"
	"accelring/internal/wire"
)

// timers lists a config's five protocol timers in declaration order.
func timers(c Config) [5]time.Duration {
	return [5]time.Duration{c.TokenLossTimeout, c.TokenRetransPeriod, c.JoinPeriod, c.ConsensusTimeout, c.CommitTimeout}
}

// TestTimersDeriveFromTokenLoss: every zero timer derives from the
// token-loss timeout L (retransmit L/10, join L/4, consensus 2L, commit L),
// L itself defaulting to 1 s, and a timer set explicitly is kept.
func TestTimersDeriveFromTokenLoss(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		name string
		cfg  Config
		want [5]time.Duration
	}{
		{"zero", Config{}, [5]time.Duration{time.Second, 100 * ms, 250 * ms, 2 * time.Second, time.Second}},
		{"L=200ms", Config{TokenLossTimeout: 200 * ms}, [5]time.Duration{200 * ms, 20 * ms, 50 * ms, 400 * ms, 200 * ms}},
		{"explicit consensus", Config{TokenLossTimeout: 200 * ms, ConsensusTimeout: 30 * ms},
			[5]time.Duration{200 * ms, 20 * ms, 50 * ms, 30 * ms, 200 * ms}},
		{"explicit retransmit, default L", Config{TokenRetransPeriod: 7 * ms},
			[5]time.Duration{time.Second, 7 * ms, 250 * ms, 2 * time.Second, time.Second}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.MyID = 1
			e, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := timers(e.cfg); got != tc.want {
				t.Fatalf("timers (loss, retransmit, join, consensus, commit) = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestNonPositiveTimerRefused: a negative timer, set or derived, and a
// token-loss timeout too short to derive a positive retransmit period are
// refused rather than armed.
func TestNonPositiveTimerRefused(t *testing.T) {
	for _, cfg := range []Config{
		{TokenLossTimeout: -time.Second},
		{TokenRetransPeriod: -1},
		{JoinPeriod: -1},
		{ConsensusTimeout: -1},
		{CommitTimeout: -1},
		{TokenLossTimeout: 5}, // L/10 is 0
	} {
		cfg.MyID = 1
		if _, err := New(cfg); err == nil {
			t.Errorf("New accepted timers %v", timers(cfg))
		}
	}
}

// TestLostTokenResentBeforeLossTimeout: a ring given only a short
// token-loss timeout resends a lost token before it declares the token
// lost, so one dropped token costs no membership change.
func TestLostTokenResentBeforeLossTimeout(t *testing.T) {
	c := enginetest.New(3, func(id wire.ParticipantID, inc uint32) enginetest.Engine {
		e, err := New(Config{MyID: id, Incarnation: inc, TokenLossTimeout: 50 * time.Millisecond})
		if err != nil {
			t.Fatalf("New engine %d: %v", id, err)
		}
		return e
	})
	dropped := 0
	c.Fault = func(now time.Duration, _, _ wire.ParticipantID, f wire.Frame) faultplan.Verdict {
		if f.Kind() == wire.KindToken && now >= 100*time.Millisecond && dropped == 0 {
			dropped++
			return faultplan.Verdict{Drop: true}
		}
		return faultplan.Verdict{Delay: enginetest.Delay}
	}
	const perNode = 10
	submit := func(from, to int) {
		for i := from; i < to; i++ {
			for id := wire.ParticipantID(1); id <= 3; id++ {
				if err := c.Submit(id, payload(id, i), wire.ServiceAgreed); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	c.Start()
	submit(0, perNode/2)
	c.After(100*time.Millisecond, func() { submit(perNode/2, perNode) })
	c.Run(time.Second)
	if dropped != 1 {
		t.Fatalf("dropped %d tokens, want 1", dropped)
	}
	installs, transitional := 0, 0
	for _, n := range c.Nodes {
		for _, ev := range n.Events() {
			switch {
			case ev.Msg != nil:
			case ev.Transitional:
				transitional++
			default:
				installs++
			}
		}
		if got := len(n.Payloads()); got != 3*perNode {
			t.Errorf("node %s delivered %d messages, want %d", n.ID, got, 3*perNode)
		}
	}
	if installs != 3 || transitional != 0 {
		t.Fatalf("%d regular and %d transitional configurations summed over the nodes, want 3 (the static ones) and 0: the lost token started a membership change",
			installs, transitional)
	}
}
