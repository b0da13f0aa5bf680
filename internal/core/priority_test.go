package core

import (
	"testing"

	"accelring/internal/wire"
)

func dataFrom(e *Engine, pid wire.ParticipantID, seq wire.Seq, round wire.Round, postToken bool) *wire.DataMessage {
	return &wire.DataMessage{
		RingID:    e.ring.ID,
		Seq:       seq,
		PID:       pid,
		Round:     round,
		PostToken: postToken,
		Service:   wire.ServiceAgreed,
	}
}

func TestPriorityStartsWithToken(t *testing.T) {
	e := newMember(t, 2, 3, accelConfig())
	if !e.Progress().TokenPriority {
		t.Fatal("a fresh member must process the first token promptly")
	}
}

func TestDataGetsPriorityAfterToken(t *testing.T) {
	e := newMember(t, 2, 3, accelConfig())
	e.HandleToken(ringToken(e, 5, 1, 0, 0))
	if e.Progress().TokenPriority {
		t.Fatal("token must lose priority right after being processed")
	}
}

func TestAggressiveRaisesOnAnyNextRoundPredecessorMessage(t *testing.T) {
	cfg := accelConfig()
	cfg.Priority = PriorityAggressive
	e := newMember(t, 2, 3, cfg) // ring 1,2,3; predecessor of 2 is 1
	e.HandleToken(ringToken(e, 5, 1, 0, 0))

	// A pre-token message from the predecessor's *next* round (round 5 >
	// our round 2) raises priority even without the post-token flag.
	e.HandleData(dataFrom(e, 1, 1, 5, false))
	if !e.Progress().TokenPriority {
		t.Fatal("aggressive method must raise token priority on any next-round predecessor message")
	}
}

func TestConservativeWaitsForPostTokenMessage(t *testing.T) {
	cfg := accelConfig()
	cfg.Priority = PriorityConservative
	e := newMember(t, 2, 3, cfg)
	e.HandleToken(ringToken(e, 5, 1, 0, 0))

	e.HandleData(dataFrom(e, 1, 1, 5, false))
	if e.Progress().TokenPriority {
		t.Fatal("conservative method must not raise priority on a pre-token message")
	}
	e.HandleData(dataFrom(e, 1, 2, 5, true))
	if !e.Progress().TokenPriority {
		t.Fatal("conservative method must raise priority on a post-token next-round message")
	}
}

func TestPriorityIgnoresNonPredecessor(t *testing.T) {
	cfg := accelConfig()
	cfg.Priority = PriorityAggressive
	e := newMember(t, 2, 3, cfg) // predecessor is 1, not 3
	e.HandleToken(ringToken(e, 5, 1, 0, 0))
	e.HandleData(dataFrom(e, 3, 1, 9, true))
	if e.Progress().TokenPriority {
		t.Fatal("messages from non-predecessors must not raise token priority")
	}
}

func TestPriorityIgnoresCurrentRoundMessages(t *testing.T) {
	cfg := accelConfig()
	cfg.Priority = PriorityAggressive
	e := newMember(t, 2, 3, cfg)
	e.HandleToken(ringToken(e, 5, 3, 0, 0)) // we process round 4
	// The predecessor's messages for the round whose token we already
	// processed (its round 3) must not raise priority.
	e.HandleData(dataFrom(e, 1, 1, 3, true))
	if e.Progress().TokenPriority {
		t.Fatal("stale-round predecessor messages must not raise token priority")
	}
}

func TestPriorityCycleOverRounds(t *testing.T) {
	cfg := accelConfig()
	cfg.Priority = PriorityAggressive
	e := newMember(t, 2, 3, cfg)

	e.HandleToken(ringToken(e, 5, 1, 0, 0)) // round 2
	if e.Progress().TokenPriority {
		t.Fatal("data should have priority after token")
	}
	e.HandleData(dataFrom(e, 1, 1, 5, false)) // predecessor round 5 (next)
	if !e.Progress().TokenPriority {
		t.Fatal("token priority should rise before next token")
	}
	e.HandleToken(ringToken(e, 6, 4, 1, 0)) // round 5
	if e.Progress().TokenPriority {
		t.Fatal("data should regain priority after the next token")
	}
}
