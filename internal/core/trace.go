package core

import (
	"accelring/internal/engine"
	"accelring/internal/wire"
)

// Tracer receives protocol-level events for observability and debugging.
// All callbacks run synchronously on the protocol goroutine: implementations
// must be fast and must not call back into the engine. A nil tracer
// disables tracing with no overhead beyond a nil check.
type Tracer interface {
	// StateChanged reports a membership state transition.
	StateChanged(from, to State)
	// TokenForwarded reports a regular token leaving this participant:
	// destination, the forwarded seq/aru, and how many retransmissions and
	// new messages this round produced.
	TokenForwarded(to wire.ParticipantID, seq, aru wire.Seq, retrans, newMsgs int)
	// ConfigurationInstalled reports a configuration delivery (regular or
	// transitional).
	ConfigurationInstalled(cfg engine.Configuration, transitional bool)
}

// setState transitions the membership state, notifying the tracer.
func (e *Engine) setState(s State) {
	if e.state == s {
		return
	}
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.StateChanged(e.state, s)
	}
	e.state = s
}

func (e *Engine) traceTokenForwarded(to wire.ParticipantID, tok *wire.Token, retrans, newMsgs int) {
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.TokenForwarded(to, tok.Seq, tok.ARU, retrans, newMsgs)
	}
}

func (e *Engine) traceConfig(cfg engine.Configuration, transitional bool) {
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.ConfigurationInstalled(cfg, transitional)
	}
}
