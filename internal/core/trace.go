package core

// Tracer receives the engine's membership state transitions, the one
// protocol fact the engine's actions do not carry: configuration installs
// are DeliverConfig actions and reach the application as events. The
// callback runs synchronously on the protocol goroutine: implementations
// must be fast and must not call back into the engine. A nil tracer
// disables tracing with no overhead beyond a nil check.
type Tracer interface {
	// StateChanged reports a membership state transition.
	StateChanged(from, to State)
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
