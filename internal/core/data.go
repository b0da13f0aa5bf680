package core

import (
	"accelring/internal/engine"
	"accelring/internal/wire"
)

// handleData processes a received data message.
func (e *Engine) handleData(m *wire.DataMessage) []engine.Action {
	switch e.state {
	case StateOperational, StateGather, StateCommit:
		// In Gather/Commit the previous ring's data messages are still
		// useful: buffering them reduces recovery work, and contiguous
		// Agreed messages may still be delivered — the configuration
		// change has not been delivered yet, so they belong to the old
		// (still current) configuration.
		if e.buf == nil || m.RingID != e.ring.ID {
			return e.handleForeignData(m)
		}
		return e.handleRingData(m)
	case StateRecovery:
		return e.handleRecoveryData(m)
	default:
		return nil
	}
}

// handleRingData processes a data message belonging to the current ring.
func (e *Engine) handleRingData(m *wire.DataMessage) []engine.Action {
	if !e.buf.Insert(m) {
		e.stats.MsgsDuplicate++
		return nil
	}
	e.stats.MsgsReceived++
	e.maybeRaiseTokenPriority(m)
	// Evidence of downstream progress: somebody processed a later token
	// than ours, so the token we forwarded was not lost.
	actions := e.acts[:0]
	if m.Round > e.round && e.sentToken != nil {
		actions = append(actions, cancelTokenRetrans)
	}
	e.acts = e.deliverReady(actions)
	return e.acts
}

// cancelTokenRetrans is boxed once: converting the CancelTimer to an
// Action on every data frame would allocate.
var cancelTokenRetrans engine.Action = engine.CancelTimer{Kind: engine.TimerTokenRetrans}

// maybeRaiseTokenPriority implements the two priority-switching methods of
// Section III-C. The token regains high priority when this participant
// processes a data message its ring predecessor sent in a round after the
// round of the last token processed here — for the conservative method,
// only if the message was sent in the predecessor's post-token phase.
func (e *Engine) maybeRaiseTokenPriority(m *wire.DataMessage) {
	if e.tokenPriority || e.state != StateOperational {
		return
	}
	if m.PID != e.predecessor() || m.Round <= e.round {
		return
	}
	if e.cfg.Priority == PriorityConservative && !m.PostToken {
		return
	}
	e.tokenPriority = true
}

// handleForeignData reacts to a data message from a different ring: either
// a stale packet from an earlier configuration of ours, or evidence of a
// foreign ring that should trigger a membership merge.
func (e *Engine) handleForeignData(m *wire.DataMessage) []engine.Action {
	if m.RingID.Seq < e.ring.ID.Seq && e.ring.Contains(m.PID) {
		// A straggler from one of our own earlier rings; ignore.
		return nil
	}
	if e.state != StateOperational {
		// Already working on a membership change.
		return nil
	}
	return e.enterGather()
}

// handleRecoveryData processes data messages while in Recovery: messages on
// the ring being formed are buffered (and wrapped old-ring messages
// unwrapped into the old buffer), while old-ring stragglers are added to
// the old buffer directly. Nothing is delivered until recovery completes.
func (e *Engine) handleRecoveryData(m *wire.DataMessage) []engine.Action {
	switch m.RingID {
	case e.ring.ID:
		if !e.buf.Insert(m) {
			e.stats.MsgsDuplicate++
			return nil
		}
		e.stats.MsgsReceived++
		if m.Recovered {
			if len(m.Payload) == 0 {
				e.recoveryMarkers[m.PID] = m.Seq
			} else {
				e.unwrapRecovered(m)
			}
		}
		if m.Round > e.round && e.sentToken != nil {
			return []engine.Action{cancelTokenRetrans}
		}
	case e.oldRing.ID:
		if e.oldBuf != nil {
			e.oldBuf.Insert(m)
		}
	default:
		// Foreign traffic during recovery: ignore; if a merge is needed it
		// will surface again once we are operational.
	}
	return nil
}

// unwrapRecovered decodes a wrapped old-ring message and, if it belongs to
// the old ring this participant came from, stores it for delivery at the
// end of recovery. Messages from other groups' old rings are not delivered
// here (this participant was not a member of those configurations).
func (e *Engine) unwrapRecovered(m *wire.DataMessage) {
	old, err := wire.DecodeData(m.Payload)
	if err != nil {
		// A peer wrapped something unparseable; EVS cannot recover this
		// message, but the protocol remains live without it.
		return
	}
	if e.oldBuf != nil && old.RingID == e.oldRing.ID {
		e.oldBuf.Insert(old)
	}
}
