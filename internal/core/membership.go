package core

import (
	"accelring/internal/engine"
	"accelring/internal/wire"
	"slices"
)

// ringSeqIncrement is added to the largest known ring sequence number when
// forming a new ring, following Totem's convention.
const ringSeqIncrement = 4

// enterGather abandons the current activity and begins membership
// formation: multicast joins, collect everyone's proposed membership, and
// wait for consensus. If a recovery was in progress, the engine first
// reverts to the old ring — its configuration change was never delivered,
// so from the application's perspective the old configuration is still the
// current one and its undelivered messages must survive into the next
// recovery attempt.
func (e *Engine) enterGather() []engine.Action {
	// A formation attempt that failed (from Commit or Recovery) keeps the
	// gathered proc/fail sets: resetting them to {me} makes this node's
	// next join advertise a smaller set, bouncing already-committed peers
	// back to Gather and livelocking the whole membership. Only a fresh
	// entry from Operational starts from scratch. The joins map is always
	// cleared so that members must re-advertise and dead ones are failed
	// by the consensus timeout.
	preserve := e.state == StateCommit || e.state == StateRecovery
	if e.state == StateRecovery {
		e.ring = e.oldRing
		e.myIndex = slices.Index(e.ring.Members, e.cfg.MyID)
		e.buf = e.oldBuf
		e.safeBound = e.oldSafeBound
		e.oldRing = engine.Configuration{}
		e.oldBuf = nil
		e.obligations = nil
		e.obligationsHead = 0
	}
	e.setState(StateGather)
	e.tokenPriority = true
	e.sentToken = nil
	if !preserve || e.procSet == nil {
		// Seed the proposal with the old ring's membership: consensus then
		// waits (up to the consensus timeout) for every old member to join
		// or be failed, so that all survivors of a crash reform together
		// instead of the fastest pair racing ahead and merging later.
		e.procSet = map[wire.ParticipantID]bool{e.cfg.MyID: true}
		for _, p := range e.ring.Members {
			e.procSet[p] = true
		}
		e.failSet = make(map[wire.ParticipantID]bool)
	}
	e.joins = make(map[wire.ParticipantID]*wire.JoinMessage)
	if e.ring.ID.Seq > e.maxRingSeq {
		e.maxRingSeq = e.ring.ID.Seq
	}
	return []engine.Action{
		engine.Send{Frame: e.makeJoin()},
		engine.SetTimer{Kind: engine.TimerJoin, After: e.cfg.JoinPeriod},
		engine.SetTimer{Kind: engine.TimerConsensus, After: e.cfg.ConsensusTimeout},
		engine.CancelTimer{Kind: engine.TimerTokenLoss},
		engine.CancelTimer{Kind: engine.TimerTokenRetrans},
		engine.CancelTimer{Kind: engine.TimerCommit},
	}
}

// makeJoin builds this participant's current join message. Until it
// installs a ring above its incarnation's base, it advertises the base:
// every member then forms the ring above it, so the ring ID a non-
// representative expects is the one the representative sends.
func (e *Engine) makeJoin() *wire.JoinMessage {
	return &wire.JoinMessage{
		Sender:  e.cfg.MyID,
		ProcSet: setToSorted(e.procSet),
		FailSet: setToSorted(e.failSet),
		RingSeq: max(e.ring.ID.Seq, e.cfg.ringSeqBase()),
	}
}

// handleJoin processes a received membership join message.
func (e *Engine) handleJoin(j *wire.JoinMessage) []engine.Action {
	if j.Sender == e.cfg.MyID {
		return nil // our own multicast looped back
	}
	switch e.state {
	case StateOperational:
		if j.RingSeq < e.ring.ID.Seq && e.ring.Contains(j.Sender) {
			// A straggler join from before our current ring formed.
			return nil
		}
		actions := e.enterGather()
		return append(actions, e.processJoin(j)...)
	case StateGather:
		return e.processJoin(j)
	case StateCommit:
		if !e.pendingRing.Contains(j.Sender) {
			// A newcomer: let the current formation finish; its periodic
			// joins will trigger a merge once we are operational.
			return nil
		}
		if idSliceEqual(j.ProcSet, setToSorted(e.procSet)) &&
			idSliceEqual(j.FailSet, setToSorted(e.failSet)) {
			// The member simply has not seen the commit token yet.
			return nil
		}
		// A proposed member restarted gathering with different sets: the
		// formation cannot complete. Reconverge.
		actions := e.enterGather()
		return append(actions, e.processJoin(j)...)
	case StateRecovery:
		if !e.ring.Contains(j.Sender) {
			return nil
		}
		// A member of the forming ring is gathering again: recovery
		// cannot complete. Abort (restoring the old ring) and reconverge.
		actions := e.enterGather()
		return append(actions, e.processJoin(j)...)
	default:
		return nil
	}
}

// processJoin merges a join message into the Gather state and checks for
// consensus.
func (e *Engine) processJoin(j *wire.JoinMessage) []engine.Action {
	for _, p := range j.FailSet {
		if p == e.cfg.MyID {
			// The sender has declared us failed; we cannot join it.
			return nil
		}
	}
	if j.RingSeq > e.maxRingSeq {
		e.maxRingSeq = j.RingSeq
	}
	changed := false
	if !e.procSet[j.Sender] {
		e.procSet[j.Sender] = true
		changed = true
	}
	for _, p := range j.ProcSet {
		if !e.procSet[p] {
			e.procSet[p] = true
			changed = true
		}
	}
	for _, p := range j.FailSet {
		if p != e.cfg.MyID && !e.failSet[p] {
			e.failSet[p] = true
			changed = true
		}
	}
	e.joins[j.Sender] = j

	var actions []engine.Action
	if changed {
		// Our proposal grew: re-advertise and give consensus more time.
		actions = append(actions,
			engine.Send{Frame: e.makeJoin()},
			engine.SetTimer{Kind: engine.TimerJoin, After: e.cfg.JoinPeriod},
			engine.SetTimer{Kind: engine.TimerConsensus, After: e.cfg.ConsensusTimeout},
		)
	}
	return append(actions, e.checkConsensus()...)
}

// checkConsensus tests whether every live proposed member has advertised
// identical proc and fail sets; if so the membership is agreed and the
// commit phase begins.
func (e *Engine) checkConsensus() []engine.Action {
	live := e.liveSet()
	if len(live) == 0 {
		return nil
	}
	myProc := setToSorted(e.procSet)
	myFail := setToSorted(e.failSet)
	for _, p := range live {
		if p == e.cfg.MyID {
			continue
		}
		j := e.joins[p]
		if j == nil || !idSliceEqual(j.ProcSet, myProc) || !idSliceEqual(j.FailSet, myFail) {
			return nil
		}
	}
	return e.formRing(live)
}

// liveSet returns the sorted proposed membership: procSet minus failSet.
func (e *Engine) liveSet() []wire.ParticipantID {
	live := make([]wire.ParticipantID, 0, len(e.procSet))
	for p := range e.procSet {
		if !e.failSet[p] {
			live = append(live, p)
		}
	}
	return sortedIDs(live)
}

// consensusTimeout declares every proposed member that has not sent any
// join failed, re-advertises, and re-arms the timer. A participant that is
// alone (or whose peers all already match) can reach consensus here.
func (e *Engine) consensusTimeout() []engine.Action {
	changed := false
	for _, p := range e.liveSet() {
		if p != e.cfg.MyID && e.joins[p] == nil {
			e.failSet[p] = true
			changed = true
		}
	}
	var actions []engine.Action
	if changed {
		actions = append(actions, engine.Send{Frame: e.makeJoin()})
	}
	actions = append(actions, engine.SetTimer{Kind: engine.TimerConsensus, After: e.cfg.ConsensusTimeout})
	return append(actions, e.checkConsensus()...)
}

// formRing begins the commit phase for the agreed membership. The
// representative (smallest ID) creates the commit token and circulates it;
// everyone else waits for it.
func (e *Engine) formRing(live []wire.ParticipantID) []engine.Action {
	ringID := wire.RingID{Rep: live[0], Seq: e.maxRingSeq + ringSeqIncrement}
	e.pendingRing = engine.Configuration{ID: ringID, Members: live}
	e.setState(StateCommit)
	actions := []engine.Action{
		engine.CancelTimer{Kind: engine.TimerJoin},
		engine.CancelTimer{Kind: engine.TimerConsensus},
		engine.SetTimer{Kind: engine.TimerCommit, After: e.cfg.CommitTimeout},
	}
	if live[0] != e.cfg.MyID {
		return actions
	}
	ct := &wire.CommitToken{RingID: ringID, Rotation: 1, Members: make([]wire.CommitMember, len(live))}
	for i, p := range live {
		ct.Members[i].ID = p
	}
	e.fillCommitEntry(ct)
	if len(live) == 1 {
		// Singleton ring: both rotations are trivially complete.
		return append(actions, e.repCompleteRotation1(ct)...)
	}
	return append(actions, engine.Send{To: live[1], Frame: ct})
}

// fillCommitEntry records this participant's old-ring state in its commit
// token entry.
func (e *Engine) fillCommitEntry(ct *wire.CommitToken) {
	for i := range ct.Members {
		m := &ct.Members[i]
		if m.ID != e.cfg.MyID {
			continue
		}
		m.OldRingID = e.ring.ID
		if e.buf != nil {
			m.MyARU = e.buf.LocalARU()
			m.HighSeq = e.buf.HighSeq()
			m.HighDelivered = e.buf.Delivered()
		}
		m.Filled = true
		return
	}
}

// handleCommit processes a received commit token.
func (e *Engine) handleCommit(ct *wire.CommitToken) []engine.Action {
	idx := -1
	for i := range ct.Members {
		if ct.Members[i].ID == e.cfg.MyID {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil // not for us
	}
	rep := ct.RingID.Rep == e.cfg.MyID

	switch e.state {
	case StateGather, StateCommit:
		if e.state == StateCommit && ct.RingID != e.pendingRing.ID {
			return nil // a stale commit token from an abandoned formation
		}
		switch ct.Rotation {
		case 1:
			if rep {
				// The collection rotation returned to us; it is only valid
				// if it is the one we issued for the current formation.
				if e.state != StateCommit || !allFilled(ct) {
					return nil
				}
				return e.repCompleteRotation1(ct)
			}
			ct = ct.Clone()
			e.fillCommitEntry(ct)
			e.setState(StateCommit)
			e.pendingRing = commitConfiguration(ct)
			next := ct.Members[(idx+1)%len(ct.Members)].ID
			return []engine.Action{
				engine.CancelTimer{Kind: engine.TimerJoin},
				engine.CancelTimer{Kind: engine.TimerConsensus},
				engine.SetTimer{Kind: engine.TimerCommit, After: e.cfg.CommitTimeout},
				engine.Send{To: next, Frame: ct},
			}
		case 2:
			if rep || e.state != StateCommit || !allFilled(ct) {
				return nil
			}
			// Everyone's old-ring state is known: shift to recovery and
			// pass the confirmation on.
			actions := e.enterRecovery(ct)
			next := ct.Members[(idx+1)%len(ct.Members)].ID
			return append(actions, engine.Send{To: next, Frame: ct.Clone()})
		}
	case StateRecovery:
		if rep && ct.Rotation == 2 && ct.RingID == e.ring.ID && e.lastTokenSeq == 0 {
			// The confirmation rotation returned: every member is in
			// recovery. Inject the first regular token of the new ring by
			// processing it locally.
			initial := &wire.Token{RingID: e.ring.ID, TokenSeq: 1}
			return e.handleRegularToken(initial)
		}
	}
	return nil
}

// repCompleteRotation1 is the representative's transition at the end of the
// commit token's collection rotation: switch to recovery and start the
// confirmation rotation (or, on a singleton ring, inject the first regular
// token immediately).
func (e *Engine) repCompleteRotation1(ct *wire.CommitToken) []engine.Action {
	ct = ct.Clone()
	ct.Rotation = 2
	actions := e.enterRecovery(ct)
	if len(ct.Members) == 1 {
		initial := &wire.Token{RingID: e.ring.ID, TokenSeq: 1}
		return append(actions, e.handleRegularToken(initial)...)
	}
	return append(actions, engine.Send{To: ct.Members[1].ID, Frame: ct})
}

// commitConfiguration extracts the new ring's configuration from a commit
// token.
func commitConfiguration(ct *wire.CommitToken) engine.Configuration {
	members := make([]wire.ParticipantID, len(ct.Members))
	for i := range ct.Members {
		members[i] = ct.Members[i].ID
	}
	return engine.Configuration{ID: ct.RingID, Members: members}
}

func allFilled(ct *wire.CommitToken) bool {
	for i := range ct.Members {
		if !ct.Members[i].Filled {
			return false
		}
	}
	return true
}

// enterRecovery installs the forming ring for token circulation (the
// application-visible configuration change is delivered only when recovery
// completes), saves the old ring's state, and computes this participant's
// retransmission obligations: the old-ring messages it must re-multicast so
// that every member arriving from the same old ring ends up with identical
// message sets (Extended Virtual Synchrony).
func (e *Engine) enterRecovery(ct *wire.CommitToken) []engine.Action {
	e.commitInfo = make([]wire.CommitMember, len(ct.Members))
	copy(e.commitInfo, ct.Members)

	e.oldRing = e.ring
	e.oldBuf = e.buf
	e.oldSafeBound = e.safeBound

	e.installRing(commitConfiguration(ct))
	e.setState(StateRecovery)
	e.obligations = e.computeObligations()
	e.obligationsHead = 0
	e.recoveryMarkers = make(map[wire.ParticipantID]wire.Seq, len(e.ring.Members))

	return []engine.Action{
		engine.CancelTimer{Kind: engine.TimerJoin},
		engine.CancelTimer{Kind: engine.TimerConsensus},
		engine.CancelTimer{Kind: engine.TimerCommit},
		engine.SetTimer{Kind: engine.TimerTokenLoss, After: e.cfg.TokenLossTimeout},
	}
}

// computeObligations selects the old-ring messages this participant will
// re-multicast during recovery. For each sequence number in the recovery
// range (between the lowest aru and the highest seq reported by members of
// our old ring), the designated retransmitter is the lowest-ID member
// guaranteed to have the message (aru ≥ seq); if no member's aru covers it,
// every member that happens to have it sends it and receivers drop
// duplicates.
func (e *Engine) computeObligations() []*wire.DataMessage {
	if e.oldBuf == nil || e.oldRing.ID == (wire.RingID{}) {
		return nil
	}
	var peers []wire.CommitMember
	for _, m := range e.commitInfo {
		if m.OldRingID == e.oldRing.ID {
			peers = append(peers, m)
		}
	}
	if len(peers) <= 1 {
		return nil // nobody else survived from our old ring
	}
	low := peers[0].MyARU
	high := peers[0].HighSeq
	for _, p := range peers[1:] {
		if p.MyARU < low {
			low = p.MyARU
		}
		if p.HighSeq > high {
			high = p.HighSeq
		}
	}
	var out []*wire.DataMessage
	for s := low + 1; s <= high; s++ {
		m := e.oldBuf.Get(s)
		if m == nil {
			continue
		}
		designated := wire.ParticipantID(0)
		for _, p := range peers {
			if p.MyARU >= s && (designated == 0 || p.ID < designated) {
				designated = p.ID
			}
		}
		if designated == 0 || designated == e.cfg.MyID {
			out = append(out, m)
		}
	}
	return out
}

// recoveryRoundEnd runs after the token-handling core while in Recovery.
// Recovery is complete for this participant once it holds an
// end-of-recovery marker from every member of the forming ring and its safe
// bound covers the highest marker: at that point every message any member
// re-multicast (all of which precede that member's marker in the new ring's
// total order) is known to be held by every member, so the transitional
// configuration's guarantees can be met. Members that complete early and
// begin sending application traffic do not disturb stragglers — the safe
// bound keeps advancing regardless.
func (e *Engine) recoveryRoundEnd(actions []engine.Action) []engine.Action {
	if len(e.recoveryMarkers) < len(e.ring.Members) {
		return actions
	}
	var maxMarker wire.Seq
	for _, s := range e.recoveryMarkers {
		if s > maxMarker {
			maxMarker = s
		}
	}
	if e.safeBound < maxMarker {
		return actions
	}
	return e.completeRecovery(actions)
}

// completeRecovery finishes the membership change per Extended Virtual
// Synchrony: deliver the old configuration's remaining messages that meet
// its guarantees, then the transitional configuration, then the messages
// that could only be recovered under the transitional guarantees, then the
// new regular configuration — and finally anything already buffered on the
// new ring.
func (e *Engine) completeRecovery(actions []engine.Action) []engine.Action {
	if e.oldBuf != nil && e.oldRing.ID != (wire.RingID{}) {
		// Messages deliverable under the old configuration's own rules:
		// contiguous, with Safe messages only up to the old safe bound.
		for {
			m := e.oldBuf.NextDeliverable(e.oldSafeBound)
			if m == nil {
				break
			}
			e.oldBuf.Advance(m.Seq)
			if m.Recovered {
				continue
			}
			actions = e.emitDeliver(actions, m)
		}
		// The transitional configuration: the members of the new ring that
		// arrived together from this participant's old ring (per the
		// commit token's old-ring identifiers — a member present in both
		// rings may still have travelled through an intermediate ring, in
		// which case it is not a transitional peer).
		transMembers := make([]wire.ParticipantID, 0, len(e.commitInfo))
		for _, m := range e.commitInfo {
			if m.OldRingID == e.oldRing.ID {
				transMembers = append(transMembers, m.ID)
			}
		}
		trans := engine.Configuration{ID: e.oldRing.ID, Members: transMembers}
		e.traceConfig(trans, true)
		actions = append(actions, engine.DeliverConfig{Config: trans, Transitional: true})
		// Everything else we hold from the old ring, in sequence order.
		// Recovery quiescence guarantees every transitional member holds
		// these, so Safe messages now satisfy their guarantee with respect
		// to the transitional membership.
		e.oldBuf.Range(e.oldBuf.Delivered()+1, e.oldBuf.HighSeq(), func(m *wire.DataMessage) bool {
			if m.Recovered {
				return true
			}
			actions = e.emitDeliver(actions, m)
			return true
		})
	}

	e.oldRing = engine.Configuration{}
	e.oldBuf = nil
	e.obligations = nil
	e.obligationsHead = 0
	e.commitInfo = nil
	e.recoveryMarkers = nil
	e.setState(StateOperational)
	e.stats.MembershipChanges++
	e.traceConfig(e.ring, false)
	actions = append(actions, engine.DeliverConfig{Config: e.ring.Clone(), Transitional: false})
	// Members that completed earlier may already be sending application
	// messages on the new ring.
	return e.deliverReady(actions)
}

// setToSorted converts a participant set to a sorted slice.
func setToSorted(set map[wire.ParticipantID]bool) []wire.ParticipantID {
	out := make([]wire.ParticipantID, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	return sortedIDs(out)
}

// idSliceEqual reports whether two sorted ID slices are equal.
func idSliceEqual(a, b []wire.ParticipantID) bool {
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
