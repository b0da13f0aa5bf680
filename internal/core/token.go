package core

import (
	"accelring/internal/engine"
	"accelring/internal/wire"
)

// handleToken processes a received regular token.
func (e *Engine) handleToken(tok *wire.Token) []engine.Action {
	switch e.state {
	case StateOperational, StateRecovery:
		if tok.RingID != e.ring.ID {
			// A token from another ring is always stale: tokens are
			// unicast along a ring we are (or were) part of. Drop it;
			// merges are driven by multicast joins and data messages.
			return nil
		}
		if tok.TokenSeq <= e.lastTokenSeq {
			e.stats.TokensDuplicate++
			return nil
		}
		return e.handleRegularToken(tok)
	default:
		// Tokens are meaningless while gathering or committing.
		return nil
	}
}

// handleRegularToken implements Section III-A of the paper: pre-token
// multicasting (retransmissions plus the new messages that exceed the
// accelerated window), token update and forwarding, post-token
// multicasting, and delivery/discard. In the Recovery state the same
// machinery runs, but the messages initiated are wrapped old-ring messages
// and application delivery is deferred until recovery completes.
//
// The returned action order is the protocol: everything appended before the
// token Send action is the pre-token phase, everything after it the
// post-token phase.
func (e *Engine) handleRegularToken(tok *wire.Token) []engine.Action {
	e.stats.TokensProcessed++
	e.lastTokenSeq = tok.TokenSeq
	e.round = tok.Round + 1
	tok.Round = e.round
	tok.TokenSeq++

	actions := e.acts[:0]

	// --- Pre-token phase 1: answer retransmission requests. All
	// retransmissions must be sent before the token; otherwise they may be
	// requested again (Section III-A1).
	var unanswered []wire.Seq
	numRetrans := 0
	for _, s := range tok.RTR {
		if m := e.buf.Get(s); m != nil {
			rm := *m
			rm.Retrans = true
			actions = append(actions, engine.SendData{Msg: &rm})
			numRetrans++
		} else {
			unanswered = append(unanswered, s)
		}
	}
	e.stats.MsgsRetransmitted += uint64(numRetrans)

	// --- ARU update, part 1: lowering (rules of the Totem Ring protocol).
	receivedSeq := tok.Seq
	receivedFCC := int(tok.FCC)
	localARU := e.buf.LocalARU()
	lowered := false
	if localARU < tok.ARU {
		tok.ARU = localARU
		tok.ARUID = e.cfg.MyID
		lowered = true
	} else if tok.ARUID == e.cfg.MyID {
		// We held the aru down in a previous round and nobody else has
		// touched it since; raise it to our current local aru.
		tok.ARU = minSeq(localARU, tok.Seq)
		if tok.ARU == tok.Seq {
			tok.ARUID = 0
		}
	}
	// If the aru has (now) caught up with the received seq and we did not
	// need to lower it, it rides along with seq as we sequence new messages
	// below — we hold our own messages by construction. Evaluating this
	// after the raise step preserves the invariant that a forwarded token
	// always has aru == seq or a live ARUID owner; otherwise the aru can
	// freeze forever at (aru < seq, no owner) and the max-seq-gap flow
	// control chokes all sending.
	rideARU := !lowered && tok.ARU == receivedSeq

	// --- Pre-token phase 2: choose and sequence this round's new
	// messages. The flow control budget follows Section III-A1; the
	// global-aru estimate is the token's (post-lowering) aru.
	waiting := e.sourceLen()
	budget := e.flow.Budget(waiting, numRetrans, receivedFCC, tok.Seq, tok.ARU)
	if budget < waiting {
		e.stats.FlowThrottledRounds++
	}
	newMsgs := e.newMsgsScratch[:0]
	// With packing enabled one protocol packet may consume several backlog
	// entries, so the loop is bounded both by the budget and by the source
	// actually draining.
	for i := 0; i < budget && e.sourceLen() > 0; i++ {
		m := e.nextMessage()
		m.RingID = e.ring.ID
		m.Seq = tok.Seq + 1
		m.PID = e.cfg.MyID
		m.Round = e.round
		tok.Seq++
		e.buf.Insert(m)
		if e.state == StateRecovery && m.Recovered && len(m.Payload) == 0 {
			// Our own end-of-recovery marker.
			e.recoveryMarkers[e.cfg.MyID] = m.Seq
		}
		newMsgs = append(newMsgs, m)
	}
	// The last AcceleratedWindow packets of the round go out after the
	// token (Section III-A1); everything before them is the pre-token phase.
	preCount := len(newMsgs) - e.cfg.Flow.AcceleratedWindow
	if preCount < 0 {
		preCount = 0
	}
	for i := preCount; i < len(newMsgs); i++ {
		newMsgs[i].PostToken = true
	}
	e.stats.MsgsSent += uint64(len(newMsgs))
	e.stats.MsgsPostToken += uint64(len(newMsgs) - preCount)
	if len(newMsgs) > preCount {
		e.stats.AccelFlushes++
	}

	// --- ARU update, part 2: the ride decided above.
	if rideARU {
		tok.ARU = tok.Seq
		tok.ARUID = 0
	}

	// --- Retransmission requests: add our gaps, but only up to the seq of
	// the token received in the PREVIOUS round. Under acceleration the
	// current token's seq may cover messages that have not been sent yet;
	// requesting those would cause useless retransmissions (Section
	// III-A2).
	rtr := unanswered
	localARU = e.buf.LocalARU()
	if e.prevTokenSeq > localARU {
		before := len(rtr)
		rtr = e.appendMissing(rtr, e.prevTokenSeq)
		e.stats.RTRRequested += uint64(len(rtr) - before)
	}
	if receivedSeq > e.prevTokenSeq && receivedSeq > localARU {
		// The caution rule capped our requests at last round's frontier;
		// gaps between it and the received seq (if any) wait one round.
		e.stats.RTRDeferredRounds++
	}
	if len(rtr) > wire.MaxRTR {
		rtr = rtr[:wire.MaxRTR]
	}
	tok.RTR = rtr
	e.prevTokenSeq = receivedSeq

	// --- Flow control count.
	tok.FCC = uint32(e.flow.RoundFCC(receivedFCC, numRetrans+len(newMsgs)))

	// --- Emit: pre-token messages, the token, then the post-token phase.
	for _, m := range newMsgs[:preCount] {
		actions = append(actions, engine.SendData{Msg: m})
	}
	e.sentToken = tok.CloneInto(e.sentToken)
	actions = append(actions, engine.Send{To: e.successor(), Frame: tok})
	for _, m := range newMsgs[preCount:] {
		actions = append(actions, engine.SendData{Msg: m})
	}

	// --- Delivery and discard (Section III-A4). A Safe message is
	// deliverable once every participant is known to have received it:
	// at or below the minimum of the aru on the token we forwarded this
	// round and last round.
	aruSentThis := tok.ARU
	e.safeBound = minSeq(aruSentThis, e.aruSentLast)
	e.aruSentLast = aruSentThis

	if e.state == StateRecovery {
		actions = e.recoveryRoundEnd(actions)
	} else {
		actions = e.deliverReady(actions)
		if n := e.buf.DiscardStable(e.safeBound); n > 0 {
			e.stats.Discarded += uint64(n)
		}
	}

	// --- Receive-side policy: after processing a token, data messages
	// have high priority until the predecessor is seen in the next round
	// (Section III-C).
	e.tokenPriority = false

	actions = append(actions, e.tokenTimers[:]...)
	// Keep the (possibly grown) new-message list as next round's scratch.
	// Only the individual *DataMessage pointers escaped into actions; the
	// slice itself is round-local.
	e.newMsgsScratch = newMsgs
	e.acts = actions
	return actions
}

// sourceLen returns the number of messages waiting to be initiated: the
// application backlog when operational; during recovery, the remaining
// retransmission obligations plus the end-of-recovery marker.
func (e *Engine) sourceLen() int {
	if e.state == StateRecovery {
		n := len(e.obligations) - e.obligationsHead
		if !e.markerSent {
			n++
		}
		return n
	}
	return e.pendingLen()
}

// nextMessage produces the next message to initiate, without ring/sequence
// fields (the caller stamps those). During recovery it wraps the next
// old-ring obligation — or, once the obligations have drained, emits this
// participant's end-of-recovery marker (an empty wrapper); otherwise it
// takes from the application backlog.
func (e *Engine) nextMessage() *wire.DataMessage {
	if e.state == StateRecovery {
		if e.obligationsHead >= len(e.obligations) {
			e.markerSent = true
			return &wire.DataMessage{Recovered: true, Service: wire.ServiceAgreed}
		}
		old := e.obligations[e.obligationsHead]
		e.obligations[e.obligationsHead] = nil
		e.obligationsHead++
		encoded, err := wire.Encode(old)
		if err != nil {
			// Old messages were received off the wire or produced by this
			// engine; both are always encodable.
			panic("core: failed to encode recovered message: " + err.Error())
		}
		return &wire.DataMessage{
			Recovered: true,
			Service:   wire.ServiceAgreed,
			Payload:   encoded,
		}
	}
	return e.nextOperationalMessage()
}

// nextOperationalMessage takes the next application message from the
// backlog — packing consecutive same-service small messages into one
// container when packing is enabled (Spread's message packing).
func (e *Engine) nextOperationalMessage() *wire.DataMessage {
	first := e.popPending()
	thr := e.cfg.PackThreshold
	if thr <= 0 || e.pendingLen() == 0 {
		return &wire.DataMessage{Service: first.service, Payload: first.payload}
	}
	size := 2 + 4 + len(first.payload)
	if size > thr {
		return &wire.DataMessage{Service: first.service, Payload: first.payload}
	}
	batch := append(e.packBatch[:0], first.payload)
	for e.pendingLen() > 0 && len(batch) < wire.MaxPacked {
		next := e.pending[e.pendingHead]
		if next.service != first.service || size+4+len(next.payload) > thr {
			break
		}
		size += 4 + len(next.payload)
		batch = append(batch, next.payload)
		e.popPending()
	}
	if len(batch) == 1 {
		e.packBatch = batch[:0]
		return &wire.DataMessage{Service: first.service, Payload: first.payload}
	}
	// The container must be a fresh allocation — it becomes the message's
	// payload and is retained in the buffer until stability — but the batch
	// slice collecting the inputs is reusable scratch.
	packed, err := wire.PackPayloads(batch)
	if err != nil {
		// Unreachable: the batch is size-bounded by the validated
		// threshold and count-bounded by MaxPacked.
		panic("core: packing failed: " + err.Error())
	}
	e.stats.PayloadsPacked += uint64(len(batch))
	for i := range batch {
		batch[i] = nil // do not pin submitted payloads past this round
	}
	e.packBatch = batch[:0]
	return &wire.DataMessage{Service: first.service, Payload: packed, Packed: true}
}

// appendMissing adds this participant's receive gaps up to bound to rtr,
// skipping sequence numbers already present.
func (e *Engine) appendMissing(rtr []wire.Seq, bound wire.Seq) []wire.Seq {
	have := make(map[wire.Seq]bool, len(rtr))
	for _, s := range rtr {
		have[s] = true
	}
	missing := e.buf.Missing(nil, bound, wire.MaxRTR)
	for _, s := range missing {
		if !have[s] {
			rtr = append(rtr, s)
		}
	}
	return rtr
}

// deliverReady drains every message that is now deliverable in total order,
// appending Deliver actions. Wrapped recovery messages left over in the
// buffer from the recovery phase are consumed silently.
func (e *Engine) deliverReady(actions []engine.Action) []engine.Action {
	for {
		m := e.buf.NextDeliverable(e.safeBound)
		if m == nil {
			return actions
		}
		e.buf.Advance(m.Seq)
		if m.Recovered {
			continue
		}
		actions = e.emitDeliver(actions, m)
	}
}

// emitDeliver appends the Deliver action(s) for one ordered message,
// unpacking containers into their individual application messages.
func (e *Engine) emitDeliver(actions []engine.Action, m *wire.DataMessage) []engine.Action {
	if !m.Packed {
		e.stats.Delivered++
		if m.Service.RequiresSafe() {
			e.stats.SafeDelivered++
		}
		return append(actions, engine.Deliver{Msg: m})
	}
	payloads, err := wire.UnpackPayloads(e.unpacked[:0], m.Payload)
	if err != nil {
		// A peer sent a corrupt container; the protocol stays live, the
		// container's contents are unrecoverable.
		return actions
	}
	// One allocation per container: the sub-messages are fresh (a consumer
	// may keep a Deliver's Msg) but share one backing array.
	subs := make([]wire.DataMessage, len(payloads))
	for i, p := range payloads {
		subs[i] = wire.DataMessage{
			RingID:  m.RingID,
			Seq:     m.Seq,
			PID:     m.PID,
			Round:   m.Round,
			Service: m.Service,
			Payload: p,
		}
		e.stats.Delivered++
		if m.Service.RequiresSafe() {
			e.stats.SafeDelivered++
		}
		actions = append(actions, engine.Deliver{Msg: &subs[i]})
	}
	clear(payloads) // the scratch must not pin this container once its deliveries are gone
	e.unpacked = payloads[:0]
	return actions
}
