package ringpaxos

import (
	"sort"

	"accelring/internal/core"
	"accelring/internal/wire"
)

// Phase 2 rides the token frame. The coordinator opens a circulation by
// sending a token to its active-ring successor; each member learns the
// decided watermark from it, folds its own acceptance vote in, and
// forwards it; when the token returns, the aggregated vote is the new
// decided watermark. Field mapping:
//
//	RingID   – the static configuration identity (transport routing)
//	TokenSeq – circulation counter, restarting at 1 per view
//	Round    – the view
//	Seq      – highest assigned instance (the window's right edge)
//	ARU      – decided watermark at circulation start
//	ARUID    – the coordinator
//	FCC      – number of votes folded in (sanity only; the min is safe
//	           regardless)
//	RTR[0]   – the vote aggregate: the minimum, over members so far, of
//	           each member's consecutive current-view accepted prefix
//	RTR[1:]  – missing-instance retransmission requests, answered and
//	           removed by members along the ring
//
// A member's vote is the largest P such that every instance in
// (decided, P] has an assignment accepted in the current view. Votes are
// prefixes, so the aggregate minimum over the whole ring means every
// active member accepted everything up to it — and the active ring
// contains a majority, so those instances are decided (ring-is-quorum).
// Decision happens only at the coordinator, only when its own token
// returns.
const maxTokenRetrans = 5

// buildToken constructs the token for the next circulation. The
// coordinator's own vote is folded at build time: its accepted prefix is
// always the full window (it authored every assignment), so RTR[0]
// starts at high.
func (e *Engine) buildToken() *wire.Token {
	e.circ++
	return &wire.Token{
		RingID:   e.ringID,
		TokenSeq: e.circ,
		Round:    wire.Round(e.view),
		Seq:      wire.Seq(e.high),
		ARU:      wire.Seq(e.decided),
		ARUID:    e.cfg.MyID,
		FCC:      1,
		RTR:      []wire.Seq{wire.Seq(e.high)},
	}
}

// sendTokenTo emits the token to its destination and retains a clone for
// retransmission until evidence of onward progress arrives.
func (e *Engine) sendTokenTo(to wire.ParticipantID, tok *wire.Token, acts []core.Action) []core.Action {
	e.sentToken = tok.Clone()
	e.sentTokenTo = to
	e.sentRetrans = 0
	acts = append(acts, core.Send{To: to, Frame: tok})
	if !e.retransArmed {
		e.retransArmed = true
		acts = append(acts, core.SetTimer{Kind: core.TimerTokenRetrans, After: e.cfg.TokenRetransPeriod})
	}
	return acts
}

// handleToken processes a received Phase 2 token.
func (e *Engine) handleToken(t *wire.Token) []core.Action {
	if t.RingID != e.ringID || e.inViewChange {
		return nil
	}
	view := uint64(t.Round)
	if view != e.view || len(t.RTR) == 0 {
		if view > e.promised {
			// Circulating traffic for a view we never installed.
			return []core.Action{e.nackFrame(true)}
		}
		e.px.StaleTokens++
		return nil
	}
	if t.TokenSeq <= e.lastTokSeq {
		e.stats.TokensDuplicate++
		return nil
	}
	if e.isCoordinator() {
		return e.handleTokenReturn(t)
	}
	if e.myActiveIdx < 0 {
		// Off-ring members never vote; seeing a token here means the
		// coordinator's view of the ring and ours disagree. The ARU is
		// still trustworthy — learn from it, then drop.
		e.lastTokSeq = t.TokenSeq
		return e.advanceDecided(uint64(t.ARU), nil)
	}
	e.lastTokSeq = t.TokenSeq
	e.stats.TokensProcessed++
	e.px.Phase2Tokens++

	var acts []core.Action
	// Learn: everything up to the coordinator's decided watermark is
	// decided.
	acts = e.advanceDecided(uint64(t.ARU), acts)
	if uint64(t.Seq) > e.high {
		e.high = uint64(t.Seq)
	}

	// Vote: extend the aggregate with our current-view accepted prefix.
	prefix := e.votePrefix()
	if prefix < uint64(t.RTR[0]) {
		t.RTR[0] = wire.Seq(prefix)
	}
	if prefix < e.high {
		e.px.VoteAbstains++
	}
	t.FCC++

	// Serve retransmission requests we can answer, removing them so
	// members later in the ring do not answer again.
	acts, t.RTR = e.answerTokenRTR(acts, t.RTR)

	// Append our own missing instances (decided but undeliverable here).
	t.RTR = e.appendMissing(t.RTR)

	acts = e.sendTokenTo(e.successor(), t.Clone(), acts)
	acts = e.armLiveness(acts)
	return acts
}

// votePrefix computes this member's Phase 2b vote: the end of the
// consecutive run of current-view acceptances just above the decided
// watermark.
func (e *Engine) votePrefix() uint64 {
	p := e.decided
	for {
		ent, ok := e.log[p+1]
		if !ok || ent.view != e.view {
			return p
		}
		p++
	}
}

// answerTokenRTR serves requests from the token's RTR tail (RTR[0] is the
// vote slot). Answered requests are removed; the rest are carried on.
func (e *Engine) answerTokenRTR(acts []core.Action, rtr []wire.Seq) ([]core.Action, []wire.Seq) {
	kept := rtr[:1]
	answered := 0
	for _, s := range rtr[1:] {
		inst := uint64(s)
		if answered < perTokenRTRAnswers && inst <= e.decided && e.canDeliver(inst) {
			e.px.ValueRetransmits++
			acts = append(acts, e.decidedFrame(inst))
			answered++
			continue
		}
		kept = append(kept, s)
	}
	return acts, kept
}

// appendMissing adds this member's undeliverable decided instances to the
// token's request list, deduplicating against requests already aboard.
func (e *Engine) appendMissing(rtr []wire.Seq) []wire.Seq {
	if e.delivered >= e.decided {
		return rtr
	}
	aboard := make(map[wire.Seq]bool, len(rtr)-1)
	for _, s := range rtr[1:] {
		aboard[s] = true
	}
	added := 0
	for i := e.delivered + 1; i <= e.decided && added < perTokenRTRAdds && len(rtr) < wire.MaxRTR; i++ {
		if e.canDeliver(i) || aboard[wire.Seq(i)] {
			continue
		}
		rtr = append(rtr, wire.Seq(i))
		added++
	}
	if added > 0 {
		e.stats.RTRRequested += uint64(added)
	}
	return rtr
}

// handleTokenReturn is the coordinator's side of a completed circulation:
// the aggregate vote decides, new work is assigned, and either the next
// circulation starts or an idle ring pauses.
func (e *Engine) handleTokenReturn(t *wire.Token) []core.Action {
	if !e.awaitReturn || t.TokenSeq != e.circ {
		e.stats.TokensDuplicate++
		return nil
	}
	e.awaitReturn = false
	e.provenRing = true // a full circulation returned in this view
	e.lastTokSeq = t.TokenSeq
	e.stats.TokensProcessed++
	e.px.Phase2Tokens++
	e.sentToken = nil // stop retransmitting the circulation we got back

	var acts []core.Action
	prevDecided := e.decided

	// Decide: the aggregate vote is the full ring's accepted prefix.
	voteMin := uint64(t.RTR[0])
	if voteMin > e.decided {
		e.px.QuorumDecides += voteMin - e.decided
	}
	acts = e.advanceDecided(voteMin, acts)

	// Serve what the ring could not.
	acts, _ = e.answerTokenRTR(acts, t.RTR)

	if e.decided > prevDecided || voteMin < e.high || e.outstanding() {
		e.idleCircs = 0
	} else {
		e.idleCircs++
	}
	if e.idleCircs >= idlePauseCirculations {
		// Everything is decided and delivered, and the final watermark has
		// made a full lap in the ARU field: quiesce. maybeResume restarts
		// the circulation on new work.
		e.paused = true
		acts = append(acts, core.CancelTimer{Kind: core.TimerTokenRetrans})
		e.retransArmed = false
	} else {
		acts = e.circulate(acts, voteMin)
	}
	acts = e.armLiveness(acts)
	acts = e.armExpansion(acts)
	return acts
}

// circulate assigns new instances, repairs assignment loss, and opens the
// next circulation.
func (e *Engine) circulate(acts []core.Action, voteMin uint64) []core.Action {
	// Repair: a vote short of the window means some member is missing
	// assignments — re-multicast a slice of the window above the vote.
	if voteMin < e.high {
		end := voteMin + uint64(e.cfg.Flow.PersonalWindow)
		if end > e.high {
			end = e.high
		}
		acts = append(acts, e.reassignRange(voteMin+1, end)...)
	}

	// Assign fresh values from the pool, within the instance window.
	batch := e.assignBatch()
	if len(batch) > 0 {
		base := e.high - uint64(len(batch)) + 1
		acts = append(acts, e.assignFrame(base, batch))
	}

	tok := e.buildToken()
	e.awaitReturn = true
	e.px.Phase2Circulations++
	return e.sendTokenTo(e.successor(), tok, acts)
}

// reassignRange re-multicasts the (dense) assignment window [lo, hi].
func (e *Engine) reassignRange(lo, hi uint64) []core.Action {
	if hi < lo {
		return nil
	}
	keys := make([]valKey, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		ent, ok := e.log[i]
		if !ok {
			break // window not dense here (should not happen); stop clean
		}
		keys = append(keys, ent.key)
	}
	if len(keys) == 0 {
		return nil
	}
	e.stats.MsgsRetransmitted++
	return []core.Action{e.assignFrame(lo, keys)}
}

// assignBatch drains the pool into consecutive fresh instances. Fresh
// assignment requires the coordinator to be fully caught up (delivered ==
// decided): only then is its per-proposer delivery history complete, and
// the nextAssign floor provably excludes every value that was ever
// decided — the invariant that keeps any value from being decided at two
// instances. Per-proposer order is preserved; proposers are interleaved
// in ascending ID order for determinism.
func (e *Engine) assignBatch() []valKey {
	if !e.provenRing {
		// Unproven view-0 ring (see the field comment): circulate an
		// empty probe first; assignment resumes once it returns.
		return nil
	}
	if e.delivered != e.decided || e.poolSize == 0 {
		return nil
	}
	budget := e.cfg.Flow.PersonalWindow
	window := e.decided + uint64(e.cfg.Flow.MaxSeqGap)
	if e.high >= window {
		return nil
	}
	if room := window - e.high; uint64(budget) > room {
		budget = int(room)
	}

	pids := make([]wire.ParticipantID, 0, len(e.pool))
	for p := range e.pool {
		pids = append(pids, p)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })

	var keys []valKey
	for len(keys) < budget {
		assignedAny := false
		for _, p := range pids {
			if len(keys) >= budget {
				break
			}
			sp := e.pool[p]
			next := e.freshAssignFloor(p)
			prop, ok := sp[next]
			if !ok {
				// Drop pool entries below the floor (already assigned or
				// delivered through another path).
				for s := range sp {
					if s < next {
						delete(sp, s)
						e.poolSize--
					}
				}
			}
			if !ok {
				// Incarnation jump: the proposer restarted, so its new
				// incarnation's first value (counter 1) sits above a gap
				// the dead incarnation can never fill. Jump the floor to
				// it and drop whatever is pooled in between — those
				// values are above the floor, hence provably never
				// decided, so skipping them cannot reorder or duplicate
				// anything; their proposer is gone, so holding them would
				// stall this proposer's pool forever.
				if head, found := incarnationHead(sp, next); found {
					for s := range sp {
						if s < head {
							delete(sp, s)
							e.poolSize--
						}
					}
					next = head
					prop, ok = sp[next]
				}
			}
			if !ok {
				continue
			}
			k := valKey{pid: p, seq: next}
			e.values[k] = prop
			delete(sp, next)
			e.poolSize--
			e.nextAssign[p] = next + 1
			keys = append(keys, k)
			assignedAny = true
		}
		if !assignedAny {
			break
		}
	}
	if len(keys) == 0 {
		return nil
	}
	if TestMutateAssignOrder.Load() && len(keys) >= 2 {
		keys[0], keys[1] = keys[1], keys[0]
	}
	// Accept locally: the coordinator is an acceptor too.
	for _, k := range keys {
		e.high++
		e.log[e.high] = entry{key: k, view: e.view}
		e.assignCirc[e.high] = e.circ
		e.markAssigned(k)
	}
	e.px.AssignBatches++
	return keys
}

// freshAssignFloor is the smallest proposer sequence of p that may be
// freshly assigned: above everything delivered and everything currently
// assigned in the window.
func (e *Engine) freshAssignFloor(p wire.ParticipantID) uint64 {
	f := e.lastDelivered[p] + 1
	if n := e.nextAssign[p]; n > f {
		f = n
	}
	return f
}

// incarnationHead returns the smallest pooled sequence that starts an
// incarnation newer than the floor's (counter exactly 1), if any. A
// counter above 1 means the new incarnation's earlier values are still in
// flight — the live proposer retransmits them, so waiting is correct;
// only a counter-1 head proves the pool can resume in proposer order.
func incarnationHead(sp map[uint64]*proposal, floor uint64) (uint64, bool) {
	var best uint64
	found := false
	for s := range sp {
		if s > floor && incOf(s) > incOf(floor) && uint32(s) == 1 {
			if !found || s < best {
				best = s
				found = true
			}
		}
	}
	return best, found
}

// maybeResume restarts a paused circulation when the coordinator has new
// work: pooled values, an unfinished window, or undelivered decisions.
func (e *Engine) maybeResume(acts []core.Action) []core.Action {
	if !e.isCoordinator() || e.inViewChange || !e.paused {
		return acts
	}
	if e.poolSize == 0 && e.high <= e.decided && e.delivered >= e.decided {
		return acts
	}
	e.paused = false
	e.idleCircs = 0
	if len(e.active) == 1 {
		return e.soloRounds(acts)
	}
	acts = e.circulate(acts, e.high)
	acts = e.armLiveness(acts)
	return acts
}

// soloRounds handles the degenerate single-member active ring: the
// coordinator is the entire quorum, so assignment is decision. Loops
// until the pool is drained, then pauses again.
func (e *Engine) soloRounds(acts []core.Action) []core.Action {
	for {
		e.circ++
		batch := e.assignBatch()
		if len(batch) > 0 {
			base := e.high - uint64(len(batch)) + 1
			acts = append(acts, e.assignFrame(base, batch))
		}
		prev := e.decided
		acts = e.advanceDecided(e.high, acts)
		e.px.QuorumDecides += e.decided - prev
		if len(batch) == 0 {
			break
		}
	}
	e.paused = true
	return acts
}
