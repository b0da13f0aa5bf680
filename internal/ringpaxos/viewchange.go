package ringpaxos

import (
	"sort"

	"accelring/internal/core"
	"accelring/internal/wire"
)

// Phase 1 (view change). Any member whose liveness timeout fires with
// outstanding work initiates a change to the next view: it promises the
// view and multicasts a Phase 1b report (its decided watermark plus every
// assignment it has accepted in the report window). The view's
// coordinator-elect — members[view mod n] — collects reports; once a
// majority (its own included) is in, it installs the view:
//
//   - The reporters become the active ring (they are provably alive, and
//     a majority of them is exactly the quorum Phase 2 needs).
//   - The merged reports reconstruct the log: per instance, the
//     highest-view accepted assignment wins — classic Paxos Phase 1,
//     with the decision quorum (the old active ring) guaranteed to
//     intersect the report majority.
//   - The undecided window above the merged decided watermark is
//     re-assigned in the new view; unreported slots are filled with noop
//     values so the decided watermark can pass them. Duplicate keys in
//     the window (an old assignment superseded after a partial view
//     change) keep the highest-view slot and noop the rest, preserving
//     the no-double-decide invariant delivery relies on.
//
// If the install does not arrive in time (the elect died too), the
// ConsensusTimeout retries with the next view, rotating the elect.
func (e *Engine) initiateViewChange(target uint64) []core.Action {
	if target <= e.promised {
		target = e.promised + 1
	}
	e.inViewChange = true
	e.vcView = target
	e.promised = target
	for p := range e.vcReports {
		delete(e.vcReports, p)
	}
	// A view change aborts any circulation in flight.
	e.awaitReturn = false
	e.sentToken = nil
	e.paused = false
	e.idleCircs = 0
	e.px.Phase1Rounds++

	var acts []core.Action
	acts = append(acts, e.reportFrame(target))
	if e.coordinatorOf(target) == e.cfg.MyID {
		e.vcReports[e.cfg.MyID] = e.localReport()
		acts = e.maybeInstall(acts)
	}
	acts = append(acts, core.SetTimer{Kind: core.TimerConsensus, After: e.cfg.ConsensusTimeout})
	if !e.nackArmed {
		e.nackArmed = true
		acts = append(acts, core.SetTimer{Kind: core.TimerJoin, After: e.cfg.JoinPeriod})
	}
	return acts
}

// viewChangePacing is the JoinPeriod tick while a view change is in
// progress: keep the report flowing until the install (or the retry).
func (e *Engine) viewChangePacing() []core.Action {
	e.nackArmed = true
	return []core.Action{
		e.reportFrame(e.vcView),
		core.SetTimer{Kind: core.TimerJoin, After: e.cfg.JoinPeriod},
	}
}

// localReport builds this member's Phase 1b report: everything accepted in
// (decided, decided+MaxSeqGap].
func (e *Engine) localReport() *report {
	r := &report{decided: e.decided, high: e.high}
	limit := e.decided + uint64(e.cfg.Flow.MaxSeqGap)
	for i := e.decided + 1; i <= limit && i <= e.high; i++ {
		if ent, ok := e.log[i]; ok {
			r.entries = append(r.entries, reportEntry{instance: i, view: ent.view, key: ent.key})
		}
	}
	return r
}

// handleReport processes a received Phase 1b report.
func (e *Engine) handleReport(from wire.ParticipantID, view uint64, p []byte) []core.Action {
	r, ok := parseReport(p)
	if !ok {
		return nil
	}
	var acts []core.Action
	switch {
	case view > e.promised:
		// Someone is ahead of us: join their view change.
		acts = e.initiateViewChange(view)
	case e.inViewChange && view == e.vcView:
		// Already in it.
	case !e.inViewChange && view <= e.view:
		// A straggler still reporting for an installed view: re-multicast
		// the installation so it can rejoin.
		if e.isCoordinator() {
			acts = append(acts, e.installFrame(e.view, e.active))
		}
		return acts
	default:
		return nil
	}
	if e.inViewChange && e.vcView == view && e.coordinatorOf(view) == e.cfg.MyID {
		e.vcReports[from] = r
		acts = e.maybeInstall(acts)
	}
	return acts
}

// maybeInstall installs the pending view once a majority has reported.
func (e *Engine) maybeInstall(acts []core.Action) []core.Action {
	if len(e.vcReports) < e.major {
		return acts
	}
	view := e.vcView

	reporters := make([]wire.ParticipantID, 0, len(e.vcReports))
	for p := range e.vcReports {
		reporters = append(reporters, p)
	}
	sort.Slice(reporters, func(i, j int) bool { return reporters[i] < reporters[j] })

	// Merge: per instance, the highest-view accepted assignment wins.
	merged := make(map[uint64]entry)
	var dStar, hStar uint64
	for _, r := range e.vcReports {
		if r.decided > dStar {
			dStar = r.decided
		}
		if r.high > hStar {
			hStar = r.high
		}
		for _, ent := range r.entries {
			if cur, ok := merged[ent.instance]; !ok || ent.view > cur.view {
				merged[ent.instance] = entry{key: ent.key, view: ent.view}
			}
		}
	}
	if hStar < dStar {
		hStar = dStar
	}

	// Key dedup across the merged log: for each key, the highest-view
	// occurrence is the live one (induction: later coordinators always
	// noop superseded duplicates). Losing occurrences above the decided
	// watermark are nooped; at or below it they are decided and kept
	// (defensive — the invariant says this cannot happen).
	type occ struct {
		instance uint64
		view     uint64
	}
	best := make(map[valKey]occ)
	for inst, ent := range merged {
		if ent.key.pid == 0 {
			continue
		}
		cur, ok := best[ent.key]
		if !ok || ent.view > cur.view || (ent.view == cur.view && inst < cur.instance) {
			best[ent.key] = occ{instance: inst, view: ent.view}
		}
	}

	// Adopt the merged decided prefix (keeping reported views: these
	// instances are settled and never voted on again), then re-assign the
	// window (dStar, hStar] in the new view.
	for inst, ent := range merged {
		if inst <= e.decided {
			continue
		}
		if inst <= dStar {
			if cur, ok := e.log[inst]; !ok || cur.view < ent.view {
				e.log[inst] = ent
			}
		}
	}
	e.nextAssign = make(map[wire.ParticipantID]uint64)
	winKeys := make([]valKey, 0, hStar-dStar)
	for inst := dStar + 1; inst <= hStar; inst++ {
		ent, ok := merged[inst]
		if ok && ent.key.pid != 0 {
			if b := best[ent.key]; b.instance != inst {
				ent = entry{} // superseded duplicate: noop this slot
			}
		} else if !ok {
			ent = entry{} // never reported: provably undecided, noop
		}
		ent.view = view
		e.log[inst] = ent
		winKeys = append(winKeys, ent.key)
		if ent.key.pid != 0 {
			if n := e.nextAssign[ent.key.pid]; ent.key.seq+1 > n {
				e.nextAssign[ent.key.pid] = ent.key.seq + 1
			}
		}
	}

	if dStar > e.decided {
		e.decided = dStar
	}
	e.high = hStar
	e.installActiveRing(view, reporters)
	e.inViewChange = false
	e.provenRing = true // a majority of Phase 1 reports proves this view
	e.circ = 0
	e.lastTokSeq = 0
	e.px.ViewInstalls++
	for p := range e.vcReports {
		delete(e.vcReports, p)
	}

	acts = append(acts, core.CancelTimer{Kind: core.TimerConsensus})
	acts = append(acts, e.installFrame(view, e.active))
	if len(winKeys) > 0 {
		acts = append(acts, e.assignFrame(dStar+1, winKeys))
	}

	// Re-feed own unordered submissions to the (new) pool.
	for _, k := range e.myPendOrd {
		if e.myPending[k] {
			e.offerToPool(k)
		}
	}

	acts = e.advanceDelivery(acts)
	if len(e.active) == 1 {
		acts = e.soloRounds(acts)
	} else {
		acts = e.circulate(acts, e.high)
	}
	if e.deliveryGap() {
		acts = append(acts, e.nackFrame(false))
	}
	acts = e.armLiveness(acts)
	acts = e.armPacing(acts)
	return acts
}

// handleInstall applies a view installation multicast by its coordinator.
func (e *Engine) handleInstall(from wire.ParticipantID, view uint64, p []byte) []core.Action {
	decided, active, ok := parseInstall(p)
	if !ok || len(active) < e.major || view < e.promised {
		return nil
	}
	if view == e.view && !e.inViewChange {
		return nil // duplicate of the view we are already in
	}
	if from != e.coordinatorOf(view) {
		return nil
	}
	e.installActiveRing(view, active)
	e.inViewChange = false
	e.provenRing = true // Phase-1-installed views are proven
	e.lastTokSeq = 0
	e.awaitReturn = false
	e.sentToken = nil
	e.paused = false
	e.idleCircs = 0
	e.px.ViewInstalls++
	for p := range e.vcReports {
		delete(e.vcReports, p)
	}

	acts := []core.Action{core.CancelTimer{Kind: core.TimerConsensus}}
	acts = e.advanceDecided(decided, acts)
	if e.deliveryGap() {
		acts = append(acts, e.nackFrame(false))
	}
	acts = e.armLiveness(acts)
	acts = e.armPacing(acts)
	return acts
}
