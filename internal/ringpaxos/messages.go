package ringpaxos

import (
	"encoding/binary"

	"accelring/internal/core"
	"accelring/internal/wire"
)

// Ring Paxos control traffic travels in engine-opaque control frames
// (wire.Control): the runtime and the transports carry them without
// looking inside. The frame's Sub field is the control subkind and every
// body starts with the relevant view as a big-endian u64; the rest is
// documented on each frame builder below and pinned, with the subkind
// values, in docs/PROTOCOL.md §11:
//
//	subAssign  (1): coordinator → all. Phase 2a assignment batch.
//	subReport  (2): member → all. Phase 1b report for the view.
//	subNack    (3): lagging learner → all. Catch-up request.
//	subInstall (4): view coordinator → all. View installation.
//	subDecided (5): catch-up answer → all. One decided instance.
//
// Value frames are plain data frames: PID = proposer, Seq = the
// proposer's incarnation-tagged 64-bit submission sequence (see valKey).
// Noop slots (gap filler after a view change) use the reserved key pid 0
// and carry no value.
const (
	subAssign  = 1
	subReport  = 2
	subNack    = 3
	subInstall = 4
	subDecided = 5
)

// reportEntry is one accepted assignment in a Phase 1b report.
type reportEntry struct {
	instance uint64
	view     uint64
	key      valKey
}

// report is one member's parsed Phase 1b response.
type report struct {
	decided uint64
	high    uint64
	entries []reportEntry
}

var be = binary.BigEndian

func getU64(b []byte) uint64 { return be.Uint64(b) }
func getU32(b []byte) uint32 { return be.Uint32(b) }

// newBody starts a control body of n bytes after the leading view.
func newBody(view uint64, n int) []byte {
	return be.AppendUint64(make([]byte, 0, 8+n), view)
}

// control wraps a finished body in the send action for its frame.
func (e *Engine) control(sub uint8, body []byte) core.Action {
	return core.Send{Frame: &wire.Control{RingID: e.ringID, Sender: e.cfg.MyID, Sub: sub, Body: body}}
}

// keyWireSize is the encoded size of one valKey: proposer ID (u32) plus
// the 64-bit incarnation-tagged submission sequence.
const keyWireSize = 12

func appendKey(b []byte, k valKey) []byte {
	return be.AppendUint64(be.AppendUint32(b, uint32(k.pid)), k.seq)
}

func getKey(b []byte) valKey {
	return valKey{pid: wire.ParticipantID(getU32(b)), seq: getU64(b[4:])}
}

// assignFrame encodes a Phase 2a batch: count consecutive instances from
// base, in key order. The decided watermark rides along so off-ring
// learners (who never see the token) still learn decisions.
func (e *Engine) assignFrame(base uint64, keys []valKey) core.Action {
	b := newBody(e.view, 20+keyWireSize*len(keys))
	b = be.AppendUint64(b, e.decided)
	b = be.AppendUint64(b, base)
	b = be.AppendUint32(b, uint32(len(keys)))
	for _, k := range keys {
		b = appendKey(b, k)
	}
	return e.control(subAssign, b)
}

// parseAssign decodes a Phase 2a batch (the body after the view).
func parseAssign(p []byte) (decided, base uint64, keys []valKey, ok bool) {
	if len(p) < 20 {
		return 0, 0, nil, false
	}
	n := int(getU32(p[16:]))
	if n < 0 || len(p) != 20+keyWireSize*n {
		return 0, 0, nil, false
	}
	keys = make([]valKey, n)
	for i := range keys {
		keys[i] = getKey(p[20+keyWireSize*i:])
	}
	return getU64(p), getU64(p[8:]), keys, true
}

// reportEntrySize is the encoded size of one reportEntry.
const reportEntrySize = 16 + keyWireSize

// reportFrame encodes this member's Phase 1b report for the given view:
// everything accepted in (decided, decided+MaxSeqGap] (localReport). The
// window invariant (high ≤ decided_coordinator + MaxSeqGap, enforced at
// assignment time in every view, and a member's decided at vote time is
// at most MaxSeqGap below any instance it voted for) guarantees every
// instance that may have been decided lies inside some majority
// reporter's window, so the cut-off above decided+MaxSeqGap never drops
// a decided entry — see the safety note on maxReportEntries.
func (e *Engine) reportFrame(view uint64) core.Action {
	r := e.localReport()
	b := newBody(view, 20+reportEntrySize*len(r.entries))
	b = be.AppendUint64(b, r.decided)
	b = be.AppendUint64(b, r.high)
	b = be.AppendUint32(b, uint32(len(r.entries)))
	for _, ent := range r.entries {
		b = be.AppendUint64(b, ent.instance)
		b = be.AppendUint64(b, ent.view)
		b = appendKey(b, ent.key)
	}
	return e.control(subReport, b)
}

// parseReport decodes a Phase 1b report (the body after the view).
func parseReport(p []byte) (*report, bool) {
	if len(p) < 20 {
		return nil, false
	}
	n := int(getU32(p[16:]))
	if n < 0 || len(p) != 20+reportEntrySize*n {
		return nil, false
	}
	r := &report{decided: getU64(p), high: getU64(p[8:])}
	r.entries = make([]reportEntry, n)
	for i := range r.entries {
		off := 20 + reportEntrySize*i
		r.entries[i] = reportEntry{
			instance: getU64(p[off:]),
			view:     getU64(p[off+8:]),
			key:      getKey(p[off+16:]),
		}
	}
	return r, true
}

// nackFlagNeedInstall asks the coordinator to re-multicast the current
// view installation (set when the nacker's promised view lags traffic it
// has seen).
const nackFlagNeedInstall = 1

// maxNackInstances caps the instance list of one nack frame.
const maxNackInstances = 256

// nackFrame encodes a catch-up request: the instances in (delivered,
// decided] this node cannot deliver, plus optionally a view-install
// request.
func (e *Engine) nackFrame(needInstall bool) core.Action {
	var missing []uint64
	for i := e.delivered + 1; i <= e.decided && len(missing) < maxNackInstances; i++ {
		if !e.canDeliver(i) {
			missing = append(missing, i)
		}
	}
	b := newBody(e.view, 13+8*len(missing))
	var flags uint8
	if needInstall {
		flags = nackFlagNeedInstall
	}
	b = append(b, flags)
	b = be.AppendUint64(b, e.promised)
	b = be.AppendUint32(b, uint32(len(missing)))
	for _, inst := range missing {
		b = be.AppendUint64(b, inst)
	}
	return e.control(subNack, b)
}

// parseNack decodes a catch-up request (the body after the view).
func parseNack(p []byte) (needInstall bool, promised uint64, missing []uint64, ok bool) {
	if len(p) < 13 {
		return false, 0, nil, false
	}
	n := int(getU32(p[9:]))
	if n < 0 || n > maxNackInstances || len(p) != 13+8*n {
		return false, 0, nil, false
	}
	missing = make([]uint64, n)
	for i := range missing {
		missing[i] = getU64(p[13+8*i:])
	}
	return p[0]&nackFlagNeedInstall != 0, getU64(p[1:]), missing, true
}

// canDeliver reports whether instance i's assignment and value are both
// locally available (noop slots need no value).
func (e *Engine) canDeliver(i uint64) bool {
	ent, ok := e.log[i]
	if !ok {
		return false
	}
	if ent.key.pid == 0 {
		return true
	}
	_, ok = e.values[ent.key]
	return ok
}

// installFrame encodes the installation of a view: its active ring, plus
// the sender's decided watermark so a rejoiner immediately knows how far
// the log extends (off-ring members never see the token's ARU, and an
// idle ring may never send another frame).
func (e *Engine) installFrame(view uint64, active []wire.ParticipantID) core.Action {
	b := newBody(view, 12+4*len(active))
	b = be.AppendUint64(b, e.decided)
	b = be.AppendUint32(b, uint32(len(active)))
	for _, m := range active {
		b = be.AppendUint32(b, uint32(m))
	}
	return e.control(subInstall, b)
}

// parseInstall decodes a view installation (the body after the view).
func parseInstall(p []byte) (decided uint64, active []wire.ParticipantID, ok bool) {
	if len(p) < 12 {
		return 0, nil, false
	}
	n := int(getU32(p[8:]))
	if n < 0 || n > wire.MaxMembers || len(p) != 12+4*n {
		return 0, nil, false
	}
	active = make([]wire.ParticipantID, n)
	for i := range active {
		active[i] = wire.ParticipantID(getU32(p[12+4*i:]))
	}
	return getU64(p), active, true
}

// decidedFrame encodes a catch-up answer for one decided instance.
func (e *Engine) decidedFrame(i uint64) core.Action {
	ent := e.log[i]
	var val []byte
	var svc wire.Service
	if ent.key.pid != 0 {
		p := e.values[ent.key]
		val = p.payload
		svc = p.service
	}
	b := newBody(e.view, 25+len(val))
	b = be.AppendUint64(b, i)
	b = appendKey(b, ent.key)
	b = append(b, uint8(svc))
	b = be.AppendUint32(b, uint32(len(val)))
	b = append(b, val...)
	return e.control(subDecided, b)
}

// parseDecided decodes a catch-up answer (the body after the view). The
// returned value aliases p.
func parseDecided(p []byte) (instance uint64, key valKey, svc wire.Service, val []byte, ok bool) {
	if len(p) < 25 {
		return 0, valKey{}, 0, nil, false
	}
	if n := int(getU32(p[21:])); n < 0 || len(p) != 25+n {
		return 0, valKey{}, 0, nil, false
	}
	return getU64(p), getKey(p[8:]), wire.Service(p[20]), p[25:], true
}

// Step dispatches one input: a timer expiry, a Phase 2 token, a proposal
// (value frame) or one of the five control subkinds. Join and commit
// frames belong to another protocol and are ignored.
func (e *Engine) Step(in core.Input) []core.Action {
	if !e.started {
		return nil
	}
	switch f := in.Frame.(type) {
	case nil:
		return e.handleTimer(in.Timer)
	case *wire.Token:
		return e.handleToken(f)
	case *wire.DataMessage:
		if f.RingID != e.ringID || f.PID == e.cfg.MyID {
			return nil
		}
		e.stats.MsgsReceived++
		return e.handleValue(f)
	case *wire.Control:
		if f.RingID != e.ringID || f.Sender == e.cfg.MyID || len(f.Body) < 8 {
			return nil
		}
		e.stats.MsgsReceived++
		view, p := getU64(f.Body), f.Body[8:]
		switch f.Sub {
		case subAssign:
			return e.handleAssign(view, p)
		case subReport:
			return e.handleReport(f.Sender, view, p)
		case subNack:
			return e.handleNack(f.Sender, p)
		case subInstall:
			return e.handleInstall(f.Sender, view, p)
		case subDecided:
			return e.handleDecided(p)
		}
	}
	return nil
}

// handleValue stores a proposed value and, on the coordinator, feeds the
// assignment pool.
func (e *Engine) handleValue(m *wire.DataMessage) []core.Action {
	if m.PID == 0 || m.Seq == 0 {
		return nil
	}
	k := valKey{pid: m.PID, seq: uint64(m.Seq)}
	if _, ok := e.values[k]; ok {
		e.stats.MsgsDuplicate++
		return nil
	}
	if k.seq <= e.lastDelivered[k.pid] {
		e.stats.MsgsDuplicate++
		return nil
	}
	// Data frames are the engine's to keep (read-only): no copy.
	e.values[k] = &proposal{service: m.Service, payload: m.Payload}

	var acts []core.Action
	if e.isCoordinator() && !e.inViewChange {
		e.offerToPool(k)
		e.noteAlive(m.PID)
		acts = e.maybeResume(acts)
		acts = e.armExpansion(acts)
	}
	// The value may unblock a stalled delivery walk.
	acts = e.advanceDelivery(acts)
	acts = e.armLiveness(acts)
	return acts
}

// handleAssign applies a Phase 2a batch.
func (e *Engine) handleAssign(view uint64, p []byte) []core.Action {
	decided, base, keys, ok := parseAssign(p)
	if !ok {
		return nil
	}
	if view < e.view {
		e.px.StaleFrames++
		return nil
	}
	if view > e.promised || e.inViewChange {
		// We missed this view's installation: ask for it.
		if view > e.promised {
			return []core.Action{e.nackFrame(true)}
		}
		return nil
	}
	if view != e.view {
		return nil
	}
	var acts []core.Action
	for i, k := range keys {
		inst := base + uint64(i)
		if inst <= e.decided {
			continue
		}
		if ent, ok := e.log[inst]; ok && ent.view >= view {
			continue
		}
		e.log[inst] = entry{key: k, view: view}
		if inst > e.high {
			e.high = inst
		}
		e.markAssigned(k)
	}
	acts = e.advanceDecided(decided, acts)
	acts = e.armLiveness(acts)
	acts = e.armPacing(acts)
	return acts
}

// handleNack answers a catch-up request. To keep answer traffic bounded,
// regular nacks are answered only by the coordinator; a nack from the
// coordinator itself (catching up after taking over a view) is answered
// by every active-ring member — duplication across a handful of members
// is preferable to electing an answerer nobody can verify has the data.
func (e *Engine) handleNack(from wire.ParticipantID, p []byte) []core.Action {
	needInstall, promised, missing, ok := parseNack(p)
	if !ok || e.inViewChange {
		return nil
	}
	var acts []core.Action
	if e.isCoordinator() {
		if needInstall && promised < e.view {
			acts = append(acts, e.installFrame(e.view, e.active))
		}
		e.noteAlive(from)
	} else if from != e.coordinator || e.myActiveIdx < 0 {
		return nil
	}
	answered := 0
	for _, inst := range missing {
		if answered >= perTokenRTRAnswers {
			break
		}
		if inst <= e.decided && e.canDeliver(inst) {
			e.px.ValueRetransmits++
			acts = append(acts, e.decidedFrame(inst))
			answered++
		}
	}
	return e.armExpansion(acts)
}

// handleDecided applies a catch-up answer: the instance is decided at the
// answerer, hence decided.
func (e *Engine) handleDecided(p []byte) []core.Action {
	inst, k, svc, val, ok := parseDecided(p)
	if !ok || inst == 0 {
		return nil
	}
	if ent, have := e.log[inst]; !have || ent.key != k || inst > e.decided {
		e.log[inst] = entry{key: k, view: e.view}
	}
	if k.pid != 0 {
		if _, have := e.values[k]; !have && svc.Valid() {
			// val aliases the control frame, which is runtime scratch.
			e.values[k] = &proposal{service: svc, payload: append([]byte(nil), val...)}
		}
	}
	if inst > e.high {
		e.high = inst
	}
	var acts []core.Action
	acts = e.advanceDecided(inst, acts)
	acts = e.armLiveness(acts)
	acts = e.armPacing(acts)
	return acts
}

// noteAlive records evidence that a participant is alive. If it is not on
// the active ring, the coordinator schedules a ring-expansion view change
// (deferred by CommitTimeout so a burst of rejoin traffic folds into one
// change).
func (e *Engine) noteAlive(p wire.ParticipantID) {
	for _, a := range e.active {
		if a == p {
			return
		}
	}
	if len(e.active) == e.n {
		return
	}
	e.expansionWanted = true
}
