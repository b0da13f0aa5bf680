// Package ringpaxos implements Ring Paxos (Marandi, Primi, Schiper &
// Pedone, "Ring Paxos: A High-Throughput Atomic Broadcast Protocol") as a
// second ordering engine behind this repository's engine ⇄ runtime
// contract (core.OrderingEngine). Proposals travel as data frames, the
// ring-circulated Phase 2 ack as the token frame, and the protocol's
// control messages as engine-opaque control frames (messages.go) — so it
// runs over memnet, netsim and udpnet unmodified.
//
// Protocol shape, mapped onto the paper:
//
//   - The member set is static (Start's list) and doubles as the
//     acceptor set. A view (the paper's "ring configuration", a Paxos
//     ballot) has a coordinator — members[view mod n] — and an active
//     ring: the ≥-majority subset of members that answered the view's
//     Phase 1. The ring IS the quorum: every active-ring member must
//     accept an instance before it is decided (the paper's c-coordinator /
//     ring-of-acceptors arrangement, with quorum = ring ⊇ majority).
//   - Proposers ip-multicast values to everyone (one data frame per
//     value). The coordinator assigns values to consecutive consensus
//     instances and multicasts compact assignment batches (Phase 2a:
//     instance → value-id, not the value bytes again). The Phase 2b acks
//     circulate on the ring inside the token frame: each member extends
//     its accepted prefix and min-aggregates it into the token; when the
//     token returns to the coordinator, the minimum is the new decided
//     watermark, published in the next token's ARU field. Learners
//     deliver decided instances in order.
//   - Failure of the coordinator or an active-ring member breaks the
//     circulation; liveness timeouts trigger Phase 1 for the next view
//     (viewchange.go), which re-collects accepted state from a majority,
//     re-proposes the undecided window, and installs a fresh active ring
//     of the responders. Lagging or restarted learners catch up via the
//     token's retransmission-request list and multicast nacks.
//
// The engine makes no Extended Virtual Synchrony view guarantees: it
// delivers exactly one configuration event (the static membership) per
// incarnation and never delivers transitional configurations. Safe
// service is delivered on decision (majority-stable), not on all-member
// stability. The evscheck ProfileTotalOrder waives exactly those axioms;
// docs/PROTOCOL.md's engine appendix has the full table.
package ringpaxos

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"accelring/internal/core"
	"accelring/internal/engine"
	"accelring/internal/wire"
)

// maxReportEntries bounds the accepted-suffix entries one Phase 1b report
// can carry: each entry is 28 bytes ({instance, view, key}) plus a
// 28-byte header, and 28 + 28*2300 = 64428 fits wire.MaxPayload (65024).
// The undecided window is clamped below it so a report never needs
// truncation — see the safety note in viewchange.go.
const maxReportEntries = 2300

// perTokenRTRAnswers caps how many retransmission requests one node
// answers per token (each answer is an assignment frame plus a value
// frame), keeping the catch-up bandwidth bounded.
const perTokenRTRAnswers = 32

// perTokenRTRAdds caps how many missing instances one node appends to the
// token's request list per circulation.
const perTokenRTRAdds = 128

// idlePauseCirculations is how many consecutive no-work circulations the
// coordinator completes before pausing the ring. Two guarantees that the
// final decided watermark made one full lap in the ARU field first, so
// every active member delivered everything before the ring goes quiet.
const idlePauseCirculations = 2

// valKey identifies one proposed value: proposer and proposer-local
// 64-bit submission sequence. The sequence's high 32 bits are the
// proposer's incarnation (core.Config.Incarnation, stamped per process
// start) and the low 32 bits its submission counter, so a restarted
// proposer — whose counter restarts at zero — can never reissue a key its
// previous incarnation already used. The packed comparison order
// (incarnation first, counter second) matches submission chronology, so
// every ordering rule keyed on seq carries over unchanged.
type valKey struct {
	pid wire.ParticipantID
	seq uint64
}

// incOf extracts the incarnation half of a proposer sequence.
func incOf(seq uint64) uint32 { return uint32(seq >> 32) }

// proposal is one value awaiting or holding an instance assignment.
type proposal struct {
	service wire.Service
	payload []byte
}

// entry is one instance's accepted assignment.
type entry struct {
	key  valKey
	view uint64 // view in which the assignment was accepted, or decidedView
}

// decidedView marks an entry learned from a catch-up answer: the decided
// value itself, not an acceptance. It outranks every real view, so no
// assignment replaces it and a Phase 1 report of it wins the merge.
const decidedView = math.MaxUint64

// Engine is a Ring Paxos participant. Deterministic single-goroutine
// state machine per the core.OrderingEngine contract.
type Engine struct {
	cfg     core.Config
	ringID  wire.RingID
	members []wire.ParticipantID // full static member set, ascending
	n       int
	major   int // majority of the full member set

	started bool

	// View state.
	view        uint64
	promised    uint64 // highest view promised; ≥ view
	coordinator wire.ParticipantID
	active      []wire.ParticipantID // the view's ring (ascending); ⊇ majority
	myActiveIdx int                  // index in active, -1 when off-ring

	// Phase 1 state (viewchange.go).
	inViewChange bool
	vcView       uint64
	vcReports    map[wire.ParticipantID]*report
	vcCatchUp    uint64 // elect only: decided watermark it is fetching values up to

	// Instance log. Instances are 1-based; log holds accepted assignments
	// (sparse below the decided watermark after a view change or restart),
	// values holds proposal bytes keyed by value id.
	log       map[uint64]entry
	values    map[valKey]*proposal
	high      uint64 // highest instance known assigned (token Seq field)
	decided   uint64 // instances ≤ decided are decided
	delivered uint64 // instances ≤ delivered are delivered (or skipped)
	staleHigh uint64 // entries accepted before the current view lie ≤ staleHigh

	// Delivery dedup: the highest proposer-sequence delivered per
	// proposer. A value re-assigned after a view change (its first
	// assignment was invisible to the new coordinator) is delivered once —
	// every learner walks the same instance sequence, so the skip rule is
	// identical everywhere.
	lastDelivered map[wire.ParticipantID]uint64

	// Proposer state: own submissions not yet observed assigned, in
	// submission order (retransmitted on a TimerJoin pace until assigned).
	// mySeq starts at Incarnation<<32 so every incarnation's keys are
	// disjoint (see valKey).
	mySeq      uint64
	myPending  map[valKey]bool
	myPendOrd  []valKey // myPending in submission order
	maxPending int

	// Coordinator state: per-proposer holdback pools so values are
	// assigned in proposer order, plus the next sequence to assign.
	pool       map[wire.ParticipantID]map[uint64]*proposal
	poolSize   int
	nextAssign map[wire.ParticipantID]uint64

	// Phase 2 circulation state.
	circ         uint64 // coordinator's circulation counter (token TokenSeq)
	lastTokSeq   uint64
	awaitReturn  bool        // coordinator sent a token and awaits its return
	sentToken    *wire.Token // saved for retransmission
	sentTokenTo  wire.ParticipantID
	sentRetrans  int // retransmissions of sentToken so far
	retransArmed bool
	liveArmed    bool
	liveMark     uint64 // progress marker at the last liveness (re-)arm
	paused       bool   // coordinator paused an idle ring
	// provenRing gates fresh assignment on evidence that the active ring
	// really is at this view. Views installed by Phase 1 are proven by
	// the majority of reports; the implicit view 0 from Start is
	// not — a restarted members[0] also boots believing it coordinates
	// view 0 while the real cluster is views ahead, and letting it assign
	// its pooled values at instance 1 would poison history the cluster
	// already decided. In view 0 the coordinator therefore sends one
	// empty probe circulation first: only a ring genuinely at view 0
	// returns it (everyone else rejects the stale token), so its return
	// proves fresh assignment is safe. A solo ring is proven at start —
	// there are no survivors that could hold conflicting state.
	provenRing bool
	idleCircs  int               // consecutive circulations with nothing to do
	assignCirc map[uint64]uint64 // instance → circulation it was assigned in
	gcFloor    uint64            // instances ≤ gcFloor are garbage-collected

	// Ring-expansion backoff: set when an off-ring member shows signs of
	// life; a TimerCommit fire folds it into one view change.
	expansionWanted bool
	expansionArmed  bool

	// Catch-up: TimerJoin also paces multicast nacks while a delivery gap
	// persists (off-ring learners have no token to put requests on).
	nackArmed bool

	scratch []engine.Action

	stats core.Stats
	px    Stats
}

// Config validation errors.
var (
	ErrNeedsMembers = errors.New("ringpaxos: static membership required")
)

// Interface conformance.
var _ core.OrderingEngine = (*Engine)(nil)

// New creates an engine. The config is the same struct the Accelerated
// Ring engine takes; the timer fields are reinterpreted per the table in
// the package comment (TokenLossTimeout = liveness, TokenRetransPeriod =
// token retransmit, JoinPeriod = proposal/nack/report pacing,
// ConsensusTimeout = view-change retry, CommitTimeout = ring-expansion
// delay), and Flow.PersonalWindow bounds assignments per circulation
// while Flow.MaxSeqGap (clamped to maxReportEntries) bounds the undecided
// window.
func New(cfg core.Config) (*Engine, error) {
	full := cfg
	if full.MyID == 0 {
		return nil, core.ErrNoID
	}
	// Reuse core's defaulting for timers, flow windows and backlog bounds.
	probe, err := core.New(full)
	if err != nil {
		return nil, fmt.Errorf("ringpaxos: %w", err)
	}
	cfg = probe.Snapshot().Config
	if cfg.Flow.MaxSeqGap > maxReportEntries {
		cfg.Flow.MaxSeqGap = maxReportEntries
	}
	e := &Engine{
		cfg:           cfg,
		log:           make(map[uint64]entry),
		values:        make(map[valKey]*proposal),
		lastDelivered: make(map[wire.ParticipantID]uint64),
		myPending:     make(map[valKey]bool),
		pool:          make(map[wire.ParticipantID]map[uint64]*proposal),
		nextAssign:    make(map[wire.ParticipantID]uint64),
		vcReports:     make(map[wire.ParticipantID]*report),
		assignCirc:    make(map[uint64]uint64),
		maxPending:    cfg.MaxPending,
		myActiveIdx:   -1,
		mySeq:         uint64(cfg.Incarnation) << 32,
	}
	return e, nil
}

// Snapshot implements core.OrderingEngine: the static configuration, the
// shared counter view (see the mapping notes on the fields it fills) and,
// as Extra, the Ring Paxos-specific Stats. Phase 1 (view change) reports as
// Gather, normal operation as Operational.
func (e *Engine) Snapshot() core.Snapshot {
	state := core.StateOperational
	if !e.started || e.inViewChange {
		state = core.StateGather
	}
	st := e.stats
	st.MembershipChanges = 1 + e.px.ViewInstalls
	px := e.px
	px.View = e.view
	px.Decided = e.decided
	px.Delivered = e.delivered
	return core.Snapshot{
		Config: e.cfg,
		State:  state,
		Ring:   engine.Configuration{ID: e.ringID, Members: append([]wire.ParticipantID(nil), e.members...)},
		Stats:  st,
		Extra:  px,
	}
}

// Progress implements core.OrderingEngine. Pending is this proposer's
// submitted-but-unassigned backlog. TokenPriority is constant: the Phase
// 2b ack should always be processed promptly (a held ack delays every
// decision a full extra circulation), and unlike the token ring there is
// no post-token sending phase whose receipt should outrank it.
func (e *Engine) Progress() core.Progress {
	return core.Progress{
		Rotations:     e.stats.TokensProcessed,
		Pending:       len(e.myPendOrd),
		TokenPriority: true,
	}
}

// Start installs the static member set and delivers the initial
// configuration. The ring starts quiescent: no token circulates until the
// first value needs ordering. Dynamic discovery (no member list) is not
// supported: Ring Paxos needs the static acceptor set to compute
// majorities.
func (e *Engine) Start(members []wire.ParticipantID) ([]engine.Action, error) {
	if len(members) == 0 {
		return nil, ErrNeedsMembers
	}
	// The same configuration identity the Accelerated Ring engine reports
	// for this member list.
	cfg, _, err := core.StaticConfiguration(members, e.cfg.MyID)
	if err != nil {
		return nil, fmt.Errorf("ringpaxos: %w", err)
	}
	e.members = cfg.Members
	e.n = len(e.members)
	e.major = e.n/2 + 1
	e.ringID = cfg.ID
	e.started = true
	e.installActiveRing(0, e.members)
	e.paused = true
	e.provenRing = e.n == 1
	return []engine.Action{engine.DeliverConfig{Config: cfg.Clone()}}, nil
}

// installActiveRing records a view's coordinator and active ring.
func (e *Engine) installActiveRing(view uint64, active []wire.ParticipantID) {
	prev := e.coordinator
	e.view = view
	e.staleHigh = e.high
	if view > e.promised {
		e.promised = view
	}
	e.coordinator = e.coordinatorOf(view)
	e.active = append(e.active[:0], active...)
	sort.Slice(e.active, func(i, j int) bool { return e.active[i] < e.active[j] })
	e.myActiveIdx = -1
	for i, m := range e.active {
		if m == e.cfg.MyID {
			e.myActiveIdx = i
		}
	}
	if prev != 0 && prev != e.coordinator {
		e.px.CoordinatorChanges++
	}
	if e.coordinator != e.cfg.MyID && e.poolSize > 0 {
		// The holdback pool is coordinator state. A demoted node (most
		// often a restarted impostor that briefly believed it coordinated
		// view 0) would otherwise carry it forever — nothing but a
		// coordinator drains it, so it would keep outstanding() true and
		// the failure detector armed on an idle ring. Dropping it is
		// safe: proposers retransmit unordered values, and the real
		// coordinator pools them on receipt.
		e.pool = make(map[wire.ParticipantID]map[uint64]*proposal)
		e.poolSize = 0
	}
}

// coordinatorOf returns the coordinator of a view: round-robin over the
// full member set, so every member eventually leads if its predecessors
// keep failing.
func (e *Engine) coordinatorOf(view uint64) wire.ParticipantID {
	return e.members[int(view%uint64(uint(e.n)))]
}

// successor returns the next active-ring member after this one.
func (e *Engine) successor() wire.ParticipantID {
	return e.active[(e.myActiveIdx+1)%len(e.active)]
}

// isCoordinator reports whether this participant leads the current view.
func (e *Engine) isCoordinator() bool { return e.coordinator == e.cfg.MyID }

// Submit queues one value for total ordering and returns its protocol
// output: the value multicast, and — on the coordinator — the assignment
// work it enables.
func (e *Engine) Submit(payload []byte, service wire.Service) ([]engine.Action, error) {
	if !e.started {
		return nil, ErrNeedsMembers
	}
	if !service.Valid() {
		return nil, fmt.Errorf("ringpaxos: invalid service %d", service)
	}
	if len(payload) > wire.MaxPayload {
		return nil, fmt.Errorf("ringpaxos: payload %d exceeds %d", len(payload), wire.MaxPayload)
	}
	if len(e.myPendOrd) >= e.maxPending {
		return nil, core.ErrBacklogFull
	}
	e.mySeq++
	k := valKey{pid: e.cfg.MyID, seq: e.mySeq}
	e.values[k] = &proposal{service: service, payload: payload}
	e.myPending[k] = true
	e.myPendOrd = append(e.myPendOrd, k)
	e.stats.MsgsSent++

	acts := append(e.scratch[:0], engine.SendData{Msg: e.proposalFrame(k, false)})
	if e.isCoordinator() && !e.inViewChange {
		for _, k := range e.myPendOrd {
			if e.myPending[k] {
				e.offerToPool(k)
			}
		}
		acts = e.maybeResume(acts)
		acts = e.armLiveness(acts)
	} else {
		// Liveness: a proposer with outstanding work must detect a dead
		// coordinator; the pacing timer retransmits unassigned proposals.
		acts = e.armLiveness(acts)
		acts = e.armPacing(acts)
	}
	e.scratch = acts[:0]
	return acts, nil
}

// proposalFrame builds the data frame carrying one value.
func (e *Engine) proposalFrame(k valKey, retrans bool) *wire.DataMessage {
	p := e.values[k]
	return &wire.DataMessage{
		RingID:  e.ringID,
		Seq:     wire.Seq(k.seq),
		PID:     k.pid,
		Retrans: retrans,
		Service: p.service,
		Payload: p.payload,
	}
}

// offerToPool hands a value to the coordinator's assignment pool
// (proposer-order holdback). Values already assigned or delivered are
// ignored.
func (e *Engine) offerToPool(k valKey) {
	if next, ok := e.nextAssign[k.pid]; ok && k.seq < next {
		return
	}
	sp := e.pool[k.pid]
	if sp == nil {
		sp = make(map[uint64]*proposal)
		e.pool[k.pid] = sp
	}
	if _, dup := sp[k.seq]; dup {
		return
	}
	if e.poolSize >= e.maxPending {
		return // proposer retransmits; the pool drains as instances decide
	}
	sp[k.seq] = e.values[k]
	e.poolSize++
}

// advanceDecided raises the decided watermark to d, learned in the current
// view, and delivers what it can.
func (e *Engine) advanceDecided(d uint64, acts []engine.Action) []engine.Action {
	if d > e.decided {
		if e.isCoordinator() {
			for i := e.decided + 1; i <= d; i++ {
				if c, ok := e.assignCirc[i]; ok {
					e.px.DecideRoundsSum += e.circ - c
					e.px.DecideRoundsCount++
					delete(e.assignCirc, i)
				}
			}
		}
		prev := e.decided
		e.decided = d
		if f := e.deliveryFloor(d); f > e.delivered {
			e.delivered = f
			e.gcFloor = f
			e.px.FastForwards++
		}
		// An acceptance from a view older than the current one may hold a
		// value the decision superseded (a cut-off coordinator's
		// assignment): drop it and catch up on the decided value instead,
		// which the coordinator that raised the watermark holds (see
		// maybeInstall). Entries below the watermark are therefore always
		// decided values, and in a steady view the walk is empty.
		for i := max(prev, e.delivered) + 1; i <= min(d, e.staleHigh); i++ {
			if ent, ok := e.log[i]; ok && ent.view < e.view {
				delete(e.log, i)
				acts = e.superseded(ent, acts)
			}
		}
	}
	return e.advanceDelivery(acts)
}

// deliveryFloor is the delivered watermark once decided reaches d. A fresh
// incarnation joining mid-stream, too far behind for catch-up (peers have
// garbage-collected the old values), starts delivering from inside the
// retention window. The no-double-decide invariant (see assignBatch) makes
// the skipped prefix irrecoverable but harmless — no skipped value can
// reappear later in the order.
func (e *Engine) deliveryFloor(d uint64) uint64 {
	retain := uint64(e.cfg.Flow.MaxSeqGap)
	if e.delivered == 0 && e.px.FastForwards == 0 && d > retain {
		return d - retain/2
	}
	return e.delivered
}

// advanceDelivery delivers decided instances in order, as far as local
// assignments and values allow. The per-proposer dedup skip is identical
// at every learner (same instance walk, same rule), so skipping preserves
// agreement.
func (e *Engine) advanceDelivery(acts []engine.Action) []engine.Action {
	for e.delivered < e.decided {
		i := e.delivered + 1
		ent, ok := e.log[i]
		if !ok {
			break
		}
		if ent.key.pid == 0 {
			// Noop gap filler from a view change: consumes the instance,
			// delivers nothing.
			e.delivered = i
			continue
		}
		p, ok := e.values[ent.key]
		if !ok {
			break
		}
		e.delivered = i
		if ent.key.seq <= e.lastDelivered[ent.key.pid] {
			e.px.DupSuppressed++
			continue
		}
		e.lastDelivered[ent.key.pid] = ent.key.seq
		if ent.key.pid == e.cfg.MyID {
			e.clearMyPending(ent.key)
		}
		e.stats.Delivered++
		if p.service.RequiresSafe() {
			e.stats.SafeDelivered++
		}
		acts = append(acts, engine.Deliver{Msg: &wire.DataMessage{
			RingID:  e.ringID,
			Seq:     wire.Seq(i),
			PID:     ent.key.pid,
			Service: p.service,
			Payload: p.payload,
		}})
	}
	e.gc()
	return acts
}

// clearMyPending drops one own value from the unassigned tracking.
func (e *Engine) clearMyPending(k valKey) {
	if !e.myPending[k] {
		return
	}
	delete(e.myPending, k)
	for i, q := range e.myPendOrd {
		if q == k {
			e.myPendOrd = append(e.myPendOrd[:i], e.myPendOrd[i+1:]...)
			break
		}
	}
}

// superseded handles an entry this node discards, or overwrites with
// another value, before delivering it: an own value in it is proposed
// again.
func (e *Engine) superseded(ent entry, acts []engine.Action) []engine.Action {
	if ent.key.pid == e.cfg.MyID && ent.key.seq > e.lastDelivered[e.cfg.MyID] {
		e.repend(ent.key)
		acts = e.armPacing(acts)
	}
	return acts
}

// repend puts own value k back among the unassigned: retransmitted by the
// pacing timer in submission order, and pooled if this node coordinates.
func (e *Engine) repend(k valKey) {
	if _, ok := e.values[k]; !ok || e.myPending[k] {
		return
	}
	e.myPending[k] = true
	i := sort.Search(len(e.myPendOrd), func(i int) bool { return e.myPendOrd[i].seq > k.seq })
	e.myPendOrd = slices.Insert(e.myPendOrd, i, k)
	if e.isCoordinator() && !e.inViewChange {
		e.offerToPool(k)
	}
}

// markAssigned notes that a proposer's value was assigned (observed in an
// assignment batch): the proposer stops retransmitting it.
func (e *Engine) markAssigned(k valKey) {
	if k.pid == e.cfg.MyID {
		e.clearMyPending(k)
	}
}

// gc discards values every learner this node can still help has
// delivered. Retention below the delivered watermark is one undecided
// window: laggards further behind recover via other members or, beyond
// everyone's retention, fast-forward (see advanceDecided). The cursor
// makes each call incremental rather than a full log scan.
func (e *Engine) gc() {
	retain := uint64(e.cfg.Flow.MaxSeqGap)
	if e.delivered <= retain {
		return
	}
	floor := e.delivered - retain
	for i := e.gcFloor + 1; i <= floor; i++ {
		if ent, ok := e.log[i]; ok {
			if ent.key.pid != 0 {
				delete(e.values, ent.key)
			}
			delete(e.log, i)
			e.stats.Discarded++
		}
	}
	e.gcFloor = floor
}

// outstanding reports whether protocol work is pending from this node's
// perspective — the condition under which liveness timers stay armed and
// the coordinator keeps the token circulating.
func (e *Engine) outstanding() bool {
	return e.high > e.decided || e.delivered < e.decided ||
		len(e.myPendOrd) > 0 || e.poolSize > 0
}

// armLiveness arms the coordinator-failure detector iff work is pending.
//
// The runtime's SetTimer resets the countdown, so re-issuing it on every
// call would let any periodic activity — the 20ms pacing tick, a stream
// of incoming proposals — push the deadline out forever and starve
// failure detection exactly when the coordinator is dead. The deadline is
// therefore extended only when the engine observed ordering progress
// (decides or token arrivals) since the last arm: a live coordinator
// keeps resetting it for free, a dead one lets it expire.
func (e *Engine) armLiveness(acts []engine.Action) []engine.Action {
	if e.inViewChange {
		return acts
	}
	if e.outstanding() {
		mark := e.decided + e.px.Phase2Tokens
		if e.liveArmed && mark == e.liveMark {
			return acts // no progress since arming: let the detector run out
		}
		e.liveArmed = true
		e.liveMark = mark
		return append(acts, engine.SetTimer{Kind: engine.TimerTokenLoss, After: e.cfg.TokenLossTimeout})
	}
	if e.liveArmed {
		e.liveArmed = false
		return append(acts, engine.CancelTimer{Kind: engine.TimerTokenLoss})
	}
	return acts
}

// armPacing arms the JoinPeriod pacing timer when this node has proposals
// to retransmit or a delivery gap to nack about.
func (e *Engine) armPacing(acts []engine.Action) []engine.Action {
	want := len(e.myPendOrd) > 0 || e.deliveryGap()
	if want && !e.nackArmed {
		e.nackArmed = true
		return append(acts, engine.SetTimer{Kind: engine.TimerJoin, After: e.cfg.JoinPeriod})
	}
	return acts
}

// deliveryGap reports whether this node knows of decided instances it has
// not been able to deliver (missing assignment or value).
func (e *Engine) deliveryGap() bool { return e.delivered < e.decided }

// armExpansion schedules the deferred ring-expansion view change when an
// off-ring member has shown signs of life.
func (e *Engine) armExpansion(acts []engine.Action) []engine.Action {
	if e.expansionWanted && !e.expansionArmed && e.isCoordinator() && !e.inViewChange {
		e.expansionArmed = true
		return append(acts, engine.SetTimer{Kind: engine.TimerCommit, After: e.cfg.CommitTimeout})
	}
	return acts
}

// handleTimer dispatches the engine's five timer kinds.
func (e *Engine) handleTimer(kind engine.TimerKind) []engine.Action {
	switch kind {
	case engine.TimerTokenLoss:
		e.liveArmed = false
		if e.inViewChange || !e.outstanding() {
			return nil
		}
		// The coordinator is unresponsive (or we are the coordinator and
		// the ring is broken): start Phase 1 for the next view.
		return e.initiateViewChange(e.promised + 1)
	case engine.TimerTokenRetrans:
		e.retransArmed = false
		// Not gated on paused, which every member starts with: that
		// silenced non-coordinators in view 0, so one lost token cost a
		// view change. A paused coordinator holds no sentToken.
		if e.inViewChange || e.sentToken == nil {
			return nil
		}
		if e.sentRetrans >= maxTokenRetrans {
			// Give up; if work is outstanding the liveness timeout takes
			// over (view change), otherwise the loss is harmless.
			e.sentToken = nil
			return nil
		}
		e.sentRetrans++
		e.stats.TokenRetransmits++
		tok := e.sentToken.Clone()
		e.retransArmed = true
		return []engine.Action{
			engine.Send{To: e.sentTokenTo, Frame: tok},
			engine.SetTimer{Kind: engine.TimerTokenRetrans, After: e.cfg.TokenRetransPeriod},
		}
	case engine.TimerJoin:
		e.nackArmed = false
		return e.pacingFire()
	case engine.TimerConsensus:
		if !e.inViewChange {
			return nil
		}
		// The view we were forming did not install (its coordinator-elect
		// may be the next casualty): try the following view.
		return e.initiateViewChange(e.promised + 1)
	case engine.TimerCommit:
		e.expansionArmed = false
		if e.expansionWanted && !e.inViewChange && e.isCoordinator() {
			e.expansionWanted = false
			return e.initiateViewChange(e.promised + 1)
		}
		e.expansionWanted = false
		return nil
	}
	return nil
}

// pacingFire is the JoinPeriod tick outside view changes: retransmit
// unassigned own proposals and nack persistent delivery gaps.
func (e *Engine) pacingFire() []engine.Action {
	if e.inViewChange {
		// View-change report pacing is handled in viewchange.go.
		return e.viewChangePacing()
	}
	var acts []engine.Action
	const maxRetrans = 16
	for i, k := range e.myPendOrd {
		if i >= maxRetrans {
			break
		}
		if _, ok := e.values[k]; !ok {
			continue
		}
		e.stats.MsgsRetransmitted++
		acts = append(acts, engine.SendData{Msg: e.proposalFrame(k, true)})
	}
	if e.deliveryGap() {
		acts = append(acts, e.nackFrame(false))
	}
	acts = e.armPacing(acts)
	acts = e.armLiveness(acts)
	return acts
}
