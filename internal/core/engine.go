// Package core implements the Accelerated Ring ordering protocol of Babay
// and Amir ("Fast Total Ordering for Modern Data Centers", ICDCS 2016),
// together with the Totem-style membership algorithm that gives it Extended
// Virtual Synchrony semantics, and the original Ring protocol baseline the
// paper compares against.
//
// The engine is a deterministic, single-goroutine state machine. It owns no
// sockets, timers or goroutines: every input (a decoded frame or a timer
// expiry through Step, an application submission through Submit) is a
// method call, and every output is a slice of Actions the caller must
// execute in order (the OrderingEngine contract, iface.go). The same
// engine code therefore runs over real UDP multicast sockets, an in-memory
// test transport, and the discrete-event network simulator used to
// regenerate the paper's figures.
package core

import (
	"fmt"
	"slices"

	"accelring/internal/engine"
	"accelring/internal/flowctl"
	"accelring/internal/msgbuf"
	"accelring/internal/wire"
)

// State is the engine's membership state.
type State uint8

// Engine states, following the Totem membership algorithm.
const (
	// StateGather: exchanging join messages to agree on a membership.
	StateGather State = iota + 1
	// StateCommit: circulating the commit token for a proposed ring.
	StateCommit
	// StateRecovery: exchanging old-ring messages on the new ring.
	StateRecovery
	// StateOperational: normal-case total ordering on an installed ring.
	StateOperational
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateGather:
		return "gather"
	case StateCommit:
		return "commit"
	case StateRecovery:
		return "recovery"
	case StateOperational:
		return "operational"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// submission is an application message waiting to be initiated.
type submission struct {
	payload []byte
	service wire.Service
}

// Engine is one protocol participant. It is not safe for concurrent use;
// the runtime that owns it must serialize all calls.
type Engine struct {
	cfg  Config
	flow *flowctl.Controller

	state         State
	tokenPriority bool

	// Current ring (the ring whose token circulates; during Recovery this
	// is already the ring being formed, even though the application-level
	// configuration change is delivered only when recovery completes).
	ring    engine.Configuration
	myIndex int
	buf     *msgbuf.Buffer

	// Application backlog (head-indexed queue).
	pending     []submission
	pendingHead int

	// accelWindow is the effective accelerated window; fixed at
	// Flow.AcceleratedWindow unless AdaptiveWindow is enabled.
	accelWindow int
	// cleanRounds counts consecutive token receipts without a
	// retransmission burst, for adaptive window increase.
	cleanRounds int

	// Operational/recovery per-ring state.
	round        wire.Round // hop count of the last token processed
	lastTokenSeq uint64     // highest TokenSeq accepted (duplicate filter)
	prevTokenSeq wire.Seq   // seq of the token received in the previous round
	aruSentLast  wire.Seq   // aru on the token forwarded last round
	safeBound    wire.Seq   // min(aru sent this round, aru sent last round)
	sentToken    *wire.Token

	// Per-round scratch, reused so the steady-state token round does not
	// allocate: newMsgsScratch backs handleRegularToken's new-message list
	// (only the *DataMessage pointers escape into actions, never the slice)
	// and packBatch backs nextOperationalMessage's packing batch (the
	// packed container itself is freshly allocated — it is retained in the
	// message buffer until stability).
	newMsgsScratch []*wire.DataMessage
	packBatch      [][]byte

	// Gather state.
	procSet map[wire.ParticipantID]bool
	failSet map[wire.ParticipantID]bool
	joins   map[wire.ParticipantID]*wire.JoinMessage
	// maxRingSeq is the largest ring sequence seen; the next ring formed is
	// it plus ringSeqIncrement. It starts at the incarnation's base, above
	// every sequence an earlier incarnation of this node can have seen, so
	// a fresh incarnation never forms a ring ID an earlier one formed or
	// delivered in (see Config.Incarnation).
	maxRingSeq uint64

	// Commit / Recovery state.
	pendingRing     engine.Configuration
	commitInfo      []wire.CommitMember
	oldRing         engine.Configuration
	oldBuf          *msgbuf.Buffer
	oldSafeBound    wire.Seq
	obligations     []*wire.DataMessage
	obligationsHead int
	markerSent      bool
	recoveryMarkers map[wire.ParticipantID]wire.Seq

	stats Stats
}

// New creates an engine. The engine starts idle: call Start with nil to
// begin membership formation, or with a member list to install a static
// ring (the paper's normal-case evaluation setup).
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Engine{
		cfg:           cfg,
		flow:          flowctl.NewController(cfg.Flow),
		accelWindow:   cfg.Flow.AcceleratedWindow,
		tokenPriority: true,
		maxRingSeq:    cfg.ringSeqBase(),
	}, nil
}

// pendingLen returns the number of submitted-but-uninitiated messages.
func (e *Engine) pendingLen() int { return len(e.pending) - e.pendingHead }

// Submit queues an application message for totally ordered multicast. The
// message will be initiated on a future token visit, ordered, and delivered
// back to all ring members (including this one). Submit fails when the
// backlog is full, providing backpressure. It never returns actions: the
// token ring sends only while holding the token.
func (e *Engine) Submit(payload []byte, service wire.Service) ([]engine.Action, error) {
	if !service.Valid() {
		return nil, fmt.Errorf("core: invalid service %d", uint8(service))
	}
	if len(payload) > wire.MaxPayload {
		return nil, fmt.Errorf("core: payload %d exceeds maximum %d", len(payload), wire.MaxPayload)
	}
	if e.pendingLen() >= e.cfg.MaxPending {
		return nil, ErrBacklogFull
	}
	// FIFO and Causal are provided via the Agreed machinery: the token
	// ring's total order respects causality (Section II).
	if service == wire.ServiceFIFO || service == wire.ServiceCausal {
		service = wire.ServiceAgreed
	}
	e.pending = append(e.pending, submission{payload: payload, service: service})
	return nil, nil
}

// popPending removes and returns the oldest backlog entry. The caller must
// ensure the backlog is non-empty.
func (e *Engine) popPending() submission {
	s := e.pending[e.pendingHead]
	e.pending[e.pendingHead] = submission{} // release payload
	e.pendingHead++
	if e.pendingHead > 64 && e.pendingHead*2 >= len(e.pending) {
		n := copy(e.pending, e.pending[e.pendingHead:])
		e.pending = e.pending[:n]
		e.pendingHead = 0
	}
	return s
}

// Start begins operation. With no member list it starts membership
// formation from scratch: the engine multicasts join messages and will
// eventually install a ring — a singleton one if no other participant is
// reachable. With a member list it installs a static ring directly,
// skipping membership formation: every participant must be started with
// the identical list, and the representative (the smallest ID) injects the
// first token. This mirrors the paper's protocol description, which
// assumes membership has been established and the first regular token
// sent. The installed configuration is delivered as an application-visible
// event.
func (e *Engine) Start(members []wire.ParticipantID) ([]engine.Action, error) {
	if len(members) == 0 {
		return e.enterGather(), nil
	}
	cfg, idx, err := StaticConfiguration(members, e.cfg.MyID)
	if err != nil {
		return nil, err
	}
	e.installRing(cfg)
	e.setState(StateOperational)
	e.stats.MembershipChanges++
	e.traceConfig(cfg, false)
	actions := []engine.Action{
		engine.DeliverConfig{Config: cfg.Clone(), Transitional: false},
		engine.SetTimer{Kind: engine.TimerTokenLoss, After: e.cfg.TokenLossTimeout},
	}
	if idx == 0 {
		// The representative injects the first token by processing a
		// synthetic initial token locally.
		initial := &wire.Token{RingID: cfg.ID, TokenSeq: 1}
		actions = append(actions, e.handleRegularToken(initial)...)
	}
	return actions, nil
}

// StaticConfiguration validates a static member list and returns the
// configuration every engine started with that list reports — members in
// ascending order, the smallest ID as representative, ring sequence 4 —
// together with me's position in it.
func StaticConfiguration(members []wire.ParticipantID, me wire.ParticipantID) (engine.Configuration, int, error) {
	if len(members) == 0 || len(members) > wire.MaxMembers {
		return engine.Configuration{}, 0, fmt.Errorf("%w: %d members", ErrBadMembership, len(members))
	}
	sorted := sortedIDs(members)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return engine.Configuration{}, 0, fmt.Errorf("%w: duplicate member %s", ErrBadMembership, sorted[i])
		}
	}
	cfg := engine.Configuration{ID: wire.RingID{Rep: sorted[0], Seq: 4}, Members: sorted}
	idx := slices.Index(cfg.Members, me)
	if idx < 0 {
		return engine.Configuration{}, 0, fmt.Errorf("%w: %s not in member list", ErrBadMembership, me)
	}
	return cfg, idx, nil
}

// installRing resets all per-ring protocol state for a newly installed or
// forming ring. The caller sets e.state.
func (e *Engine) installRing(cfg engine.Configuration) {
	e.ring = cfg
	e.myIndex = slices.Index(cfg.Members, e.cfg.MyID)
	e.buf = msgbuf.New(0)
	e.round = 0
	e.lastTokenSeq = 0
	e.prevTokenSeq = 0
	e.aruSentLast = 0
	e.safeBound = 0
	e.sentToken = nil
	e.markerSent = false
	e.recoveryMarkers = nil
	e.tokenPriority = true
	e.flow.Reset()
}

// successor returns the next participant on the ring after this one.
func (e *Engine) successor() wire.ParticipantID {
	return e.ring.Members[(e.myIndex+1)%len(e.ring.Members)]
}

// predecessor returns the previous participant on the ring.
func (e *Engine) predecessor() wire.ParticipantID {
	n := len(e.ring.Members)
	return e.ring.Members[(e.myIndex+n-1)%n]
}

// Step dispatches one input to its handler. Control frames are not part of
// this protocol and are ignored.
func (e *Engine) Step(in engine.Input) []engine.Action {
	switch f := in.Frame.(type) {
	case nil:
		return e.handleTimer(in.Timer)
	case *wire.DataMessage:
		return e.handleData(f)
	case *wire.Token:
		return e.handleToken(f)
	case *wire.JoinMessage:
		return e.handleJoin(f)
	case *wire.CommitToken:
		return e.handleCommit(f)
	}
	return nil
}

// Progress implements OrderingEngine. While TokenPriority is false the
// token must be processed only when no data message is available
// (Section III-C).
func (e *Engine) Progress() Progress {
	return Progress{
		Rotations:      e.stats.TokensProcessed,
		Pending:        e.pendingLen(),
		TokenPriority:  e.tokenPriority,
		SteadyRotation: true,
	}
}

// Snapshot implements OrderingEngine. During membership formation Ring is
// the last ring whose token circulated (possibly the ring being formed,
// before its configuration event has been delivered).
func (e *Engine) Snapshot() Snapshot {
	st := e.stats
	st.AccelWindow = e.accelWindow
	return Snapshot{Config: e.cfg, State: e.state, Ring: e.ring.Clone(), Stats: st}
}

// handleTimer processes a timer expiry previously requested via SetTimer.
func (e *Engine) handleTimer(kind engine.TimerKind) []engine.Action {
	switch kind {
	case engine.TimerTokenLoss:
		if e.state == StateOperational || e.state == StateRecovery {
			return e.enterGather()
		}
	case engine.TimerTokenRetrans:
		if (e.state == StateOperational || e.state == StateRecovery) && e.sentToken != nil {
			e.stats.TokenRetransmits++
			return []engine.Action{
				engine.Send{To: e.successor(), Frame: e.sentToken.Clone()},
				engine.SetTimer{Kind: engine.TimerTokenRetrans, After: e.cfg.TokenRetransPeriod},
			}
		}
	case engine.TimerJoin:
		if e.state == StateGather {
			return []engine.Action{
				engine.Send{Frame: e.makeJoin()},
				engine.SetTimer{Kind: engine.TimerJoin, After: e.cfg.JoinPeriod},
			}
		}
	case engine.TimerConsensus:
		if e.state == StateGather {
			return e.consensusTimeout()
		}
	case engine.TimerCommit:
		if e.state == StateCommit {
			return e.enterGather()
		}
	}
	return nil
}

// sortedIDs returns a sorted copy of ids.
func sortedIDs(ids []wire.ParticipantID) []wire.ParticipantID {
	out := make([]wire.ParticipantID, len(ids))
	copy(out, ids)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func minSeq(a, b wire.Seq) wire.Seq {
	if a < b {
		return a
	}
	return b
}
