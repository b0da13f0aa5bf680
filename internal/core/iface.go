package core

import "accelring/internal/wire"

// OrderingEngine is the engine ⇄ runtime contract every total-order
// protocol implementation in this repository satisfies. An engine is a
// deterministic, single-goroutine state machine whose whole interface to
// the world is "one input in, an ordered list of actions out": the runtime
// (the live protocol loop over memnet/udpnet, or the discrete-event
// simulator) owns one goroutine per engine, feeds it inputs one at a time,
// and carries out the returned actions strictly in order. The engine never
// touches sockets, clocks or goroutines, and the runtime never learns
// which frame kinds or timers a given engine uses.
//
// Beyond the signatures:
//
//   - Inputs are serialized; the engine needs no locks.
//   - Actions are executed in slice order. The position of the token Send
//     among SendData actions is protocol-relevant (the Accelerated Ring's
//     post-token phase, Ring Paxos's assignment-before-ack ordering).
//   - A data frame handed to Step is the engine's to keep, read-only
//     (runtimes decode it detached; the simulator hands several engines
//     the same one). Token and control frames are runtime-owned scratch,
//     valid only during the call; the engine copies what it keeps.
//   - Timer kinds are engine-defined reuses of the shared TimerKind set;
//     at most one timer per kind is armed at a time.
//
// *Engine (the Accelerated Ring), ringpaxos.Engine and netsim's test-only
// fixed sequencer all satisfy it.
type OrderingEngine interface {
	// Start begins operation: with a static member list (every participant
	// must be started with the identical list), or, when members is nil,
	// with dynamic membership discovery.
	Start(members []wire.ParticipantID) ([]Action, error)
	// Submit queues one application payload for total ordering and returns
	// whatever protocol output that enables right away (nothing for the
	// token ring, which sends only while holding the token; the value
	// multicast for a Ring Paxos proposer).
	Submit(payload []byte, service wire.Service) ([]Action, error)
	// Step feeds the engine one input — a received frame or a timer expiry
	// — and returns its reaction.
	Step(in Input) []Action
	// Progress is the cheap always-current view the runtime steers by.
	Progress() Progress
	// Snapshot reports configuration, state and counters for tracing,
	// metrics and reports.
	Snapshot() Snapshot
}

// Input is one engine input: a received frame, or, when Frame is nil, the
// expiry of timer Timer. Passed by value; building one never allocates.
type Input struct {
	Frame wire.Frame
	Timer TimerKind
}

// Progress is what a runtime needs from the engine between inputs.
type Progress struct {
	// Rotations counts accepted rotations of the engine's circulating
	// frame (regular tokens processed; Ring Paxos Phase 2 circulation
	// acks). It advancing across a Step is what the rotation histograms
	// sample; an engine with nothing circulating leaves it at zero.
	Rotations uint64
	// Pending is the backlog of submitted-but-unordered messages.
	Pending int
	// TokenPriority reports whether the runtime should prefer the token
	// socket over the data socket right now (Section III-C).
	TokenPriority bool
	// SteadyRotation is true when the ring frame keeps rotating even when
	// idle (the token ring: loss of rotation is loss of liveness), so the
	// shard watchdog may treat a frozen counter as a wedge whenever a
	// sibling ring advanced; false for engines that quiesce when idle
	// (Ring Paxos pauses Phase 2 circulation with nothing to decide), for
	// which it falls back to progress-with-pending-work detection.
	SteadyRotation bool
}

// Snapshot is the engine's reportable state.
type Snapshot struct {
	// Config is the engine's (defaulted) configuration.
	Config Config
	// State is the membership/protocol state.
	State State
	// Ring is the current configuration (view).
	Ring Configuration
	// Stats is the shared counter set. Engines map their own notions onto
	// it (for Ring Paxos, TokensProcessed counts Phase 2 circulation acks)
	// so bench reports work unchanged across engines.
	Stats Stats
	// Extra carries the engine's own counters, or nil when it has none
	// (ringpaxos.Stats for Ring Paxos). Consumers that know the engine
	// type-assert the value; everything else ignores it.
	Extra any
}

// Compile-time check: the Accelerated Ring engine satisfies the contract.
var _ OrderingEngine = (*Engine)(nil)
