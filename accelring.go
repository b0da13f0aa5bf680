// Package accelring is a Go implementation of the Accelerated Ring
// protocol (Babay & Amir, "Fast Total Ordering for Modern Data Centers",
// ICDCS 2016): reliable, totally ordered multicast with Extended Virtual
// Synchrony semantics over a token-passing logical ring, in which a
// participant may keep multicasting for a bounded window after forwarding
// the token — overlapping its sending with its successor's and cutting
// token rotation time, which simultaneously raises throughput and lowers
// latency on modern data-center networks.
//
// The package offers the library-based deployment style evaluated in the
// paper: the application embeds a Node directly. The daemon-based style
// (Spread-like, with IPC clients and named groups) lives in cmd/ringd and
// internal/daemon.
//
// A Node is created over a Transport (UDP/IP-multicast for real networks,
// an in-memory hub for tests and single-process demos), submits messages
// with Submit, and receives totally ordered deliveries and membership
// events on Events.
package accelring

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"accelring/internal/core"
	"accelring/internal/engine"
	"accelring/internal/flowctl"
	"accelring/internal/ringpaxos"
	"accelring/internal/transport"
	"accelring/internal/wire"
)

// Public aliases for the identifier and service types, so applications
// never import internal packages.
type (
	// ParticipantID uniquely identifies a ring participant.
	ParticipantID = wire.ParticipantID
	// Seq is a message sequence number: the position in the total order.
	Seq = wire.Seq
	// Service selects a delivery guarantee.
	Service = wire.Service
	// Configuration is a membership view.
	Configuration = engine.Configuration
	// Stats exposes the engine's counters.
	Stats = core.Stats
	// Tracer receives protocol-level events (state transitions, token
	// forwards, configuration installs) synchronously on the protocol
	// goroutine; implementations must be fast and non-blocking.
	Tracer = core.Tracer
	// State is the engine's membership state, as reported to tracers.
	State = core.State
)

// Delivery services.
const (
	// FIFO delivery: per-sender order (provided via Agreed).
	FIFO = wire.ServiceFIFO
	// Causal delivery: causality-respecting order (provided via Agreed).
	Causal = wire.ServiceCausal
	// Agreed delivery: a single total order across all participants.
	Agreed = wire.ServiceAgreed
	// Safe delivery: total order plus stability — delivered only once
	// every member of the configuration has received the message.
	Safe = wire.ServiceSafe
)

// Protocol selects the ordering protocol variant of the EngineAccelRing
// engine.
type Protocol uint8

// Protocol variants.
const (
	// AcceleratedRing is the paper's contribution and the default.
	AcceleratedRing Protocol = iota
	// OriginalRing is the Totem-style baseline protocol: the accelerated
	// engine with no accelerated window and the conservative priority
	// method, which the paper shows is the original Ring protocol.
	OriginalRing
)

// EngineKind selects the ordering engine a node runs. Both engines
// satisfy the same engine⇄runtime contract and run over any Transport
// unchanged; they differ in how the total order is agreed on.
type EngineKind string

const (
	// EngineAccelRing is the Accelerated Ring engine (the paper's
	// protocol): token-circulated sequencing with Extended Virtual
	// Synchrony membership. The default; supports dynamic discovery.
	EngineAccelRing EngineKind = "accelring"
	// EngineRingPaxos is the Ring Paxos engine: majority-quorum
	// consensus with a ring-circulated Phase 2, coordinator election by
	// view number, and in-order learner delivery. Requires a static
	// member list (Options.Members) — the member set is the acceptor
	// set. It provides total order and per-sender FIFO but not the full
	// EVS axioms (see docs/PROTOCOL.md).
	EngineRingPaxos EngineKind = "ringpaxos"
)

// ParseEngine maps a command-line spelling to an EngineKind. The empty
// string selects the default (EngineAccelRing).
func ParseEngine(s string) (EngineKind, error) {
	switch EngineKind(s) {
	case "", EngineAccelRing:
		return EngineAccelRing, nil
	case EngineRingPaxos:
		return EngineRingPaxos, nil
	default:
		return "", fmt.Errorf("accelring: unknown engine %q (want %q or %q)",
			s, EngineAccelRing, EngineRingPaxos)
	}
}

// PaxosStats re-exports the Ring Paxos engine's counters so applications
// never import internal packages.
type PaxosStats = ringpaxos.Stats

// Event is a totally ordered occurrence delivered to the application:
// either a Message or a ConfigChange.
type Event interface {
	isEvent()
}

// Message is an ordered application message.
type Message struct {
	// Sender is the participant that initiated the message.
	Sender ParticipantID
	// Service is the delivery guarantee it was sent with.
	Service Service
	// Payload is the application data.
	Payload []byte
}

// ConfigChange reports a membership change. Per Extended Virtual
// Synchrony, a transitional configuration precedes messages that could not
// meet the guarantees of the old configuration.
type ConfigChange struct {
	Config       Configuration
	Transitional bool
}

func (Message) isEvent()      {}
func (ConfigChange) isEvent() {}

// Windows carries the protocol's flow control parameters. The zero value
// selects the defaults.
type Windows struct {
	// Personal is the maximum number of new messages one participant may
	// initiate per token round.
	Personal int
	// Global bounds the total multicasts per token round, ring-wide.
	Global int
	// Accelerated is the maximum number of messages multicast after
	// forwarding the token. Zero means the default; OriginalRing has no
	// accelerated window and rejects a non-zero one.
	Accelerated int
}

// Options configures a Node.
type Options struct {
	// ID is this participant's non-zero unique identifier.
	ID ParticipantID
	// Transport connects this node to its peers. Required.
	Transport transport.Transport
	// Members, when non-empty, installs a static ring immediately (every
	// node must be started with the identical list). When empty the node
	// discovers peers through the membership protocol.
	Members []ParticipantID
	// Protocol selects AcceleratedRing (default) or OriginalRing.
	// OriginalRing applies only to the EngineAccelRing engine.
	Protocol Protocol
	// Engine selects the ordering engine: EngineAccelRing (default) or
	// EngineRingPaxos. Ring Paxos requires a non-empty Members list.
	Engine EngineKind
	// Windows tunes flow control; zero values select defaults.
	Windows Windows
	// TokenLossTimeout overrides the failure-detection timeout.
	TokenLossTimeout time.Duration
	// TokenRetransPeriod, JoinPeriod, ConsensusTimeout and CommitTimeout
	// override the remaining protocol timers (zero values select
	// defaults). Shrink them for fast failover on low-latency networks.
	TokenRetransPeriod time.Duration
	JoinPeriod         time.Duration
	ConsensusTimeout   time.Duration
	CommitTimeout      time.Duration
	// EventBuffer is the capacity of the Events channel (default 16384).
	// The application must drain Events; a full buffer blocks the
	// protocol rather than dropping ordered messages.
	EventBuffer int
	// PackThreshold enables Spread-style message packing: consecutive
	// pending same-service messages are packed into one protocol packet
	// while the container stays at or below this many bytes. Zero
	// disables packing; 1350 packs one MTU frame's worth.
	PackThreshold int
	// Tracer, when non-nil, observes protocol-level events.
	Tracer Tracer
	// WatchdogInterval enables the liveness watchdog: a sampling goroutine
	// that checks every interval whether the protocol loop made progress
	// (packets handled, timers fired, submits accepted, events delivered)
	// while work was pending, and flags a stall otherwise — catching a
	// wedged loop (e.g. blocked on an undrained Events channel) that a
	// liveness check through the loop itself would hang on. Zero disables
	// it. Stalls count in Metrics (Runtime.WatchdogStalls) and are
	// reported to OnStall.
	WatchdogInterval time.Duration
	// OnStall, when non-nil, receives a report for every stalled check.
	// Called from the watchdog goroutine; must not block on the stalled
	// loop (Metrics round-trips it, and Submit blocks once its queue is
	// full).
	OnStall func(StallReport)
}

// Node is one ring participant embedded in the application process.
type Node struct {
	id     ParticipantID
	tr     transport.Transport
	engine EngineKind
	events chan Event

	submitCh chan submitReq
	// reserved counts submissions Submit accepted and the loop has not
	// stepped, parked submitters included; backlog is the engine's backlog
	// as the loop last stored it. Submit keeps their sum within maxPending.
	reserved   atomic.Int64
	backlog    atomic.Int64
	maxPending int64
	statsCh    chan chan core.Snapshot
	stopCh     chan struct{}
	stopOnce   sync.Once
	closing    atomic.Bool // set by Close and by the exiting loop; checked every pass
	done       chan struct{}

	// nm is the runtime instrumentation (atomic; shared between the
	// protocol goroutine and Metrics callers). lastTokenAt is owned by the
	// protocol goroutine.
	nm          *nodeMetrics
	lastTokenAt time.Time

	// timers is the runtime timer set. It lives on the Node (not the loop)
	// so the watchdog can count pending unconsumed fires without touching
	// the possibly-wedged protocol goroutine.
	timers *timerSet

	// Protocol-goroutine-owned scratch state keeping the steady-state hot
	// path allocation-free: encBuf is the reused encode buffer for every
	// control-plane frame (the transports borrow it only for the duration
	// of a send) and encVec the vector of one that carries it to Multicast;
	// dec holds the reused token and control decode targets (the engine
	// never retains those pointers — it copies what it keeps). burstBufs
	// and burstPkts back a data run in flight — pooled buffers, one per
	// frame, and the vector handed to Multicast; their headers are retained
	// across runs. runActs collects a run of submissions' actions (submit).
	encBuf    []byte
	encVec    [1][]byte
	dec       wire.Decoder
	burstBufs [][]byte
	burstPkts [][]byte
	runActs   []engine.Action

	mu      sync.Mutex
	errs    []error // ring of recent protocol-loop errors
	errHead int     // index of the oldest entry once the ring is full
	// fanoutSrc, when attached, contributes a client fan-out tier
	// snapshot to Metrics (daemon deployments attach their tier here so
	// one snapshot carries the whole serving path).
	fanoutSrc FanoutSource
}

type submitReq struct {
	payload []byte
	service Service
}

// Errors.
var (
	// ErrClosed is returned by operations on a closed node.
	ErrClosed = errors.New("accelring: node closed")
)

// Start creates a node and begins protocol operation.
func Start(opts Options) (*Node, error) {
	if opts.Transport == nil {
		return nil, errors.New("accelring: Options.Transport is required")
	}
	cfg := core.Config{
		MyID:               opts.ID,
		TokenLossTimeout:   opts.TokenLossTimeout,
		TokenRetransPeriod: opts.TokenRetransPeriod,
		JoinPeriod:         opts.JoinPeriod,
		ConsensusTimeout:   opts.ConsensusTimeout,
		CommitTimeout:      opts.CommitTimeout,
		PackThreshold:      opts.PackThreshold,
		Tracer:             opts.Tracer,
	}
	if opts.Windows != (Windows{}) {
		flow := flowctl.Default()
		if opts.Windows.Personal != 0 {
			flow.PersonalWindow = opts.Windows.Personal
		}
		if opts.Windows.Global != 0 {
			flow.GlobalWindow = opts.Windows.Global
		}
		if opts.Windows.Accelerated != 0 {
			flow.AcceleratedWindow = opts.Windows.Accelerated
		}
		cfg.Flow = flow
	}
	kind, err := ParseEngine(string(opts.Engine))
	if err != nil {
		return nil, err
	}
	switch opts.Protocol {
	case AcceleratedRing:
	case OriginalRing:
		if opts.Windows.Accelerated != 0 {
			return nil, errors.New("accelring: OriginalRing has no accelerated window; leave Windows.Accelerated zero")
		}
		if kind != EngineAccelRing {
			return nil, fmt.Errorf("accelring: OriginalRing applies only to engine %q", EngineAccelRing)
		}
		cfg = core.OriginalRing(cfg)
	default:
		return nil, fmt.Errorf("accelring: unknown protocol %d", opts.Protocol)
	}
	// Stamp the incarnation from the wall clock so a restarted process
	// never reuses its predecessor's ring IDs or proposer sequence space
	// (one-second resolution; see core.Config.Incarnation).
	cfg.Incarnation = uint32(time.Now().Unix())
	var eng core.OrderingEngine
	if kind == EngineRingPaxos {
		eng, err = ringpaxos.New(cfg)
	} else {
		eng, err = core.New(cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("accelring: %w", err)
	}
	n, initial, err := newNode(opts, kind, eng)
	if err != nil {
		return nil, err
	}
	go n.loop(eng, initial)
	if opts.WatchdogInterval > 0 {
		go n.watchdog(opts.WatchdogInterval, opts.OnStall)
	}
	return n, nil
}

// newNode builds the node that runs eng over opts.Transport and starts the
// engine, returning the engine's initial actions for the loop to execute.
func newNode(opts Options, kind EngineKind, eng core.OrderingEngine) (*Node, []engine.Action, error) {
	buf := opts.EventBuffer
	if buf <= 0 {
		buf = 16384
	}
	n := &Node{
		id:     opts.ID,
		tr:     opts.Transport,
		engine: kind,
		events: make(chan Event, buf),
		// Room for one engine.SubmitQuota: the loop counts what waits with
		// len and takes it without a select.
		submitCh:   make(chan submitReq, engine.SubmitQuota),
		maxPending: int64(eng.Snapshot().Config.MaxPending),
		statsCh:    make(chan chan core.Snapshot, 1),
		stopCh:     make(chan struct{}),
		done:       make(chan struct{}),
		nm:         newNodeMetrics(),
	}
	n.timers = newTimerSet(&n.nm.timerStale)

	initial, err := eng.Start(opts.Members)
	if err != nil {
		return nil, nil, fmt.Errorf("accelring: %w", err)
	}
	return n, initial, nil
}

// ID returns this node's participant ID.
func (n *Node) ID() ParticipantID { return n.id }

// Events returns the stream of ordered deliveries and membership changes.
// The channel is closed when the node shuts down.
func (n *Node) Events() <-chan Event { return n.events }

// Submit queues an application message for totally ordered multicast to
// the ring (including back to this node) and returns without waiting for
// the protocol loop: nil means the message is queued, and the loop hands
// it to the engine with whatever else is queued, as one run whose data
// frames leave in one Multicast. Submit answers its own errors before it
// queues: an invalid service or a payload over the wire maximum, ErrClosed
// once Close has begun, and core.ErrBacklogFull when the engine's backlog
// plus the messages still queued would exceed the engine's bound. It blocks
// while engine.SubmitQuota messages are queued. A message still queued when
// the node closes is dropped.
//
// The engine retains payload until the message stabilizes, so the caller
// must not modify it after Submit returns nil.
func (n *Node) Submit(payload []byte, service Service) error {
	if !service.Valid() {
		return fmt.Errorf("accelring: invalid service %d", uint8(service))
	}
	if len(payload) > wire.MaxPayload {
		return fmt.Errorf("accelring: payload %d exceeds maximum %d", len(payload), wire.MaxPayload)
	}
	// Checked before the send: a select between a free slot and a closed
	// done would pick either.
	if n.closing.Load() {
		return ErrClosed
	}
	if n.reserved.Add(1)+n.backlog.Load() > n.maxPending {
		n.reserved.Add(-1)
		return core.ErrBacklogFull
	}
	select {
	case n.submitCh <- submitReq{payload: payload, service: service}:
		return nil
	case <-n.done:
		n.reserved.Add(-1)
		return ErrClosed
	}
}

func (n *Node) statsSnapshot() (core.Snapshot, error) {
	ch := make(chan core.Snapshot, 1)
	select {
	case n.statsCh <- ch:
	case <-n.done:
		return core.Snapshot{}, ErrClosed
	}
	select {
	case snap := <-ch:
		return snap, nil
	case <-n.done:
		return core.Snapshot{}, ErrClosed
	}
}

// Close stops the protocol loop and releases the transport.
func (n *Node) Close() error {
	n.stopOnce.Do(func() {
		n.closing.Store(true)
		close(n.stopCh)
	})
	<-n.done
	return nil
}
