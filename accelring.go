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
	"cmp"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"accelring/internal/core"
	"accelring/internal/daemon/hook"
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
	// Tracer receives the engine's membership state transitions
	// synchronously on the protocol goroutine; implementations must be
	// fast and non-blocking. Configuration installs arrive on Events as
	// ConfigChange.
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
	// TokenLossTimeout (L) is the failure-detection timeout; zero selects
	// 1 s, and a negative L is refused. Every other protocol timer derives
	// from it: token resend every L/10, joins every L/4, membership
	// consensus 2L and commit L (docs/PROTOCOL.md §4).
	TokenLossTimeout time.Duration
	// PackThreshold enables Spread-style message packing: consecutive
	// pending same-service messages are packed into one protocol packet
	// while the container stays at or below this many bytes. Zero
	// disables packing; 1350 packs one MTU frame's worth.
	PackThreshold int
	// Tracer, when non-nil, observes the accelring engine's membership
	// state transitions.
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
	eng    core.OrderingEngine // the protocol goroutine's
	events chan Event

	// intake is the loop's one input queue from the process's other
	// goroutines: submissions, stats requests, and a daemon's posts and
	// attachment (entry).
	intake chan entry
	// reserved counts submissions Submit accepted and the loop has not
	// stepped, parked submitters included, and on a served node the room
	// posted input reserved and has not spent (hook.Ring.Post); backlog is
	// the engine's backlog as the loop last stored it. Submit keeps their
	// sum within maxPending, a post within the client bound (ownShare).
	reserved   atomic.Int64
	backlog    atomic.Int64
	maxPending int64
	stopCh     chan struct{}
	stopOnce   sync.Once
	closing    atomic.Bool // set by Close and by the exiting loop; checked every pass
	done       chan struct{}

	// nm is the runtime instrumentation (atomic; shared between the
	// protocol goroutine and Metrics callers). lastTokenAt is owned by the
	// protocol goroutine.
	nm          *nodeMetrics
	lastTokenAt time.Time

	// timers holds the engine's timers (deadlines); the protocol goroutine
	// owns all of it but the wake channel, whose length the watchdog reads.
	timers *deadlines

	// dataRun and tokenRun are the receive runs the loop holds from the
	// data and token channels; the watchdog and Metrics read their pending
	// counts.
	dataRun, tokenRun held

	// Protocol-goroutine-owned scratch state keeping the steady-state hot
	// path allocation-free: encBuf is the reused encode buffer for every
	// control-plane frame (the transports borrow it only for the duration
	// of a send) and encVec the vector of one that carries it to Multicast;
	// dec holds the reused token and control decode targets (the engine
	// never retains those pointers — it copies what it keeps). burstBufs
	// and burstPkts back a data run in flight — pooled buffers, one per
	// frame, and the vector handed to Multicast; their headers are retained
	// across runs. runActs collects a run of submissions' actions (submit),
	// and inHand holds submissions taken off the intake and not yet stepped,
	// and what a served node's daemon submitted (served.Submit). reserved
	// counts them.
	encBuf    []byte
	encVec    [1][]byte
	dec       wire.Decoder
	burstBufs [][]byte
	burstPkts [][]byte
	runActs   []engine.Action
	inHand    []entry

	// srv is the daemon that serves the node (hook), nil for a library
	// node, and credit is what is left of the room the input being applied
	// reserved; the protocol goroutine owns both. room is the loop's signal
	// to posts waiting for room that a pass made some, and posters counts
	// the posts waiting for it (reserveWait).
	srv     hook.Server
	credit  int
	room    chan struct{}
	posters atomic.Int32

	mu      sync.Mutex
	errs    []error // ring of recent protocol-loop errors
	errHead int     // index of the oldest entry once the ring is full
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
		MyID:             opts.ID,
		TokenLossTimeout: opts.TokenLossTimeout,
		PackThreshold:    opts.PackThreshold,
		Tracer:           opts.Tracer,
	}
	if w := opts.Windows; w != (Windows{}) {
		cfg.Flow = flowctl.Default()
		cfg.Flow.PersonalWindow = cmp.Or(w.Personal, cfg.Flow.PersonalWindow)
		cfg.Flow.AcceleratedWindow = cmp.Or(w.Accelerated, cfg.Flow.AcceleratedWindow)
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
	go n.loop(initial)
	if opts.WatchdogInterval > 0 {
		go n.watchdog(opts.WatchdogInterval, opts.OnStall)
	}
	return n, nil
}

// newNode builds the node that runs eng over opts.Transport and starts the
// engine, returning the engine's initial actions for the loop to execute.
func newNode(opts Options, kind EngineKind, eng core.OrderingEngine) (*Node, []engine.Action, error) {
	n := &Node{
		id:         opts.ID,
		tr:         opts.Transport,
		engine:     kind,
		eng:        eng,
		events:     make(chan Event, eventBuffer),
		intake:     make(chan entry, intakeCap),
		maxPending: int64(eng.Snapshot().Config.MaxPending),
		room:       make(chan struct{}, 1),
		stopCh:     make(chan struct{}),
		done:       make(chan struct{}),
		nm:         newNodeMetrics(),
		timers:     newDeadlines(),
	}

	initial, err := eng.Start(opts.Members)
	if err != nil {
		return nil, nil, fmt.Errorf("accelring: %w", err)
	}
	return n, initial, nil
}

func init() {
	hook.Attach = func(node any, s hook.Server) error {
		return node.(*Node).attach(s)
	}
}

// ID returns this node's participant ID.
func (n *Node) ID() ParticipantID { return n.id }

// eventBuffer is the capacity of the Events channel.
const eventBuffer = 16384

// Events returns the stream of ordered deliveries and membership changes.
// The channel holds 16 384 events; the application must drain it, because
// a full channel blocks the protocol rather than dropping ordered messages.
// The channel is closed when the node shuts down. A node that a daemon
// serves (internal/daemon) sends nothing there: the protocol goroutine
// hands its events to the daemon directly.
func (n *Node) Events() <-chan Event { return n.events }

// Submit queues an application message for totally ordered multicast to
// the ring (including back to this node) and returns without waiting for
// the protocol loop: nil means the message is queued, and the loop hands
// it to the engine with whatever else is queued, as one run whose data
// frames leave in one Multicast. Submit answers its own errors before it
// queues: an invalid service or a payload over the wire maximum, ErrClosed
// once Close has begun, and core.ErrBacklogFull when the engine's backlog
// plus the messages still queued would exceed the engine's bound. It blocks
// while the protocol loop's input queue (256 entries, shared with Metrics)
// is full; a loop waiting on a full Events channel keeps taking from it, so
// one goroutine may both submit and drain Events. A message still queued
// when the node closes is dropped.
//
// The engine retains payload until the message stabilizes, so the caller
// must not modify it after Submit returns nil.
func (n *Node) Submit(payload []byte, service Service) error {
	if err := checkSubmit(payload, service); err != nil {
		return err
	}
	if n.closing.Load() {
		return ErrClosed
	}
	if !n.reserve(1, n.maxPending) {
		return core.ErrBacklogFull
	}
	if !n.enqueue(entry{payload: payload, service: service, submits: 1}) {
		return ErrClosed
	}
	return nil
}

// checkSubmit answers a submission the engine would refuse.
func checkSubmit(payload []byte, service Service) error {
	if !service.Valid() {
		return fmt.Errorf("accelring: invalid service %d", uint8(service))
	}
	if len(payload) > wire.MaxPayload {
		return fmt.Errorf("accelring: payload %d exceeds maximum %d", len(payload), wire.MaxPayload)
	}
	return nil
}

// reserve takes room for k submissions within limit, counting the
// engine's backlog and the submissions not yet stepped.
func (n *Node) reserve(k, limit int64) bool {
	if n.reserved.Add(k)+n.backlog.Load() > limit {
		n.reserved.Add(-k)
		return false
	}
	return true
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
