package core

import (
	"errors"
	"fmt"
	"time"

	"accelring/internal/flowctl"
	"accelring/internal/wire"
)

// PriorityMethod selects how a participant decides when to raise the
// processing priority of a received token above received data messages
// (Section III-C of the paper).
type PriorityMethod uint8

const (
	// PriorityAggressive (the paper's first method) raises token priority
	// as soon as any data message the ring predecessor sent in the next
	// round is processed. It maximizes token speed and is used by the
	// paper's prototypes.
	PriorityAggressive PriorityMethod = iota + 1
	// PriorityConservative (the paper's second method) waits for a data
	// message the predecessor sent in its post-token phase of the next
	// round. It is the method shipped in Spread: less sensitive to
	// misconfiguration, and with an accelerated window of zero it renders
	// the engine identical to the original Ring protocol.
	PriorityConservative
)

// String implements fmt.Stringer.
func (m PriorityMethod) String() string {
	switch m {
	case PriorityAggressive:
		return "aggressive"
	case PriorityConservative:
		return "conservative"
	default:
		return fmt.Sprintf("priority(%d)", uint8(m))
	}
}

// Default protocol timing. These suit LAN/data-center deployments; the
// simulator and tests shrink them.
const (
	DefaultTokenLossTimeout   = 1 * time.Second
	DefaultTokenRetransPeriod = 100 * time.Millisecond
	DefaultJoinPeriod         = 250 * time.Millisecond
	DefaultConsensusTimeout   = 2 * time.Second
	DefaultCommitTimeout      = 1 * time.Second
	DefaultMaxPending         = 50000
)

// Config configures a protocol engine.
type Config struct {
	// MyID is this participant's unique, non-zero identifier.
	MyID wire.ParticipantID
	// Flow carries the flow control windows. Zero value means defaults.
	Flow flowctl.Config
	// Priority selects the token/data priority switching method. Zero
	// value means PriorityAggressive (the paper's prototype setting).
	Priority PriorityMethod

	// TokenLossTimeout, TokenRetransPeriod, JoinPeriod, ConsensusTimeout
	// and CommitTimeout configure the protocol timers; zero values mean
	// defaults.
	TokenLossTimeout   time.Duration
	TokenRetransPeriod time.Duration
	JoinPeriod         time.Duration
	ConsensusTimeout   time.Duration
	CommitTimeout      time.Duration

	// MaxPending bounds the queue of submitted-but-unsent application
	// messages; Submit fails once it is full. Zero means the default.
	MaxPending int

	// Tracer, when non-nil, receives protocol-level events (state
	// transitions, token forwards, configuration installs) synchronously
	// on the protocol goroutine.
	Tracer Tracer

	// PackThreshold enables Spread-style message packing: consecutive
	// pending messages with the same service are packed into one protocol
	// packet while the container payload stays at or below this many
	// bytes, amortizing per-message costs for small messages. Zero
	// disables packing. A typical value is 1350 (one protocol packet per
	// MTU frame).
	PackThreshold int

	// Incarnation distinguishes successive restarts of the same
	// participant; it must exceed every incarnation that ran before it
	// anywhere in the ring. Both engines fold it into the high 32 bits of
	// a sequence space. The Accelerated Ring starts its ring sequence
	// there: the sequences an earlier incarnation saw were formed from
	// lower incarnations' bases plus 4 per formation, so every ring a
	// restarted node forms is new, as Totem requires. Ring Paxos starts
	// its proposer sequence there, so a restarted proposer never collides
	// with its previous incarnation's value keys. A static ring ignores it
	// (every member computes the same ID). The root runtime stamps it from
	// the wall clock at one-second resolution, which orders incarnations
	// across nodes whose clocks agree to within a restart (restarts inside
	// the same second fall back to pre-incarnation behaviour);
	// internal/enginetest numbers restarts cluster-wide to stay
	// deterministic.
	Incarnation uint32
}

// Config validation errors.
var (
	ErrNoID          = errors.New("core: participant ID must be non-zero")
	ErrBacklogFull   = errors.New("core: pending message backlog is full")
	ErrBadMembership = errors.New("core: invalid ring membership")
)

// OriginalRing returns cfg set up as the original Ring protocol, the
// Totem-style baseline the paper compares against. The paper notes
// (Section III-C) that the accelerated engine with an accelerated window
// of zero and the conservative priority method is identical to it, so
// that is all this sets: zero Flow windows take their defaults first.
func OriginalRing(cfg Config) Config {
	if cfg.Flow == (flowctl.Config{}) {
		cfg.Flow = flowctl.Default()
	}
	cfg.Flow.AcceleratedWindow = 0
	cfg.Priority = PriorityConservative
	return cfg
}

// withDefaults returns a copy of c with zero values replaced by defaults.
func (c Config) withDefaults() Config {
	if c.Flow == (flowctl.Config{}) {
		c.Flow = flowctl.Default()
	}
	if c.Priority == 0 {
		c.Priority = PriorityAggressive
	}
	if c.TokenLossTimeout == 0 {
		c.TokenLossTimeout = DefaultTokenLossTimeout
	}
	if c.TokenRetransPeriod == 0 {
		c.TokenRetransPeriod = DefaultTokenRetransPeriod
	}
	if c.JoinPeriod == 0 {
		c.JoinPeriod = DefaultJoinPeriod
	}
	if c.ConsensusTimeout == 0 {
		c.ConsensusTimeout = DefaultConsensusTimeout
	}
	if c.CommitTimeout == 0 {
		c.CommitTimeout = DefaultCommitTimeout
	}
	if c.MaxPending == 0 {
		c.MaxPending = DefaultMaxPending
	}
	return c
}

// ringSeqBase is the lowest ring sequence this incarnation may form a ring
// above (see Incarnation).
func (c Config) ringSeqBase() uint64 { return uint64(c.Incarnation) << 32 }

// validate checks a defaulted config.
func (c Config) validate() error {
	if c.MyID == 0 {
		return ErrNoID
	}
	if err := c.Flow.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if c.PackThreshold < 0 || c.PackThreshold > wire.MaxPayload {
		return fmt.Errorf("core: pack threshold %d out of range [0, %d]", c.PackThreshold, wire.MaxPayload)
	}
	return nil
}

// Stats counts protocol events; all counters are cumulative over the
// engine's lifetime.
type Stats struct {
	// TokensProcessed counts regular tokens accepted and handled.
	TokensProcessed uint64
	// TokensDuplicate counts duplicate (retransmitted) tokens discarded.
	TokensDuplicate uint64
	// TokenRetransmits counts tokens this participant retransmitted after
	// a token-retransmission timeout.
	TokenRetransmits uint64
	// MsgsSent counts new data messages this participant initiated.
	MsgsSent uint64
	// MsgsPostToken counts the subset of MsgsSent multicast after the
	// token (the accelerated phase).
	MsgsPostToken uint64
	// MsgsRetransmitted counts retransmissions answered.
	MsgsRetransmitted uint64
	// MsgsReceived counts data messages received (new to this node).
	MsgsReceived uint64
	// MsgsDuplicate counts duplicate data messages discarded.
	MsgsDuplicate uint64
	// RTRRequested counts retransmission requests this participant added
	// to the token.
	RTRRequested uint64
	// RTRDeferredRounds counts rounds in which the accelerated-ring
	// retransmission-caution rule (Section III-A2) bounded this
	// participant's requests below the received token's sequence frontier:
	// messages between the previous round's seq and the current one may
	// still be in flight post-token, so requesting them would trigger
	// useless retransmissions.
	RTRDeferredRounds uint64
	// FlowThrottledRounds counts rounds in which flow control granted a
	// smaller sending budget than the number of messages waiting to be
	// initiated (personal/global window or max-seq-gap pressure).
	FlowThrottledRounds uint64
	// AccelFlushes counts rounds with at least one post-token multicast;
	// MsgsPostToken / AccelFlushes is the mean accelerated flush size.
	AccelFlushes uint64
	// Delivered counts messages delivered to the application (packed
	// sub-messages count individually).
	Delivered uint64
	// PayloadsPacked counts application payloads that travelled inside
	// packed containers.
	PayloadsPacked uint64
	// SafeDelivered counts the subset of Delivered with Safe service.
	SafeDelivered uint64
	// Discarded counts messages garbage-collected after stabilizing.
	Discarded uint64
	// MembershipChanges counts regular configuration installations.
	MembershipChanges uint64
}
