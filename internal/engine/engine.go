// Package engine holds the types that cross an ordering engine's Step
// boundary: the Input a runtime feeds in (and Pick, the one rule that
// chooses it), the Actions it must carry out, the shared TimerKind set and
// the Configuration view. It imports only
// wire, so the engines (internal/core, internal/ringpaxos), every runtime
// (the root loop, internal/netsim) and the cluster test driver
// (internal/enginetest) share one vocabulary without importing each other.
// The contract itself — core.OrderingEngine — stays in core, because its
// Progress and Snapshot carry core's Config and Stats.
package engine

import (
	"fmt"
	"slices"
	"time"

	"accelring/internal/wire"
)

// Input is one engine input: a received frame, or, when Frame is nil, the
// expiry of timer Timer. Passed by value; building one never allocates.
type Input struct {
	Frame wire.Frame
	Timer TimerKind
}

// Queued counts the inputs a node has in hand: frames waiting on its token
// and data sockets, and client submissions waiting for the engine.
type Queued struct {
	Token, Data, Submits int
}

// Source names where a runtime takes its next input from.
type Source uint8

// Input sources. SourceNone means nothing is in hand.
const (
	SourceNone Source = iota
	SourceToken
	SourceData
	SourceSubmits
)

// The submission quotas. Submissions are an input of their own only while
// no frame is queued, SubmitQuota at a time; after every input, up to
// SubmitsPerInput more follow, so clients are not starved while the
// network is busy.
const (
	SubmitQuota     = 8
	SubmitsPerInput = 2
)

// Pick is the one input scheduler every runtime shares (paper §III-C/D).
// It returns the source of the next input and how many to take: one token
// frame if one is queued and either no data is queued or tokenPriority is
// set (the engine's Progress().TokenPriority, which priority methods 1 and
// 2 switch); otherwise one data frame; otherwise up to SubmitQuota
// submissions. It does no I/O and reads no clock.
func Pick(q Queued, tokenPriority bool) (Source, int) {
	switch {
	case q.Token > 0 && (q.Data == 0 || tokenPriority):
		return SourceToken, 1
	case q.Data > 0:
		return SourceData, 1
	case q.Submits > 0:
		return SourceSubmits, min(q.Submits, SubmitQuota)
	}
	return SourceNone, 0
}

// Action is an instruction the engine hands back to its runtime (real
// sockets, the in-memory test transport, or the discrete-event simulator).
// The runtime MUST execute actions in the order returned: the position of
// the token Send within the slice — before the post-token multicasts — is
// precisely what implements the Accelerated Ring protocol.
type Action interface {
	isAction()
}

// SendData instructs the runtime to multicast a data message to the ring.
// It is the hot-path send: a one-pointer action boxes without allocating,
// and runs of consecutive SendData actions are what runtimes batch.
type SendData struct {
	Msg *wire.DataMessage
}

// Send instructs the runtime to transmit any other frame — a token, a
// membership frame, an engine-opaque control frame: unicast to To on the
// token socket, or, when To is zero (never a real participant), multicast
// to the ring on the data socket. The runtime does not look inside Frame.
type Send struct {
	To    wire.ParticipantID
	Frame wire.Frame
}

// Deliver hands a totally ordered message to the application.
type Deliver struct {
	Msg *wire.DataMessage
}

// DeliverConfig delivers a membership (configuration change) event to the
// application. Transitional configurations precede messages that could not
// meet the old configuration's guarantees, per Extended Virtual Synchrony.
type DeliverConfig struct {
	Config       Configuration
	Transitional bool
}

// SetTimer asks the runtime to (re-)arm the timer of the given kind; when
// it expires the runtime must Step the engine with Input{Timer: Kind}.
// Re-arming an already armed timer resets it.
type SetTimer struct {
	Kind  TimerKind
	After time.Duration
}

// CancelTimer asks the runtime to disarm the timer of the given kind.
type CancelTimer struct {
	Kind TimerKind
}

func (SendData) isAction()      {}
func (Send) isAction()          {}
func (Deliver) isAction()       {}
func (DeliverConfig) isAction() {}
func (SetTimer) isAction()      {}
func (CancelTimer) isAction()   {}

// TimerKind identifies the protocol timers the runtime maintains on the
// engine's behalf. At most one timer per kind is armed at a time.
type TimerKind uint8

// Timer kinds.
const (
	// TimerTokenLoss fires when no token has been seen for the token-loss
	// timeout; the engine abandons the ring and starts membership
	// formation.
	TimerTokenLoss TimerKind = iota + 1
	// TimerTokenRetrans fires when, after forwarding the token, no
	// evidence of further progress was observed; the engine retransmits
	// the saved token to its successor.
	TimerTokenRetrans
	// TimerJoin paces re-multicasting of join messages while in the
	// Gather state.
	TimerJoin
	// TimerConsensus fires when membership consensus has not been reached
	// in time; unresponsive participants are added to the fail set.
	TimerConsensus
	// TimerCommit fires when a commit token appears to have been lost.
	TimerCommit
)

// String implements fmt.Stringer.
func (k TimerKind) String() string {
	switch k {
	case TimerTokenLoss:
		return "token-loss"
	case TimerTokenRetrans:
		return "token-retrans"
	case TimerJoin:
		return "join"
	case TimerConsensus:
		return "consensus"
	case TimerCommit:
		return "commit"
	default:
		return fmt.Sprintf("timer(%d)", uint8(k))
	}
}

// Configuration is a membership view: the ring identifier and the member
// set, in ring order (ascending participant ID; the representative first).
type Configuration struct {
	ID      wire.RingID
	Members []wire.ParticipantID
}

// Clone returns a deep copy of the configuration.
func (c Configuration) Clone() Configuration {
	return Configuration{ID: c.ID, Members: slices.Clone(c.Members)}
}

// Contains reports whether id is a member of the configuration.
func (c Configuration) Contains(id wire.ParticipantID) bool { return slices.Contains(c.Members, id) }
