package core

import (
	"fmt"
	"time"

	"accelring/internal/wire"
)

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
	out := Configuration{ID: c.ID}
	if c.Members != nil {
		out.Members = make([]wire.ParticipantID, len(c.Members))
		copy(out.Members, c.Members)
	}
	return out
}

// Contains reports whether id is a member of the configuration.
func (c Configuration) Contains(id wire.ParticipantID) bool {
	for _, m := range c.Members {
		if m == id {
			return true
		}
	}
	return false
}

// indexOf returns the position of id in the member list, or -1.
func (c Configuration) indexOf(id wire.ParticipantID) int {
	for i, m := range c.Members {
		if m == id {
			return i
		}
	}
	return -1
}
