// Package wire defines the on-the-wire message formats of the Accelerated
// Ring protocol and hand-rolled binary codecs for them.
//
// All multi-byte integers are big-endian. Every message starts with a
// four-byte header: the two magic bytes "AR", a format version byte, and a
// message kind byte. Codecs never use reflection and validate all length
// fields against hard limits so that a malformed or truncated packet can
// never cause an allocation explosion or a panic.
package wire

import (
	"errors"
	"fmt"
)

// ParticipantID uniquely identifies a protocol participant (a daemon or a
// library-embedded node). In deployments using the UDP transport the ID is
// conventionally derived from the host's IPv4 address; the protocol only
// requires uniqueness. The zero value is reserved and never identifies a
// real participant.
type ParticipantID uint32

// String renders the ID in dotted-quad style for readability in logs.
func (p ParticipantID) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(p>>24), byte(p>>16), byte(p>>8), byte(p))
}

// Seq is a message sequence number, the position of a message in the total
// order established within a single ring configuration. Sequence numbers are
// 64-bit and never wrap (unlike Totem's 32-bit wrap-around arithmetic).
type Seq uint64

// Round counts token hops. The token's Round field is incremented every time
// the token is forwarded to the next participant, and every data message
// records the Round at which its sender held the token. The two
// priority-switching methods of Section III-C of the paper compare data
// message rounds against the round of the last token a participant
// processed.
type Round uint64

// RingID identifies a ring configuration: the representative that formed the
// ring and a monotonically increasing sequence number. Two rings formed by
// different memberships always compare unequal.
type RingID struct {
	// Rep is the participant that formed the ring (the smallest ID among
	// the members, per the Totem membership algorithm).
	Rep ParticipantID
	// Seq is the ring sequence number. Membership always creates new rings
	// with larger Seq than any ring known to any member.
	Seq uint64
}

// String renders the ring ID as "rep/seq".
func (r RingID) String() string { return fmt.Sprintf("%s/%d", r.Rep, r.Seq) }

// Service selects the delivery guarantee requested for a data message.
type Service uint8

// Delivery services, in increasing order of strength. FIFO and Causal are
// provided via the Agreed machinery (the paper notes that their delivery
// latency is the same as Agreed's, whose guarantees subsume them); Safe
// delivery additionally guarantees stability: a message is delivered only
// once every member of the configuration has received it.
const (
	ServiceFIFO Service = iota + 1
	ServiceCausal
	ServiceAgreed
	ServiceSafe
)

// String implements fmt.Stringer.
func (s Service) String() string {
	switch s {
	case ServiceFIFO:
		return "fifo"
	case ServiceCausal:
		return "causal"
	case ServiceAgreed:
		return "agreed"
	case ServiceSafe:
		return "safe"
	default:
		return fmt.Sprintf("service(%d)", uint8(s))
	}
}

// Valid reports whether s is one of the defined services.
func (s Service) Valid() bool { return s >= ServiceFIFO && s <= ServiceSafe }

// RequiresSafe reports whether the service demands stability before
// delivery.
func (s Service) RequiresSafe() bool { return s == ServiceSafe }

// Kind discriminates the message types exchanged by the protocol.
type Kind uint8

// Message kinds.
const (
	KindData Kind = iota + 1
	KindToken
	KindJoin
	KindCommit
	// KindControl is the engine-opaque control frame (see Control).
	KindControl
)

var kindNames = [...]string{KindData: "data", KindToken: "token", KindJoin: "join", KindCommit: "commit", KindControl: "control"}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k >= KindData && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Format constants and hard limits enforced by the codecs.
const (
	// Version is the wire format version emitted and accepted by this
	// implementation.
	Version = 1

	// MaxPayload bounds a data message payload. It matches the largest
	// UDP datagram the paper's large-message experiments use (message
	// fragmentation/reassembly is left to the kernel, per Section IV-A3)
	// less room for protocol headers.
	MaxPayload = 64*1024 - 512

	// MaxRTR bounds the number of retransmission requests carried by one
	// token.
	MaxRTR = 4096

	// MaxMembers bounds ring membership. Token rings degrade well before
	// this; the bound only protects the codecs.
	MaxMembers = 1024

	// MaxGroups bounds the number of destination groups of one multi-group
	// multicast.
	MaxGroups = 64

	// MaxGroupName bounds the length of a group name, mirroring Spread's
	// generous descriptive group names.
	MaxGroupName = 128
)

var (
	magic0 = byte('A')
	magic1 = byte('R')
)

// Codec errors.
var (
	// ErrTruncated reports a packet shorter than its declared contents.
	ErrTruncated = errors.New("wire: truncated packet")
	// ErrBadMagic reports a packet that does not begin with the protocol
	// magic bytes.
	ErrBadMagic = errors.New("wire: bad magic")
	// ErrBadVersion reports an unsupported format version.
	ErrBadVersion = errors.New("wire: unsupported version")
	// ErrBadKind reports an unknown message kind, or a decode call for a
	// kind other than the packet's.
	ErrBadKind = errors.New("wire: unexpected message kind")
	// ErrTooLarge reports a length field exceeding its hard limit.
	ErrTooLarge = errors.New("wire: length field exceeds limit")
)
