package multiring

import (
	"errors"
	"fmt"

	"accelring/internal/wire"
)

// The shard envelope is the small header a sharded submitter prepends to
// every payload it submits to a ring, inside the ring's ordinary data
// message.
// It carries what the merge layer needs: the unit kind (message or skip),
// the message identity (sender + submission counter, shared by all copies
// of a multi-shard message), the shard fan-out, and the destination
// groups.
//
// Layout (big-endian):
//
//	message: magic(1) kind(1) shards(1) ngroups(1) sender(4) seq(8)
//	         then per group: len(1) bytes, then the application payload
//	skip:    magic(1) kind(1) count(4) sender(4) seq(8)
const (
	envMagic    = 0xB7
	envKindMsg  = 1
	envKindSkip = 2

	envMsgHeader = 1 + 1 + 1 + 1 + 4 + 8
	envSkipLen   = 1 + 1 + 4 + 4 + 8
	// EnvelopeOverhead is the worst-case envelope size for a single-group
	// message, for payload budget arithmetic.
	EnvelopeOverhead = envMsgHeader + 1 + wire.MaxGroupName
)

// Envelope errors.
var (
	// ErrBadEnvelope reports a payload that is not a well-formed shard
	// envelope.
	ErrBadEnvelope = errors.New("multiring: bad shard envelope")
)

// AppendMessageEnvelope appends a message envelope to dst and returns the
// extended slice. The payload is copied in; groups must respect
// wire.MaxGroups and wire.MaxGroupName.
func AppendMessageEnvelope(dst []byte, key MsgKey, shards int, groups []string, payload []byte) ([]byte, error) {
	if shards < 1 || shards > 255 {
		return nil, fmt.Errorf("multiring: shard count %d out of range", shards)
	}
	if len(groups) == 0 || len(groups) > wire.MaxGroups {
		return nil, fmt.Errorf("multiring: %d groups (want 1..%d)", len(groups), wire.MaxGroups)
	}
	for _, g := range groups {
		if len(g) == 0 || len(g) > wire.MaxGroupName {
			return nil, fmt.Errorf("multiring: group name length %d (want 1..%d)", len(g), wire.MaxGroupName)
		}
	}
	dst = append(dst, envMagic, envKindMsg, byte(shards), byte(len(groups)))
	dst = append(dst,
		byte(key.Sender>>24), byte(key.Sender>>16), byte(key.Sender>>8), byte(key.Sender))
	dst = appendUint64(dst, key.Seq)
	for _, g := range groups {
		dst = append(dst, byte(len(g)))
		dst = append(dst, g...)
	}
	return append(dst, payload...), nil
}

// AppendSkipEnvelope appends a skip envelope covering count merge turns.
func AppendSkipEnvelope(dst []byte, key MsgKey, count uint32) ([]byte, error) {
	if count < 1 {
		return nil, fmt.Errorf("multiring: skip count %d out of range", count)
	}
	dst = append(dst, envMagic, envKindSkip,
		byte(count>>24), byte(count>>16), byte(count>>8), byte(count))
	dst = append(dst,
		byte(key.Sender>>24), byte(key.Sender>>16), byte(key.Sender>>8), byte(key.Sender))
	return appendUint64(dst, key.Seq), nil
}

// DecodeEnvelope parses one delivered ring payload into a merge unit. The
// returned unit's Payload aliases pkt (group names are copied); the caller
// copies if it retains it past the packet's lifetime — ring deliveries
// hand the consumer an owned payload, so aliasing is the common case and
// free.
func DecodeEnvelope(pkt []byte) (Unit, error) {
	if len(pkt) < 2 || pkt[0] != envMagic {
		return Unit{}, ErrBadEnvelope
	}
	switch pkt[1] {
	case envKindSkip:
		if len(pkt) != envSkipLen {
			return Unit{}, fmt.Errorf("%w: skip length %d", ErrBadEnvelope, len(pkt))
		}
		count := uint32(pkt[2])<<24 | uint32(pkt[3])<<16 | uint32(pkt[4])<<8 | uint32(pkt[5])
		if count < 1 {
			return Unit{}, fmt.Errorf("%w: zero skip count", ErrBadEnvelope)
		}
		return Unit{
			Skip:      true,
			SkipCount: count,
			Key:       MsgKey{Sender: readPID(pkt[6:]), Seq: readUint64(pkt[10:])},
		}, nil
	case envKindMsg:
		if len(pkt) < envMsgHeader {
			return Unit{}, fmt.Errorf("%w: message header truncated", ErrBadEnvelope)
		}
		shards := int(pkt[2])
		ngroups := int(pkt[3])
		if shards < 1 || ngroups < 1 || ngroups > wire.MaxGroups {
			return Unit{}, fmt.Errorf("%w: shards=%d groups=%d", ErrBadEnvelope, shards, ngroups)
		}
		u := Unit{
			Shards: shards,
			Key:    MsgKey{Sender: readPID(pkt[4:]), Seq: readUint64(pkt[8:])},
			Groups: make([]string, 0, ngroups),
		}
		off := envMsgHeader
		for i := 0; i < ngroups; i++ {
			if off >= len(pkt) {
				return Unit{}, fmt.Errorf("%w: group %d truncated", ErrBadEnvelope, i)
			}
			n := int(pkt[off])
			off++
			if n == 0 || n > wire.MaxGroupName || off+n > len(pkt) {
				return Unit{}, fmt.Errorf("%w: group %d length %d", ErrBadEnvelope, i, n)
			}
			u.Groups = append(u.Groups, string(pkt[off:off+n]))
			off += n
		}
		u.Payload = pkt[off:]
		return u, nil
	default:
		return Unit{}, fmt.Errorf("%w: kind %d", ErrBadEnvelope, pkt[1])
	}
}

func appendUint64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func readPID(b []byte) wire.ParticipantID {
	return wire.ParticipantID(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]))
}

func readUint64(b []byte) uint64 {
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}
