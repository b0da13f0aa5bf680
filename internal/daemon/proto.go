// Package daemon implements the Spread-like daemon architecture evaluated
// in the paper: a ring participant process that serves local clients over
// IPC sockets, manages named groups whose membership changes are totally
// ordered through the ring, and supports multi-group multicast with
// open-group semantics (senders need not be members).
package daemon

import (
	"encoding/binary"

	"accelring/internal/ipc"
	"accelring/internal/wire"
)

// Ring payload types: what daemons order through the ring on behalf of
// clients. The first byte of every ring payload is one of these.
const (
	ringApp byte = iota + 1
	ringJoin
	ringLeave
)

// Flags carried by application messages through the ring and on the
// client protocol.
const (
	// flagSelfDiscard asks the sender's daemon not to deliver the message
	// back to the sending client (Spread's SELF_DISCARD).
	flagSelfDiscard byte = 1 << iota
)

// encodeApp validates a CmdMulticast body from the client whose private
// name is sender and returns the ring payload that orders it: ringApp, the
// flags byte, the sender (length-prefixed), then the body's destination
// group list and payload verbatim — the one copy on the ingest hop, into
// the one allocation the engine retains until the message stabilizes
// ring-wide. The ring payload is therefore the body plus the
// length-prefixed sender, which is how ipc sizes its payload limit.
func encodeApp(body []byte, sender string) ([]byte, wire.Service, error) {
	svc, flags, rest, err := ipc.ParseMulticast(body, sender)
	if err != nil {
		return nil, 0, err
	}
	out := make([]byte, 0, 2+2+len(sender)+len(rest))
	out = append(out, ringApp, flags)
	out = ipc.PutString(out, sender)
	return append(out, rest...), svc, nil
}

// appMessage is a client message ordered through the ring, decoded in
// place: every field aliases the ring event's payload and is valid while
// that is.
type appMessage struct {
	flags  byte
	sender []byte // private member name, e.g. "alice@0.0.0.1"
	// groups is the destination list without its count: length-prefixed
	// names back to back, each validated to lie inside the slice.
	groups  []byte
	payload []byte
}

// decodeApp parses the body of a ringApp payload (everything after the
// type byte) without allocating.
func decodeApp(body []byte) (appMessage, error) {
	var p appMessage
	if len(body) < 1 {
		return p, ipc.ErrBadFrame
	}
	p.flags = body[0]
	var err error
	if p.sender, body, err = ipc.GetBytes(body[1:]); err != nil {
		return p, err
	}
	if len(body) < 2 {
		return p, ipc.ErrBadFrame
	}
	count := int(binary.BigEndian.Uint16(body))
	if count > wire.MaxGroups {
		return p, ipc.ErrBadFrame
	}
	p.groups = body[2:]
	rest := p.groups
	for i := 0; i < count; i++ {
		if _, rest, err = ipc.GetBytes(rest); err != nil {
			return p, err
		}
	}
	p.groups, p.payload = p.groups[:len(p.groups)-len(rest)], rest
	return p, nil
}

// membershipPayload is a group join/leave ordered through the ring.
type membershipPayload struct {
	Member string
	Group  string
}

func (p *membershipPayload) encode(typ byte) []byte {
	out := make([]byte, 0, 8+len(p.Member)+len(p.Group))
	out = append(out, typ)
	out = ipc.PutString(out, p.Member)
	out = ipc.PutString(out, p.Group)
	return out
}

func decodeMembership(body []byte) (*membershipPayload, error) {
	var p membershipPayload
	var err error
	p.Member, body, err = ipc.GetString(body)
	if err != nil {
		return nil, err
	}
	p.Group, body, err = ipc.GetString(body)
	if err != nil {
		return nil, err
	}
	if len(body) != 0 {
		return nil, ipc.ErrBadFrame
	}
	return &p, nil
}
