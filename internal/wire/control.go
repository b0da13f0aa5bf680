package wire

import "fmt"

// Control is an engine-opaque control frame: protocol traffic that only
// the sending engine's peers can interpret. The runtime, the transports
// and the fault injectors see a sender, a ring, a one-byte engine-defined
// subkind and an opaque body; it is multicast on the data socket. Ring
// Paxos carries its Phase 1/2a/catch-up messages in it (docs/PROTOCOL.md
// pins the subkinds); the Accelerated Ring engine never emits one.
type Control struct {
	// RingID identifies the configuration the frame belongs to.
	RingID RingID
	// Sender is the participant that multicast the frame.
	Sender ParticipantID
	// Sub is the engine-defined subkind.
	Sub uint8
	// Body is the engine-defined content; the codec never inspects it.
	Body []byte
}

// header, ring id, sender, subkind, body length
const controlFixedSize = 4 + 12 + 4 + 1 + 4

// EncodedSize returns the exact size of the encoded frame.
func (c *Control) EncodedSize() int { return controlFixedSize + len(c.Body) }

// AppendControl appends the encoded frame to dst and returns the extended
// slice. It fails only if the body exceeds MaxPayload; dst is returned
// unchanged on error. With a reused scratch it does not allocate.
func AppendControl(dst []byte, c *Control) ([]byte, error) {
	if len(c.Body) > MaxPayload {
		return dst, fmt.Errorf("%w: control body %d > %d", ErrTooLarge, len(c.Body), MaxPayload)
	}
	dst = appendHeader(dst, KindControl)
	dst = appendRingID(dst, c.RingID)
	dst = appendU32(dst, uint32(c.Sender))
	dst = appendU8(dst, c.Sub)
	dst = appendU32(dst, uint32(len(c.Body)))
	return append(dst, c.Body...), nil
}

// DecodeControlInto parses a control packet into c, which the caller
// provides. c.Body's existing capacity is reused (append semantics), so a
// loop decoding into the same Control stops allocating once the capacity
// covers the working set, and the decoded Body never aliases pkt. On error
// c is left in an unspecified state but its Body capacity is preserved.
func DecodeControlInto(c *Control, pkt []byte) error {
	r := reader{buf: pkt}
	r.header(KindControl)
	c.RingID = decodeRingID(&r)
	c.Sender = ParticipantID(r.u32())
	c.Sub = r.u8()
	n := r.u32()
	if n > MaxPayload {
		return fmt.Errorf("%w: control body %d > %d", ErrTooLarge, n, MaxPayload)
	}
	c.Body = append(c.Body[:0], r.take(int(n))...)
	return r.finish()
}
