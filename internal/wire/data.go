package wire

import "fmt"

// DataMessage is a multicast data packet: an application payload plus the
// metadata the ordering protocol needs (Section III-B of the paper).
type DataMessage struct {
	// RingID identifies the ring configuration in which the message was
	// sequenced. Messages from foreign rings trigger membership changes
	// and are never delivered directly.
	RingID RingID
	// Seq is the message's position in the total order of its ring.
	Seq Seq
	// PID is the participant that initiated the message.
	PID ParticipantID
	// Round is the token round (hop count) in which the sender held the
	// token when it sequenced this message. The priority-switching policy
	// compares it with the round of the last token processed.
	Round Round
	// PostToken records whether the sender multicast this message in its
	// post-token phase, i.e. after forwarding the token for Round. The
	// second (conservative) priority-switching method keys on it.
	PostToken bool
	// Retrans marks a retransmission of a previously sent message.
	Retrans bool
	// Recovered marks a message re-sent during membership recovery that
	// originated in an earlier ring configuration. Its RingID is the old
	// ring's.
	Recovered bool
	// Packed marks a container of several small application payloads
	// packed into one protocol packet to amortize per-message costs
	// (Spread's message packing). The Payload is then in the
	// PackPayloads format, and every packed message shares this
	// message's Service.
	Packed bool
	// Service is the delivery guarantee requested by the sender.
	Service Service
	// Payload is the application data; the protocol never inspects it.
	Payload []byte
}

// dataFixedSize is the encoded size of everything but the payload.
const dataFixedSize = 4 + // header
	12 + // ring id
	8 + // seq
	4 + // pid
	8 + // round
	1 + // flags
	1 + // service
	4 // payload length

const (
	dataFlagPostToken = 1 << iota
	dataFlagRetrans
	dataFlagRecovered
	dataFlagPacked
)

// EncodedSize returns the exact size of the encoded message.
func (m *DataMessage) EncodedSize() int { return dataFixedSize + len(m.Payload) }

// AppendData appends the encoded message to dst and returns the extended
// slice. It is the hot-path encoder: a caller that reuses one scratch
// buffer (dst = scratch[:0]) encodes without allocating once the scratch
// has grown to the working packet size. It returns an error if the payload
// exceeds MaxPayload or the service is invalid; dst is returned unchanged
// on error.
func AppendData(dst []byte, m *DataMessage) ([]byte, error) {
	if len(m.Payload) > MaxPayload {
		return dst, fmt.Errorf("%w: payload %d > %d", ErrTooLarge, len(m.Payload), MaxPayload)
	}
	if !m.Service.Valid() {
		return dst, fmt.Errorf("wire: invalid service %d", uint8(m.Service))
	}
	dst = appendHeader(dst, KindData)
	dst = appendRingID(dst, m.RingID)
	dst = appendU64(dst, uint64(m.Seq))
	dst = appendU32(dst, uint32(m.PID))
	dst = appendU64(dst, uint64(m.Round))
	var flags uint8
	if m.PostToken {
		flags |= dataFlagPostToken
	}
	if m.Retrans {
		flags |= dataFlagRetrans
	}
	if m.Recovered {
		flags |= dataFlagRecovered
	}
	if m.Packed {
		flags |= dataFlagPacked
	}
	dst = appendU8(dst, flags)
	dst = appendU8(dst, uint8(m.Service))
	dst = appendU32(dst, uint32(len(m.Payload)))
	return append(dst, m.Payload...), nil
}

// DecodeDataInto parses a data packet into m, which the caller provides
// (typically a reused per-loop struct).
//
// Aliasing contract: m.Payload ALIASES pkt — no copy is made. The message
// is therefore only valid while pkt is; a caller that recycles pkt (e.g.
// returns it to a transport buffer pool) must either finish with m first or
// copy m.Payload before releasing. Use DecodeData for a detached message.
// All other fields are plain values and never alias pkt.
func DecodeDataInto(m *DataMessage, pkt []byte) error {
	r := reader{buf: pkt}
	r.header(KindData)
	m.RingID = decodeRingID(&r)
	m.Seq = Seq(r.u64())
	m.PID = ParticipantID(r.u32())
	m.Round = Round(r.u64())
	flags := r.u8()
	m.PostToken = flags&dataFlagPostToken != 0
	m.Retrans = flags&dataFlagRetrans != 0
	m.Recovered = flags&dataFlagRecovered != 0
	m.Packed = flags&dataFlagPacked != 0
	m.Service = Service(r.u8())
	n := r.u32()
	if n > MaxPayload {
		return fmt.Errorf("%w: payload %d > %d", ErrTooLarge, n, MaxPayload)
	}
	m.Payload = r.take(int(n))
	if err := r.finish(); err != nil {
		return err
	}
	if !m.Service.Valid() {
		return fmt.Errorf("wire: invalid service %d", uint8(m.Service))
	}
	return nil
}

// DecodeData parses a data packet. The returned message's payload is a copy
// and does not alias pkt, so it may be retained after pkt is recycled.
func DecodeData(pkt []byte) (*DataMessage, error) {
	var m DataMessage
	if err := DecodeDataInto(&m, pkt); err != nil {
		return nil, err
	}
	cp := make([]byte, len(m.Payload))
	copy(cp, m.Payload)
	m.Payload = cp
	return &m, nil
}

// MaxPacked bounds how many payloads one packed container may carry.
const MaxPacked = 256

// AppendPackedPayloads appends a packed container payload to dst: a 2-byte
// count followed by length-prefixed entries. Like AppendData it allocates
// nothing once dst's backing array has grown to the working container size;
// dst is returned unchanged on error.
func AppendPackedPayloads(dst []byte, payloads [][]byte) ([]byte, error) {
	if len(payloads) == 0 || len(payloads) > MaxPacked {
		return dst, fmt.Errorf("%w: %d packed payloads", ErrTooLarge, len(payloads))
	}
	size := 2
	for _, p := range payloads {
		size += 4 + len(p)
	}
	if size > MaxPayload {
		return dst, fmt.Errorf("%w: packed container %d > %d", ErrTooLarge, size, MaxPayload)
	}
	dst = appendU16(dst, uint16(len(payloads)))
	for _, p := range payloads {
		dst = appendU32(dst, uint32(len(p)))
		dst = append(dst, p...)
	}
	return dst, nil
}

// PackPayloads concatenates several application payloads into one packed
// container payload, freshly allocated at its exact size.
func PackPayloads(payloads [][]byte) ([]byte, error) {
	size := 2
	for _, p := range payloads {
		size += 4 + len(p)
	}
	return AppendPackedPayloads(make([]byte, 0, size), payloads)
}

// UnpackPayloads splits a packed container payload back into individual
// payloads. The returned slices alias b.
func UnpackPayloads(b []byte) ([][]byte, error) {
	r := reader{buf: b}
	n := int(r.u16())
	if n == 0 || n > MaxPacked {
		return nil, fmt.Errorf("%w: %d packed payloads", ErrTooLarge, n)
	}
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		l := int(r.u32())
		if l > MaxPayload {
			return nil, fmt.Errorf("%w: packed entry %d bytes", ErrTooLarge, l)
		}
		out = append(out, r.take(l))
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return out, nil
}
