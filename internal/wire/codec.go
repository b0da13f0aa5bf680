package wire

import "fmt"

// The write side of the codecs is append-style: every helper takes the
// destination slice and returns the extended slice, exactly like the
// standard library's binary.BigEndian.AppendUint64. Encoding is infallible
// once sizes are validated, so no error plumbing is needed here, and a
// caller that reuses one scratch buffer across packets encodes without
// allocating (see AppendData, AppendToken, AppendJoin, AppendCommit,
// AppendControl).

func appendU8(b []byte, v uint8) []byte { return append(b, v) }

func appendBool(b []byte, v bool) []byte { return append(b, boolByte(v)) }

func appendU16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendHeader(b []byte, k Kind) []byte {
	return append(b, magic0, magic1, Version, byte(k))
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// reader consumes big-endian values from a byte slice, remembering the
// first error. After an error every subsequent read returns zero values, so
// decode functions can read unconditionally and check err once.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) remaining() int { return len(r.buf) - r.off }

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.remaining() < n {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) bool() bool { return r.u8() != 0 }

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return uint16(b[0])<<8 | uint16(b[1])
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

// bytesCopy reads n bytes and returns a copy, so decoded messages do not
// alias the (reused) receive buffer. The zero-copy decoders (DecodeDataInto)
// use take directly instead and document the aliasing.
func (r *reader) bytesCopy(n int) []byte {
	b := r.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// header validates the packet header and that the packet carries kind k.
func (r *reader) header(k Kind) {
	b := r.take(4)
	if b == nil {
		return
	}
	if b[0] != magic0 || b[1] != magic1 {
		r.fail(ErrBadMagic)
		return
	}
	if b[2] != Version {
		r.fail(fmt.Errorf("%w: %d", ErrBadVersion, b[2]))
		return
	}
	if Kind(b[3]) != k {
		r.fail(fmt.Errorf("%w: got %s, want %s", ErrBadKind, Kind(b[3]), k))
	}
}

// finish returns the accumulated error, flagging trailing garbage as
// truncation in reverse (a longer packet than the message describes).
func (r *reader) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrTruncated, r.remaining())
	}
	return nil
}

// PeekKind inspects a packet's header and returns its message kind without
// decoding the body. Transports use it to route packets.
func PeekKind(pkt []byte) (Kind, error) {
	if len(pkt) < 4 {
		return 0, ErrTruncated
	}
	if pkt[0] != magic0 || pkt[1] != magic1 {
		return 0, ErrBadMagic
	}
	if pkt[2] != Version {
		return 0, fmt.Errorf("%w: %d", ErrBadVersion, pkt[2])
	}
	k := Kind(pkt[3])
	if k < KindData || k > KindControl {
		return 0, fmt.Errorf("%w: %d", ErrBadKind, uint8(k))
	}
	return k, nil
}

func appendRingID(b []byte, id RingID) []byte {
	b = appendU32(b, uint32(id.Rep))
	return appendU64(b, id.Seq)
}

func decodeRingID(r *reader) RingID {
	return RingID{Rep: ParticipantID(r.u32()), Seq: r.u64()}
}
