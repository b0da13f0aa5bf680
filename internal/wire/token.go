package wire

import "fmt"

// Token is the regular token circulated around an operational ring
// (Section III-A of the paper). It is sent point-to-point (UDP unicast in
// the real transport) from each participant to its successor.
type Token struct {
	// RingID identifies the ring configuration this token belongs to.
	RingID RingID
	// TokenSeq increments on every fresh forward of the token and is used
	// to discard duplicates created by token retransmission after a
	// suspected loss. A retransmitted token carries the same TokenSeq.
	TokenSeq uint64
	// Round is the token hop count, incremented by each participant as it
	// forwards the token. Data messages stamp the sender's Round so that
	// receivers can order token processing relative to the data stream.
	Round Round
	// Seq is the highest sequence number claimed by any participant. The
	// receiver may initiate messages with sequence numbers from Seq+1.
	// Under acceleration Seq may reference messages not yet multicast.
	Seq Seq
	// ARU (all-received-up-to) is the running estimate of the highest
	// sequence number such that every participant has received every
	// message up to and including it.
	ARU Seq
	// ARUID records the participant that last lowered ARU, or zero when
	// ARU is not being held down by anyone.
	ARUID ParticipantID
	// FCC (flow control count) is the total number of multicasts —
	// retransmissions plus new messages — sent during the last full token
	// rotation.
	FCC uint32
	// RTR lists sequence numbers whose messages some participant is
	// missing and has requested for retransmission.
	RTR []Seq
}

const tokenFixedSize = 4 + // header
	12 + // ring id
	8 + // token seq
	8 + // round
	8 + // seq
	8 + // aru
	4 + // aru id
	4 + // fcc
	4 // rtr count

// EncodedSize returns the exact size of the encoded token.
func (t *Token) EncodedSize() int { return tokenFixedSize + 8*len(t.RTR) }

// AppendToken appends the encoded token to dst and returns the extended
// slice. It fails only if the RTR list exceeds MaxRTR; dst is returned
// unchanged on error. With a reused scratch (dst = scratch[:0]) it does not
// allocate.
func AppendToken(dst []byte, t *Token) ([]byte, error) {
	if len(t.RTR) > MaxRTR {
		return dst, fmt.Errorf("%w: %d rtr entries > %d", ErrTooLarge, len(t.RTR), MaxRTR)
	}
	dst = appendHeader(dst, KindToken)
	dst = appendRingID(dst, t.RingID)
	dst = appendU64(dst, t.TokenSeq)
	dst = appendU64(dst, uint64(t.Round))
	dst = appendU64(dst, uint64(t.Seq))
	dst = appendU64(dst, uint64(t.ARU))
	dst = appendU32(dst, uint32(t.ARUID))
	dst = appendU32(dst, t.FCC)
	dst = appendU32(dst, uint32(len(t.RTR)))
	for _, s := range t.RTR {
		dst = appendU64(dst, uint64(s))
	}
	return dst, nil
}

// DecodeTokenInto parses a token packet into t, which the caller provides.
// t.RTR's existing capacity is reused when possible (append semantics), so
// a loop that decodes into the same Token amortizes the RTR allocation to
// zero. The decoded RTR never aliases pkt. On error t is left in an
// unspecified state but its RTR capacity is preserved for reuse.
func DecodeTokenInto(t *Token, pkt []byte) error {
	r := reader{buf: pkt}
	r.header(KindToken)
	t.RingID = decodeRingID(&r)
	t.TokenSeq = r.u64()
	t.Round = Round(r.u64())
	t.Seq = Seq(r.u64())
	t.ARU = Seq(r.u64())
	t.ARUID = ParticipantID(r.u32())
	t.FCC = r.u32()
	n := r.u32()
	if n > MaxRTR {
		return fmt.Errorf("%w: %d rtr entries > %d", ErrTooLarge, n, MaxRTR)
	}
	if cap(t.RTR) < int(n) {
		// One exact-size allocation instead of append's doubling growth;
		// n is bounded, so a hostile count cannot balloon this.
		t.RTR = make([]Seq, 0, n)
	} else {
		t.RTR = t.RTR[:0]
	}
	for i := uint32(0); i < n && r.err == nil; i++ {
		t.RTR = append(t.RTR, Seq(r.u64()))
	}
	return r.finish()
}

// DecodeToken parses a token packet into a fresh Token. The returned
// token's RTR slice does not alias pkt and is nil when the list is empty.
func DecodeToken(pkt []byte) (*Token, error) {
	var t Token
	if err := DecodeTokenInto(&t, pkt); err != nil {
		return nil, err
	}
	if len(t.RTR) == 0 {
		t.RTR = nil
	}
	return &t, nil
}

// Clone returns a deep copy of the token, so that a forwarded token can be
// retained for retransmission while the engine mutates its working copy.
func (t *Token) Clone() *Token {
	return t.CloneInto(nil)
}

// CloneInto deep-copies t into dst and returns dst, reusing dst's RTR
// capacity when possible. A nil dst allocates a fresh Token, so
// `retained = tok.CloneInto(retained)` works from a nil start and stops
// allocating once the retained copy's RTR capacity covers the working set.
func (t *Token) CloneInto(dst *Token) *Token {
	if dst == nil {
		dst = new(Token)
	}
	rtr := dst.RTR[:0]
	*dst = *t
	if t.RTR == nil {
		dst.RTR = nil
	} else {
		dst.RTR = append(rtr, t.RTR...)
	}
	return dst
}
