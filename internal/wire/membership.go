package wire

import "fmt"

// JoinMessage is multicast by a participant in the Gather membership state.
// It advertises the set of participants the sender currently considers
// reachable (ProcSet) and the set it has declared failed (FailSet).
// Consensus is reached when every live member of a participant's ProcSet has
// sent a JoinMessage with identical sets.
type JoinMessage struct {
	// Sender is the participant that multicast this join.
	Sender ParticipantID
	// ProcSet is the set of participants the sender proposes for the new
	// membership, in ascending ID order.
	ProcSet []ParticipantID
	// FailSet is the subset of participants the sender has declared
	// failed (e.g. for not answering joins before the consensus timeout),
	// in ascending ID order.
	FailSet []ParticipantID
	// RingSeq is the sequence number of the sender's current (old) ring,
	// so that the new ring's sequence number can exceed every old one.
	RingSeq uint64
}

const joinFixedSize = 4 + 4 + 8 + 2 + 2

// EncodedSize returns the exact size of the encoded join.
func (j *JoinMessage) EncodedSize() int {
	return joinFixedSize + 4*(len(j.ProcSet)+len(j.FailSet))
}

// AppendJoin appends the encoded join message to dst and returns the
// extended slice; dst is returned unchanged on error.
func AppendJoin(dst []byte, j *JoinMessage) ([]byte, error) {
	if len(j.ProcSet) > MaxMembers || len(j.FailSet) > MaxMembers {
		return dst, fmt.Errorf("%w: join sets exceed %d members", ErrTooLarge, MaxMembers)
	}
	dst = appendHeader(dst, KindJoin)
	dst = appendU32(dst, uint32(j.Sender))
	dst = appendU64(dst, j.RingSeq)
	dst = appendU16(dst, uint16(len(j.ProcSet)))
	dst = appendU16(dst, uint16(len(j.FailSet)))
	for _, p := range j.ProcSet {
		dst = appendU32(dst, uint32(p))
	}
	for _, p := range j.FailSet {
		dst = appendU32(dst, uint32(p))
	}
	return dst, nil
}

// DecodeJoin parses a join packet.
func DecodeJoin(pkt []byte) (*JoinMessage, error) {
	r := reader{buf: pkt}
	r.header(KindJoin)
	var j JoinMessage
	j.Sender = ParticipantID(r.u32())
	j.RingSeq = r.u64()
	np := int(r.u16())
	nf := int(r.u16())
	if np > MaxMembers || nf > MaxMembers {
		return nil, fmt.Errorf("%w: join sets exceed %d members", ErrTooLarge, MaxMembers)
	}
	j.ProcSet = decodeIDs(&r, np)
	j.FailSet = decodeIDs(&r, nf)
	if err := r.finish(); err != nil {
		return nil, err
	}
	return &j, nil
}

func decodeIDs(r *reader, n int) []ParticipantID {
	if n == 0 {
		return nil
	}
	ids := make([]ParticipantID, n)
	for i := range ids {
		ids[i] = ParticipantID(r.u32())
	}
	return ids
}

// CommitMember is one member's entry in a commit token. The member fills in
// its old-ring state on the commit token's first rotation so that, by the
// end of the second rotation, every member knows the recovery obligations of
// every other member.
type CommitMember struct {
	// ID is the member's participant ID.
	ID ParticipantID
	// OldRingID is the ring the member belonged to before this membership
	// change.
	OldRingID RingID
	// MyARU is the member's local all-received-up-to in its old ring.
	MyARU Seq
	// HighSeq is the highest sequence number the member has received in
	// its old ring.
	HighSeq Seq
	// HighDelivered is the highest sequence number the member has
	// delivered in its old ring.
	HighDelivered Seq
	// Filled reports whether the member has populated this entry yet.
	Filled bool
}

// CommitToken forms a proposed new ring. The representative (the smallest
// participant ID in the agreed membership) creates it and sends it around
// the proposed ring twice: the first rotation collects every member's
// old-ring state; the second rotation confirms that every member saw the
// complete information and shifts members to the Recovery state.
type CommitToken struct {
	// RingID is the identifier of the new ring being formed.
	RingID RingID
	// Members lists the new ring's members in ring order (ascending ID,
	// representative first).
	Members []CommitMember
	// Rotation is 1 during the collection rotation and 2 during the
	// confirmation rotation.
	Rotation uint8
}

const commitFixedSize = 4 + 12 + 1 + 2

const commitMemberSize = 4 + 12 + 8 + 8 + 8 + 1

// EncodedSize returns the exact size of the encoded commit token.
func (c *CommitToken) EncodedSize() int {
	return commitFixedSize + commitMemberSize*len(c.Members)
}

// AppendCommit appends the encoded commit token to dst and returns the
// extended slice; dst is returned unchanged on error.
func AppendCommit(dst []byte, c *CommitToken) ([]byte, error) {
	if len(c.Members) > MaxMembers {
		return dst, fmt.Errorf("%w: %d members > %d", ErrTooLarge, len(c.Members), MaxMembers)
	}
	dst = appendHeader(dst, KindCommit)
	dst = appendRingID(dst, c.RingID)
	dst = appendU8(dst, c.Rotation)
	dst = appendU16(dst, uint16(len(c.Members)))
	for i := range c.Members {
		m := &c.Members[i]
		dst = appendU32(dst, uint32(m.ID))
		dst = appendRingID(dst, m.OldRingID)
		dst = appendU64(dst, uint64(m.MyARU))
		dst = appendU64(dst, uint64(m.HighSeq))
		dst = appendU64(dst, uint64(m.HighDelivered))
		dst = appendBool(dst, m.Filled)
	}
	return dst, nil
}

// DecodeCommit parses a commit token packet.
func DecodeCommit(pkt []byte) (*CommitToken, error) {
	r := reader{buf: pkt}
	r.header(KindCommit)
	var c CommitToken
	c.RingID = decodeRingID(&r)
	c.Rotation = r.u8()
	n := int(r.u16())
	if n > MaxMembers {
		return nil, fmt.Errorf("%w: %d members > %d", ErrTooLarge, n, MaxMembers)
	}
	if n > 0 {
		c.Members = make([]CommitMember, n)
		for i := range c.Members {
			m := &c.Members[i]
			m.ID = ParticipantID(r.u32())
			m.OldRingID = decodeRingID(&r)
			m.MyARU = Seq(r.u64())
			m.HighSeq = Seq(r.u64())
			m.HighDelivered = Seq(r.u64())
			m.Filled = r.bool()
		}
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Clone returns a deep copy of the commit token.
func (c *CommitToken) Clone() *CommitToken {
	out := *c
	if c.Members != nil {
		out.Members = make([]CommitMember, len(c.Members))
		copy(out.Members, c.Members)
	}
	return &out
}
