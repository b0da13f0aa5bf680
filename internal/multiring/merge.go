// Package multiring holds the two pure algorithms of parked multi-ring
// sharding (docs/PROTOCOL.md §8): the deterministic merge that interleaves
// M per-ring total orders into one total order across shards (this file),
// and the shard envelope codec (envelope.go). No runtime drives them; the
// benchmark module times both as per-layer figures.
//
// Because the merge is a pure function of the per-ring sequences — never
// of arrival timing — every node that consumes the same per-ring streams
// produces the identical merged stream, which is what makes the result a
// total order rather than M unrelated ones. An idle ring would stall the
// round-robin at its turn, so it is padded with skip units (Multi-Ring
// Paxos's round-robin-with-skip, "Stretching Multi-Ring Paxos"). A skip is
// an ordinary ordered message on its ring, so all nodes agree on exactly
// which turns it pads; it carries a count so one message can cover a
// backlog of turns.
package multiring

import (
	"accelring/internal/wire"
)

// MsgKey globally identifies a routed message: the submitting participant
// and its submission counter. Copies of a multi-shard message on different
// rings share the key; the merger uses it to emit the message exactly once.
type MsgKey struct {
	Sender wire.ParticipantID
	Seq    uint64
}

// Unit is one slot of a ring's ordered unit stream: every data message
// delivered on a multiring ring is exactly one unit, either an application
// message or a skip. The merge consumes one unit (or one skip credit) per
// turn of its ring.
type Unit struct {
	// Skip marks a padding unit; SkipCount is the number of merge turns it
	// covers (minimum 1). The message fields below are then unused.
	Skip      bool
	SkipCount uint32

	// Key identifies the message across rings.
	Key MsgKey
	// Shards is the number of rings the message was submitted to. The
	// merger emits the message when the last copy reaches its turn.
	Shards int
	// Groups are the destination groups.
	Groups []string
	// Service is the delivery guarantee the message was submitted with.
	Service wire.Service
	// Payload is the application payload.
	Payload []byte
}

// Merged is one emission of the merge layer: a message unit plus its merge
// coordinates.
type Merged struct {
	Unit
	// Ring is the ring whose copy completed the message (for single-shard
	// messages, the ring it was ordered on).
	Ring int
	// Turn is the global merge turn at which the message was emitted.
	// Turns increase strictly within one node's merged stream, and two
	// nodes that consumed identical per-ring streams assign identical
	// turns — the cross-ring conformance checker is built on this.
	Turn uint64
}

// fifo is an amortized O(1) pop-front queue of units.
type fifo struct {
	buf  []Unit
	head int
}

func (q *fifo) push(u Unit) { q.buf = append(q.buf, u) }

func (q *fifo) pop() (Unit, bool) {
	if q.head >= len(q.buf) {
		return Unit{}, false
	}
	u := q.buf[q.head]
	q.buf[q.head] = Unit{} // release references
	q.head++
	if q.head > 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return u, true
}

// Merger deterministically interleaves M per-ring unit streams. It is not
// safe for concurrent use.
//
// The merge rule: global turn t belongs to ring t mod M. At its turn a
// ring consumes one unit of skip credit if it has any; otherwise it
// consumes its next queued unit — a skip unit grants SkipCount-1 further
// credits, a message unit is emitted (multi-shard messages on the turn of
// their last copy). A ring with neither credit nor a queued unit stalls
// the merge until input arrives or a skip is ordered on it.
type Merger struct {
	rings   int
	queues  []fifo
	credit  []uint64
	turn    uint64
	pending map[MsgKey]int
}

// NewMerger builds a merger over the given number of rings.
func NewMerger(rings int) *Merger {
	if rings <= 0 {
		panic("multiring: merger needs at least one ring")
	}
	return &Merger{
		rings:   rings,
		queues:  make([]fifo, rings),
		credit:  make([]uint64, rings),
		pending: make(map[MsgKey]int),
	}
}

// Push appends one unit to a ring's stream. Units of one ring must be
// pushed in that ring's delivery order; interleaving across rings is
// irrelevant to the merged output.
func (m *Merger) Push(ring int, u Unit) {
	m.queues[ring].push(u)
}

// Next pops the next merged message if the merge can advance without
// waiting for input, consuming skip units and credits along the way.
func (m *Merger) Next() (Merged, bool) {
	for {
		r := int(m.turn % uint64(m.rings))
		if m.credit[r] > 0 {
			m.credit[r]--
			m.turn++
			continue
		}
		u, ok := m.queues[r].pop()
		if !ok {
			return Merged{}, false
		}
		t := m.turn
		m.turn++
		if u.Skip {
			if u.SkipCount > 1 {
				m.credit[r] += uint64(u.SkipCount - 1)
			}
			continue
		}
		if u.Shards > 1 {
			seen := m.pending[u.Key] + 1
			if seen < u.Shards {
				m.pending[u.Key] = seen
				continue
			}
			delete(m.pending, u.Key)
		}
		return Merged{Unit: u, Ring: r, Turn: t}, true
	}
}
