package main

import "fmt"

// Every benchmark message starts with this header; the rest of the payload
// is seeded filler.
//
//	sender(1) seq(8) sentNs(8)
const headerLen = 1 + 8 + 8

// checker verifies one receiver's delivery stream: per-sender sequence
// numbers gap-free, duplicate-free and FIFO; the daemon's per-group
// sequence contiguous; and a running hash over (sender, seq) that must be
// equal at both receivers after the final drain, which is total-order
// agreement across daemons.
type checker struct {
	next       [2]uint64 // next expected sequence number per sender
	groupSeq   uint64    // last per-group sequence seen (0 = none yet)
	hash       uint64
	delivered  uint64
	violations uint64
	first      string // first violation, for the report
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newChecker() *checker { return &checker{hash: fnvOffset} }

func (c *checker) violate(format string, args ...any) {
	c.violations++
	if c.first == "" {
		c.first = fmt.Sprintf(format, args...)
	}
}

// deliver records one delivery. groupSeq is the daemon's per-group sequence
// number, or 0 on stacks without a daemon.
func (c *checker) deliver(sender int, seq, groupSeq uint64) {
	c.delivered++
	switch want := c.next[sender]; {
	case seq == want:
		c.next[sender] = want + 1
	case seq > want:
		c.violate("sender %d: seq %d delivered while %d still missing (gap or reorder)", sender, seq, want)
		c.next[sender] = seq + 1
	default:
		c.violate("sender %d: seq %d delivered again or late (next expected %d)", sender, seq, want)
	}
	if groupSeq != 0 {
		if c.groupSeq != 0 && groupSeq != c.groupSeq+1 {
			c.violate("group seq %d follows %d", groupSeq, c.groupSeq)
		}
		c.groupSeq = groupSeq
	}
	for _, v := range [2]uint64{uint64(sender), seq} {
		for i := 0; i < 8; i++ {
			c.hash = (c.hash ^ (v & 0xff)) * fnvPrime
			v >>= 8
		}
	}
}
