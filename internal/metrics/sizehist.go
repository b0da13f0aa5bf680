package metrics

import "sync/atomic"

// batchBuckets is the number of power-of-two buckets in a BatchHistogram:
// sizes 1, 2, 3–4, 5–8, … up to 513–1024, plus one overflow bucket. The
// largest batch a syscall moves is udpnet's vector length times the
// kernel's segments per super-datagram, 16 × 64 = 1024 datagrams, which is
// exactly the last sized bucket's bound; the overflow bucket stays empty.
const batchBuckets = 12

// BatchHistogram records a distribution of small positive sizes — syscall
// batch lengths, burst sizes — in power-of-two buckets. Unlike Histogram it
// is usable at its zero value, so transports can embed one per direction
// the way they embed Counters, and Observe is a single atomic add with no
// locks or allocation (it runs once per syscall on the receive hot path).
type BatchHistogram struct {
	counts [batchBuckets]atomic.Uint64
	total  atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Uint64
}

// Observe records one batch of n items. Non-positive sizes are ignored.
func (h *BatchHistogram) Observe(n int) {
	if n <= 0 {
		return
	}
	h.counts[batchBucket(n)].Add(1)
	h.total.Add(1)
	h.sum.Add(uint64(n))
	for {
		cur := h.max.Load()
		if uint64(n) <= cur || h.max.CompareAndSwap(cur, uint64(n)) {
			return
		}
	}
}

// batchBucket maps a size to its bucket index: bucket i (i >= 1) holds
// sizes in (2^(i-1), 2^i]; bucket 0 holds size 1; the last bucket is
// overflow.
func batchBucket(n int) int {
	idx := 0
	upper := 1
	for idx < batchBuckets-1 && n > upper {
		idx++
		upper *= 2
	}
	return idx
}

// BatchBucket is one bucket of a BatchSnapshot. Upper is the bucket's
// inclusive upper size bound (0 for the overflow bucket).
type BatchBucket struct {
	Upper int    `json:"upper"`
	Count uint64 `json:"count"`
}

// BatchSnapshot is a point-in-time copy of a BatchHistogram, shaped for
// JSON reports. Mean is Sum/Count — e.g. mean datagrams per syscall.
type BatchSnapshot struct {
	Count   uint64        `json:"count"`
	Sum     uint64        `json:"sum"`
	Max     uint64        `json:"max"`
	Mean    float64       `json:"mean"`
	Buckets []BatchBucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state. A histogram with no
// observations snapshots to the zero BatchSnapshot (no bucket list), so
// transports that never batch serialize compactly.
func (h *BatchHistogram) Snapshot() BatchSnapshot {
	s := BatchSnapshot{
		Count: h.total.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	if s.Count == 0 {
		return s
	}
	s.Mean = float64(s.Sum) / float64(s.Count)
	s.Buckets = make([]BatchBucket, batchBuckets)
	upper := 1
	for i := range s.Buckets {
		s.Buckets[i] = BatchBucket{Upper: upper, Count: h.counts[i].Load()}
		upper *= 2
	}
	s.Buckets[batchBuckets-1].Upper = 0 // overflow
	return s
}
