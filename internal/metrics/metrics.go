// Package metrics provides the cheap, lock-free instrumentation primitives
// the runtime threads through every layer: atomic counters, gauges, and
// fixed-bucket latency histograms safe for concurrent writers on the hot
// path — plus Sample, the exact-percentile collector for harnesses.
//
// The paper's entire evaluation (Sections IV–V) rests on measuring token
// rotation time, per-round message counts, retransmissions and delivery
// latency; these types are what make those quantities observable from a
// running node without slowing it down. Writers never allocate and never
// take a lock; readers get a consistent-enough snapshot for monitoring
// (individual fields are atomically read, the set is not cut at one
// instant — fine for counters that only grow).
package metrics

import (
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value. The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a fixed-bucket duration histogram with exponentially
// growing bucket bounds, safe for concurrent observers. The zero value is
// not usable; create with NewHistogram.
type Histogram struct {
	bounds []time.Duration // immutable after construction
	counts []atomic.Uint64 // len(bounds)+1; last bucket is overflow
	total  atomic.Uint64
	sum    atomic.Int64 // nanoseconds
}

// NewHistogram builds a histogram with buckets [0,first), [first,2*first),
// doubling n times; observations beyond the last bound land in the
// overflow bucket.
func NewHistogram(first time.Duration, n int) *Histogram {
	if first <= 0 || n <= 0 {
		panic("metrics: histogram needs a positive first bound and bucket count")
	}
	bounds := make([]time.Duration, n)
	b := first
	for i := range bounds {
		bounds[i] = b
		b *= 2
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, n+1)}
}

// Observe records one observation. Exponential bounds make the bucket
// index a handful of compares; no locks, no allocation.
func (h *Histogram) Observe(d time.Duration) {
	idx := 0
	for idx < len(h.bounds) && d >= h.bounds[idx] {
		idx++
	}
	h.counts[idx].Add(1)
	h.total.Add(1)
	h.sum.Add(int64(d))
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 { return h.total.Load() }

// Bucket is one histogram bucket in a snapshot. UpperNs is the bucket's
// exclusive upper bound in nanoseconds (0 for the overflow bucket).
type Bucket struct {
	UpperNs int64  `json:"upper_ns"`
	Count   uint64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram, shaped for
// JSON reports.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	MeanNs  int64    `json:"mean_ns"`
	P50Ns   int64    `json:"p50_ns"`
	P99Ns   int64    `json:"p99_ns"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Mean returns the snapshot's mean as a duration.
func (s HistogramSnapshot) Mean() time.Duration { return time.Duration(s.MeanNs) }

// P50 returns the snapshot's median estimate as a duration.
func (s HistogramSnapshot) P50() time.Duration { return time.Duration(s.P50Ns) }

// P99 returns the snapshot's 99th-percentile estimate as a duration.
func (s HistogramSnapshot) P99() time.Duration { return time.Duration(s.P99Ns) }

// Snapshot copies the histogram's current state. Quantiles are estimated
// as the upper bound of the bucket containing the quantile rank (the
// overflow bucket reports the largest finite bound), which is the usual
// fixed-bucket approximation.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Buckets: make([]Bucket, len(h.counts))}
	var sum int64
	for i := range h.counts {
		c := h.counts[i].Load()
		upper := int64(0)
		if i < len(h.bounds) {
			upper = int64(h.bounds[i])
		}
		s.Buckets[i] = Bucket{UpperNs: upper, Count: c}
		s.Count += c
	}
	sum = h.sum.Load()
	if s.Count > 0 {
		s.MeanNs = sum / int64(s.Count)
	}
	s.P50Ns = int64(s.quantile(0.50))
	s.P99Ns = int64(s.quantile(0.99))
	return s
}

// quantile estimates the q-th quantile from the snapshot's buckets.
func (s HistogramSnapshot) quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen uint64
	lastUpper := int64(0)
	for _, b := range s.Buckets {
		seen += b.Count
		if b.UpperNs != 0 {
			lastUpper = b.UpperNs
		}
		if seen > rank {
			if b.UpperNs == 0 {
				return time.Duration(lastUpper) // overflow: clamp to last bound
			}
			return time.Duration(b.UpperNs)
		}
	}
	return time.Duration(lastUpper)
}
