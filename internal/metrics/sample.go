package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Sample accumulates duration observations and answers summary queries
// with exact percentiles — the off-hot-path complement to Histogram, for
// harnesses that can afford to keep every observation. The zero value is
// ready to use. Not safe for concurrent use.
type Sample struct {
	values []time.Duration
	sorted bool
	sum    time.Duration
}

// Add records one observation.
func (s *Sample) Add(d time.Duration) {
	s.values = append(s.values, d)
	s.sorted = false
	s.sum += d
}

// Count returns the number of observations.
func (s *Sample) Count() int { return len(s.values) }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Sample) Mean() time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	return s.sum / time.Duration(len(s.values))
}

// Min returns the smallest observation, or 0 with none.
func (s *Sample) Min() time.Duration {
	s.sort()
	if len(s.values) == 0 {
		return 0
	}
	return s.values[0]
}

// Max returns the largest observation, or 0 with none.
func (s *Sample) Max() time.Duration {
	s.sort()
	if len(s.values) == 0 {
		return 0
	}
	return s.values[len(s.values)-1]
}

// Percentile returns the p-th percentile (0 < p ≤ 100) using the
// nearest-rank method, or 0 with no observations.
func (s *Sample) Percentile(p float64) time.Duration {
	s.sort()
	n := len(s.values)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return s.values[0]
	}
	if p >= 100 {
		return s.values[n-1]
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s.values[rank-1]
}

// Stddev returns the population standard deviation, or 0 with fewer than
// two observations.
func (s *Sample) Stddev() time.Duration {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	mean := float64(s.Mean())
	var acc float64
	for _, v := range s.values {
		d := float64(v) - mean
		acc += d * d
	}
	return time.Duration(math.Sqrt(acc / float64(n)))
}

// Reset discards all observations, retaining capacity.
func (s *Sample) Reset() {
	s.values = s.values[:0]
	s.sorted = true
	s.sum = 0
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Slice(s.values, func(i, j int) bool { return s.values[i] < s.values[j] })
		s.sorted = true
	}
}

// String summarizes the sample for logs.
func (s *Sample) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		s.Count(), s.Mean(), s.Percentile(50), s.Percentile(99), s.Max())
}
