package main

import (
	"math"
	"slices"
)

// The benchmark keeps its own order statistics (a sort and an index) so it
// shares no code with the libraries it measures.

// quantile returns the q-quantile (0..1) of an ascending slice by linear
// interpolation between the two closest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// summary is the median and quartiles of a handful of window values.
type summary struct {
	Median float64
	Q1     float64
	Q3     float64
	N      int
}

func summarize(values []float64) summary {
	s := append([]float64(nil), values...)
	slices.Sort(s)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// minTailSamples is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minTailSamples = 10

// supportedPercentile lowers want (e.g. 0.99) to the highest percentile
// that still has minTailSamples samples beyond it among n, never below the
// median.
func supportedPercentile(n int, want float64) float64 {
	if n <= 0 {
		return 0.5
	}
	p := 1 - float64(minTailSamples)/float64(n)
	return math.Max(0.5, math.Min(want, p))
}

// latencyStats returns the median and the tail percentile (want, lowered
// by supportedPercentile when there are too few samples) of one window's
// latencies in nanoseconds, both in microseconds. It sorts ns in place.
func latencyStats(ns []uint32, want float64) (p50us, tailus, tail float64) {
	if len(ns) == 0 {
		return 0, 0, 0.5
	}
	slices.Sort(ns)
	at := func(q float64) float64 {
		return float64(ns[int(q*float64(len(ns)-1))]) / 1e3
	}
	tail = supportedPercentile(len(ns), want)
	return at(0.5), at(tail), tail
}
