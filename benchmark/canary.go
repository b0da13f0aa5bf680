package main

import (
	"math"
	"time"
)

// canarySink keeps the compiler from discarding the canary's loop.
var canarySink uint64

// canary times a fixed pure-CPU loop: FNV-1a over 64 MiB, as 64 passes over
// a 1 MiB buffer so the benchmark's heap stays small. The sandbox drifts
// between sessions; a workload whose canaries before and after disagree ran
// on a machine that changed speed under it.
func canary() (ms float64) {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	var t0 time.Time
	h := uint64(fnvOffset)
	// Pass 0 is untimed: it faults the buffer in and wakes the core up.
	for pass := 0; pass <= 64; pass++ {
		if pass == 1 {
			t0 = time.Now()
		}
		for _, b := range buf {
			h = (h ^ uint64(b)) * fnvPrime
		}
	}
	canarySink = h
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// unsteadyShare is how far the two canaries of a workload may differ.
const unsteadyShare = 0.10

func unsteady(before, after float64) bool {
	return math.Abs(after-before) > unsteadyShare*before
}
