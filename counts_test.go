package accelring_test

import (
	"flag"
	"math"
	"testing"

	"accelring"
)

// TestOrderedPathCounts pins the allocations per ordered message on the
// two paths the end-to-end benchmarks time: a library node's Submit to
// every node's Events (BenchmarkEndToEndMemnet), and a client's Multicast
// through its daemon and the ring to a client of another daemon
// (BenchmarkDaemonStack). Each ceiling is the benchmark's allocs/op when
// the gate was set plus the larger of three times its spread over ten runs
// and one (docs/TESTING.md, "Ordered-path counts"). A run's figure is the
// exact mean, and the gate takes the least of three half-second runs: what
// moves a run is the scheduler adding allocations (bigger or smaller
// bursts, buffer pools that a collection emptied), never taking them away.
func TestOrderedPathCounts(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	bt := flag.Lookup("test.benchtime")
	defer bt.Value.Set(bt.Value.String())
	for _, tc := range []struct {
		name      string
		bench     func(*testing.B)
		benchtime string
		runs      int
		ceiling   float64
	}{
		{"EndToEndMemnet", accelring.BenchmarkEndToEndMemnet, "20000x", 1, 8 + 1},
		{"DaemonStack", BenchmarkDaemonStack, "60000x", 3, 11 + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bt.Value.Set(tc.benchtime)
			least := math.Inf(1)
			for range tc.runs {
				r := testing.Benchmark(tc.bench)
				least = min(least, float64(r.MemAllocs)/float64(r.N))
			}
			t.Logf("%.2f allocs per ordered message", least)
			if least > tc.ceiling {
				t.Fatalf("%.2f allocs per ordered message, ceiling %.0f", least, tc.ceiling)
			}
		})
	}
}
