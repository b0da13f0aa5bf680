package diffconform

import (
	"testing"

	"accelring/internal/faultplan"
)

// FuzzEngineEquivalence is the differential fuzz target: a fuzzed
// faultplan seed and submission-schedule shape are clamped into a small
// Scenario, the identical scenario is driven through both ordering
// engines in virtual time, and every node of both runs must deliver the
// canonical submission order. Fault classes are masked to link faults
// (loss/dup/delay) so the strict positional oracle applies — partitions
// get the weaker converged verdict in the seeded tests instead.
//
// Any crash, divergence or liveness failure found here is reproducible
// from the corpus entry alone: the Scenario is a pure function of the
// fuzzed inputs.
func FuzzEngineEquivalence(f *testing.F) {
	// Seed the corpus with the shapes the deterministic suite covers.
	f.Add(int64(1), uint8(3), uint8(12), uint8(2), uint8(faultplan.ClassLink))
	f.Add(int64(3), uint8(3), uint8(8), uint8(1), uint8(faultplan.ClassLoss))
	f.Add(int64(7), uint8(2), uint8(6), uint8(3), uint8(faultplan.ClassDelay))
	f.Add(int64(42), uint8(4), uint8(10), uint8(2), uint8(0))

	f.Fuzz(func(t *testing.T, seed int64, nodes, messages, burst, classes uint8) {
		sc := Scenario{
			Seed:     seed,
			Nodes:    2 + int(nodes%3),     // 2..4
			Messages: 1 + int(messages%12), // 1..12
			Burst:    1 + int(burst%3),     // 1..3
			Classes:  faultplan.Class(classes) & faultplan.ClassLink,
		}
		for _, e := range bothEngines {
			res, err := Run(e, sc)
			if err != nil {
				t.Fatalf("%s %s: %v", e.Name, sc, err)
			}
			if d := CheckStrict(res, sc); d != nil {
				t.Fatalf("engines diverge on %s: %v", sc, d)
			}
		}
	})
}
