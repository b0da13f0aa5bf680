package diffconform

import (
	"fmt"
	"testing"

	"accelring/internal/engine"
	"accelring/internal/enginetest"
	"accelring/internal/evscheck"
	"accelring/internal/faultplan"
	"accelring/internal/wire"
)

var bothEngines = []Engine{AccelRing, RingPaxos}

// runTwice executes one scenario twice and fails the test unless both runs
// produced the identical history: reproducibility from the Scenario alone
// is a checked property, not a promise.
func runTwice(t *testing.T, e Engine, sc Scenario) *Result {
	t.Helper()
	var digests [2]string
	var res *Result
	for i := range digests {
		var err error
		if res, err = Run(e, sc); err != nil {
			t.Fatalf("run: %v", err)
		}
		digests[i] = evscheck.Digest(res.Log)
	}
	if digests[0] != digests[1] {
		t.Fatalf("%s %s is not reproducible: digests %s and %s", e.Name, sc, digests[0], digests[1])
	}
	return res
}

// runStrict executes one scenario on one engine and fails the test on
// any divergence from the canonical order, reporting a minimized
// seed-reproducible counterexample.
func runStrict(t *testing.T, e Engine, sc Scenario) {
	t.Helper()
	if d := CheckStrict(runTwice(t, e, sc), sc); d != nil {
		t.Fatalf("%s", Minimize(e, sc, d, 12))
	}
}

// TestDifferentialStrictSeeds is the acceptance gate: the same seeded
// loss/dup/delay faultplan schedules through both engines, every node of
// every run delivering the identical canonical sequence.
func TestDifferentialStrictSeeds(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, e := range bothEngines {
			t.Run(fmt.Sprintf("seed%d/%s", seed, e.Name), func(t *testing.T) {
				runStrict(t, e, Scenario{
					Seed:     seed,
					Nodes:    3,
					Messages: 24,
					Burst:    2,
					Classes:  faultplan.ClassLink,
				})
			})
		}
	}
}

// TestDifferentialPartitionSeeds drives partition/heal schedules through
// both engines and applies the converged verdict: per-engine axiom
// conformance under each engine's own evscheck profile, and identical
// delivered sets at quiescence.
func TestDifferentialPartitionSeeds(t *testing.T) {
	for _, seed := range []int64{11, 17} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sc := Scenario{
				Seed:     seed,
				Nodes:    3,
				Messages: 18,
				Classes:  faultplan.ClassLink | faultplan.ClassPartition,
			}
			if err := CheckConverged(runTwice(t, AccelRing, sc), runTwice(t, RingPaxos, sc), sc); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// swapped breaks an engine at the Step boundary: in every output holding
// two Deliver actions from the same sender, the first two such swap
// places. Under same-sender bursts that inverts FIFO order.
type swapped struct{ enginetest.Engine }

func (s swapped) Step(in engine.Input) []engine.Action {
	acts := s.Engine.Step(in)
	first := map[wire.ParticipantID]int{}
	for i, a := range acts {
		d, ok := a.(engine.Deliver)
		if !ok {
			continue
		}
		if j, seen := first[d.Msg.PID]; seen {
			acts[i], acts[j] = acts[j], acts[i]
			break
		}
		first[d.Msg.PID] = i
	}
	return acts
}

// TestMutationProducesCounterexample is the suite's self-test: with the
// Ring Paxos engine's deliveries deliberately reordered (swapped), the
// differential suite must fail, and the failure must minimize to a
// seed-reproducible counterexample that the honest engine passes.
func TestMutationProducesCounterexample(t *testing.T) {
	mutant := RingPaxos
	mutant.New = func(id wire.ParticipantID, inc uint32) enginetest.Engine {
		return swapped{RingPaxos.New(id, inc)}
	}
	sc := Scenario{
		Seed:     3,
		Nodes:    3,
		Messages: 24,
		Burst:    2, // same-sender pairs: the swap inverts FIFO order
		Classes:  0, // no faults needed — the bug is in the engine
	}
	d := CheckStrict(runTwice(t, mutant, sc), sc)
	if d == nil {
		t.Fatal("mutated engine passed the strict check; the suite has no teeth")
	}
	ce := Minimize(mutant, sc, d, 12)
	if ce.Divergence == nil {
		t.Fatal("minimization lost the divergence")
	}
	if ce.Scenario.Messages > sc.Messages || ce.Scenario.Messages < ce.Scenario.Burst {
		t.Fatalf("minimized to nonsensical %s", ce.Scenario)
	}
	// Reproducibility: the minimized scenario must fail again from its
	// seed alone.
	if CheckStrict(runTwice(t, mutant, ce.Scenario), ce.Scenario) == nil {
		t.Fatalf("counterexample did not reproduce: %s", ce)
	}
	t.Logf("minimized: %s", ce)

	// The honest engine passes the identical scenario.
	runStrict(t, RingPaxos, ce.Scenario)
}

// TestCanonicalAndHelpers pins the schedule helpers the oracle rests on.
func TestCanonicalAndHelpers(t *testing.T) {
	sc := Scenario{Nodes: 3, Messages: 8, Burst: 2}
	want := []string{"m-1-0", "m-1-1", "m-2-0", "m-2-1", "m-3-0", "m-3-1", "m-1-2", "m-1-3"}
	got := Canonical(sc)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Canonical[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	sc = sc.withDefaults()
	// Bursts stay on one sender; steps rotate.
	if senderOf(sc, 0) != senderOf(sc, 1) || senderOf(sc, 1) == senderOf(sc, 2) {
		t.Fatalf("senderOf burst grouping broken: %d %d %d",
			senderOf(sc, 0), senderOf(sc, 1), senderOf(sc, 2))
	}
}
