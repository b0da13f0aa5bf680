package core_test

import (
	"fmt"
	"testing"
	"time"

	"accelring/internal/diffconform"
	"accelring/internal/enginetest"
	"accelring/internal/evscheck"
	"accelring/internal/faultplan"
	"accelring/internal/wire"
)

// Chaos soak, for both ordering engines: each seed deterministically
// generates a fault program (loss bursts, duplication, reordering delay, a
// partition with heal, a crash with restart), runs a five-node cluster
// under deterministic traffic while the program executes, then demands a
// clean verdict under the engine's own evscheck profile on the merged
// delivery logs of every incarnation. Every seed runs twice and the two
// event traces must be bit-identical — a failure therefore reproduces with
//
//	go test ./internal/core -run 'TestChaosCampaign/seed=<N>/<engine>' -v
//
// chaosNodes and chaosFaultWindow are part of the reproduction contract:
// changing them changes every seed's trace.
const (
	chaosNodes       = 5
	chaosFaultWindow = 600 * time.Millisecond
	chaosMsgsPerNode = 40
)

var chaosEngines = []diffconform.Engine{diffconform.AccelRing, diffconform.RingPaxos}

// runChaosSeed executes one seeded chaos run to quiescence and returns the
// digest of the full event trace.
func runChaosSeed(t *testing.T, e diffconform.Engine, seed int64) string {
	t.Helper()
	plan := faultplan.Generate(seed, chaosNodes, chaosFaultWindow, faultplan.ClassAll)
	c := enginetest.New(chaosNodes, e.New)
	c.ApplyPlan(&plan)
	c.Start()
	if e.Profile == evscheck.ProfileEVS {
		// A restarted node rejoins the statically formed ring through
		// membership discovery; Ring Paxos restarts on its static acceptor
		// set.
		c.Members = nil
	}

	// Deterministic traffic: every node submits a message each 10ms of
	// virtual time, staggered per node, every fifth one with Safe service.
	// Submissions at crashed nodes are silently lost, as in a real outage.
	for id := wire.ParticipantID(1); id <= chaosNodes; id++ {
		for i := 0; i < chaosMsgsPerNode; i++ {
			svc := wire.ServiceAgreed
			if i%5 == 0 {
				svc = wire.ServiceSafe
			}
			at := time.Duration(i)*10*time.Millisecond + time.Duration(id)*time.Millisecond
			c.After(at, func() { _ = c.Submit(id, enginetest.Payload(id, i), svc) })
		}
	}

	// Run through the fault window, then settle: all faults end and all
	// crashed nodes restart within the window, so the cluster re-forms and
	// drains every pending message well within the settle period.
	c.Run(chaosFaultWindow + 5*time.Second)
	if err := c.Check(evscheck.Options{Quiescent: true, Profile: e.Profile}); err != nil {
		t.Fatalf("%s seed %d (%s):\n%v", e.Name, seed, &plan, err)
	}
	return evscheck.Digest(c.Log())
}

// runChaosTwice runs one seed twice and requires identical traces.
func runChaosTwice(t *testing.T, e diffconform.Engine, seed int64) {
	if first, again := runChaosSeed(t, e, seed), runChaosSeed(t, e, seed); first != again {
		t.Fatalf("%s seed %d is not deterministic: two runs produced different event traces\n"+
			"first:  %s\nsecond: %s", e.Name, seed, first, again)
	}
}

func TestChaosCampaign(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for _, e := range chaosEngines {
				t.Run(e.Name, func(t *testing.T) { runChaosTwice(t, e, seed) })
			}
		})
	}
}

// TestChaosCrashPartitionSeedStable picks the first seed whose generated
// plan combines a partition with a crash/restart (the heaviest fault mix)
// and verifies that seed replays to an identical trace on both engines.
// The search is deterministic, so the chosen seed is stable for a given
// generator.
func TestChaosCrashPartitionSeedStable(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	pin := int64(-1)
	for seed := int64(1); seed <= 200 && pin < 0; seed++ {
		plan := faultplan.Generate(seed, chaosNodes, chaosFaultWindow, faultplan.ClassAll)
		var hasCrash, hasPartition bool
		for _, ev := range plan.Events {
			hasCrash = hasCrash || ev.Kind == faultplan.EventCrash
			hasPartition = hasPartition || ev.Kind == faultplan.EventPartition
		}
		if hasCrash && hasPartition {
			pin = seed
		}
	}
	if pin < 0 {
		t.Fatal("no seed in 1..200 generates crash+partition; generator probabilities broken")
	}
	t.Logf("pinned crash+partition seed: %d", pin)
	for _, e := range chaosEngines {
		t.Run(e.Name, func(t *testing.T) { runChaosTwice(t, e, pin) })
	}
}
