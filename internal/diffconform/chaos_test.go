package diffconform

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"accelring/internal/core"
	"accelring/internal/enginetest"
	"accelring/internal/evscheck"
	"accelring/internal/faultplan"
	"accelring/internal/netsim"
	"accelring/internal/ringpaxos"
	"accelring/internal/wire"
)

// Chaos soak, for both ordering engines on two links: each seed
// deterministically generates a fault program (loss bursts, duplication,
// reordering delay, a partition with heal, a crash with restart), runs a
// five-node cluster under traffic while the program executes, and demands
// a clean verdict under the engine's own evscheck profile on the merged
// delivery logs of every incarnation. A failure prints the plan and the
// command that reproduces it:
//
//	go test ./internal/diffconform -run '^TestChaosCampaign$/^seed=<N>$/^<engine>$/^<link>$' -v
//
// chaosNodes and chaosFaultWindow are part of the reproduction contract:
// changing them changes every seed's trace.
const (
	chaosNodes       = 5
	chaosFaultWindow = 600 * time.Millisecond
	chaosMsgsPerNode = 40
)

// chaosLink is one network a chaos seed runs on. run executes the plan on
// engine e and returns the digest of every incarnation's log and the
// checker's verdict.
type chaosLink struct {
	name string
	// runs is how many times the campaign runs a seed; every run must
	// produce the same digest.
	runs int
	run  func(e Engine, plan *faultplan.Plan) (digest string, err error)
}

var chaosLinks = []chaosLink{
	{name: "default", runs: 2, run: onDefaultLink},
	// The cost model's determinism is pinned by the seed-stable test.
	{name: "net1g", runs: 1, run: onNet1G},
}

// onDefaultLink runs the plan on enginetest's constant link under a fixed
// traffic schedule, then settles: all faults end and all crashed nodes
// restart within the window, so the cluster re-forms and drains every
// message, and the log is checked to quiescence.
func onDefaultLink(e Engine, plan *faultplan.Plan) (string, error) {
	c := enginetest.New(chaosNodes, e.New)
	c.ApplyPlan(plan)
	c.Start()
	if e.Profile == evscheck.ProfileEVS {
		// A restarted node rejoins the statically formed ring through
		// membership discovery; Ring Paxos restarts on its static acceptor
		// set.
		c.Members = nil
	}

	// Every node submits a message each 10ms of virtual time, staggered
	// per node, every fifth one with Safe service. Submissions at crashed
	// nodes are lost, as in a real outage.
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
	c.Run(chaosFaultWindow + 5*time.Second)
	return evscheck.Digest(c.Log()), c.Check(evscheck.Options{Quiescent: true, Profile: e.Profile})
}

// onNet1G runs the plan on netsim's cost model of the paper's 1 Gb testbed
// (library profile), at 150 Mbps of 1350-byte messages. The run is cut off
// while traffic still flows, so tails may be incomplete: the checker
// verifies every delivered prefix, not quiescence.
func onNet1G(e Engine, plan *faultplan.Plan) (string, error) {
	cfg := netsim.Config{
		Nodes:       chaosNodes,
		Network:     netsim.Net1G,
		Profile:     netsim.ProfileLibrary,
		Engine:      suiteTimers,
		PayloadSize: 1350,
		OfferedMbps: 150,
		Warmup:      50 * time.Millisecond,
		Measure:     chaosFaultWindow,
		Faults:      plan,
	}
	if e.Profile == evscheck.ProfileTotalOrder {
		// Restarts stay on the static acceptor set, as on the default link.
		cfg.EngineFactory = func(c core.Config) (core.OrderingEngine, error) { return ringpaxos.New(c) }
	}
	_, c, err := netsim.Run(cfg)
	if err != nil {
		return "", err
	}
	return evscheck.Digest(c.Log()), c.Check(evscheck.Options{Profile: e.Profile})
}

// runChaos runs one seed on one engine and link link.runs times, failing
// unless every run is clean and all runs produce the same digest.
func runChaos(t *testing.T, e Engine, link chaosLink, seed int64) {
	t.Helper()
	plan := faultplan.Generate(seed, chaosNodes, chaosFaultWindow, faultplan.ClassAll)
	var first string
	for i := 0; i < link.runs; i++ {
		digest, err := link.run(e, &plan)
		if err != nil {
			t.Fatalf("%v\n%s\nreproduce with:\n\n\tgo test ./internal/diffconform -run '%s' -v",
				err, describePlan(&plan), runPattern(t.Name()))
		}
		t.Logf("digest %s", digest)
		if i == 0 {
			first = digest
		} else if digest != first {
			t.Fatalf("not deterministic: two runs produced different event traces\nfirst:  %s\nsecond: %s", first, digest)
		}
	}
}

// describePlan lists every link fault and node event of the plan.
func describePlan(p *faultplan.Plan) string {
	var b strings.Builder
	b.WriteString(p.String())
	for _, f := range p.Links {
		fmt.Fprintf(&b, "\n  link from=%d to=%d loss=%.3f dup=%.3f delayP=%.3f delay=%s window=[%s,%s)",
			f.From, f.To, f.Loss, f.Dup, f.DelayProb, f.Delay, f.Start, f.End)
	}
	for _, ev := range p.NodeEvents() {
		fmt.Fprintf(&b, "\n  event %s node=%d group=%d at=%s", ev.Kind, ev.Node, ev.Group, ev.At)
	}
	return b.String()
}

// runPattern anchors every element of a test name, so the -run pattern
// selects that test alone (seed=1 without seeds 10 to 19).
func runPattern(name string) string {
	parts := strings.Split(name, "/")
	for i, p := range parts {
		parts[i] = "^" + p + "$"
	}
	return strings.Join(parts, "/")
}

func TestChaosCampaign(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for _, e := range bothEngines {
				t.Run(e.Name, func(t *testing.T) {
					for _, link := range chaosLinks {
						t.Run(link.name, func(t *testing.T) { runChaos(t, e, link, seed) })
					}
				})
			}
		})
	}
}

// TestChaosCrashPartitionSeedStable picks the first seed whose generated
// plan combines a partition with a crash/restart (the heaviest fault mix)
// and verifies that seed replays to an identical trace on both engines and
// both links.
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
	for _, e := range bothEngines {
		t.Run(e.Name, func(t *testing.T) {
			for _, link := range chaosLinks {
				link.runs = 2
				t.Run(link.name, func(t *testing.T) { runChaos(t, e, link, pin) })
			}
		})
	}
}
