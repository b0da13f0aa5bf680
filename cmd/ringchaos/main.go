// Command ringchaos runs seeded fault-injection campaigns against the
// network simulator (internal/netsim's cost model on the internal/enginetest
// core) and checks every run's delivery log, every incarnation's, against
// the Extended Virtual Synchrony axioms: total order of agreed delivery,
// duplicate freedom, per-sender FIFO, virtual synchrony and safe-delivery
// stability.
//
// Each seed deterministically generates a fault program — loss bursts,
// duplication, reordering delay, a partition with heal, a crash with
// restart (by membership discovery for accelring, on the static acceptor
// set for Ring Paxos) — so a failing campaign is reproduced exactly by
// rerunning its seed:
//
//	ringchaos                      # seeds 1..20, default cluster
//	ringchaos -seeds 100           # longer campaign
//	ringchaos -seed 17 -v          # reproduce one failing seed, verbosely
//	ringchaos -nodes 8 -duration 800ms -offered 300
//	ringchaos -engine ringpaxos    # same campaign against the Ring Paxos engine
//
// With -engine ringpaxos the same fault campaigns drive the Ring Paxos
// engine through the simulator's EngineFactory hook, and the log is
// checked against the total-order profile (Ring Paxos guarantees total
// order, FIFO and duplicate freedom but waives the EVS membership
// axioms — see docs/PROTOCOL.md).
//
// The process exits nonzero on the first conformance violation, printing
// the reproducing seed and command line.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"accelring"
	"accelring/internal/core"
	"accelring/internal/evscheck"
	"accelring/internal/faultplan"
	"accelring/internal/netsim"
	"accelring/internal/ringpaxos"
	"accelring/internal/wire"
)

func main() {
	os.Exit(run())
}

func run() int {
	nodes := flag.Int("nodes", 5, "ring size")
	seeds := flag.Int("seeds", 20, "run seeds 1..N")
	seed := flag.Int64("seed", 0, "run exactly this seed (overrides -seeds)")
	duration := flag.Duration("duration", 400*time.Millisecond, "fault window and measurement length")
	offered := flag.Float64("offered", 150, "aggregate offered load, Mbps")
	engineFlag := flag.String("engine", "", "ordering engine: accelring (default) or ringpaxos")
	verbose := flag.Bool("v", false, "print the fault plan and counters per seed")
	flag.Parse()
	if *nodes < 1 || *duration < time.Millisecond || *offered <= 0 {
		fmt.Fprintf(os.Stderr, "ringchaos: need -nodes >= 1, -duration >= 1ms, -offered > 0 (got %d, %s, %g)\n",
			*nodes, *duration, *offered)
		return 2
	}
	engine, err := accelring.ParseEngine(*engineFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ringchaos: %v\n", err)
		return 2
	}

	var campaign []int64
	if *seed != 0 {
		campaign = []int64{*seed}
	} else {
		for s := int64(1); s <= int64(*seeds); s++ {
			campaign = append(campaign, s)
		}
	}

	for _, s := range campaign {
		if !runSeed(s, *nodes, *duration, *offered, engine, *verbose) {
			fmt.Fprintf(os.Stderr, "\nFAIL: seed %d violated conformance\nreproduce with:\n\n"+
				"\tringchaos -seed %d -nodes %d -duration %s -offered %g -engine %s -v\n",
				s, s, *nodes, *duration, *offered, engine)
			return 1
		}
	}
	fmt.Printf("ok: %d seed(s) conformant\n", len(campaign))
	return 0
}

// runSeed executes one seeded campaign and reports conformance.
func runSeed(seed int64, nodes int, dur time.Duration, offered float64, engine accelring.EngineKind, verbose bool) bool {
	plan := faultplan.Generate(seed, nodes, dur, faultplan.ClassAll)
	cfg := netsim.Config{
		Nodes:       nodes,
		Network:     netsim.Net1G,
		Profile:     netsim.ProfileLibrary,
		Engine:      core.Config{Protocol: core.ProtocolAcceleratedRing},
		PayloadSize: 1350,
		OfferedMbps: offered,
		Service:     wire.ServiceAgreed,
		Warmup:      50 * time.Millisecond,
		Measure:     dur,
		Faults:      &plan,
	}
	check := evscheck.Options{}
	if engine == accelring.EngineRingPaxos {
		cfg.EngineFactory = func(c core.Config) (core.OrderingEngine, error) { return ringpaxos.New(c) }
		check.Profile = evscheck.ProfileTotalOrder
	}
	res, c, err := netsim.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "seed %d: %v\n", seed, err)
		return false
	}
	log := c.Log()
	if verbose {
		fmt.Printf("seed %4d: %s\n", seed, &plan)
		for _, f := range plan.Links {
			fmt.Printf("           link from=%d to=%d loss=%.3f dup=%.3f delayP=%.3f delay=%s window=[%s,%s)\n",
				f.From, f.To, f.Loss, f.Dup, f.DelayProb, f.Delay, f.Start, f.End)
		}
		for _, ev := range plan.NodeEvents() {
			fmt.Printf("           event %s node=%d group=%d at=%s\n", ev.Kind, ev.Node, ev.Group, ev.At)
		}
	}

	// The run is cut off while tokens still circulate, so tails may be
	// incomplete; the checker verifies every delivered prefix.
	vs := evscheck.Check(log, check)
	for _, v := range vs {
		fmt.Fprintf(os.Stderr, "seed %d: conformance violation: %v\n", seed, v)
	}
	status := "ok"
	if len(vs) > 0 {
		status = "FAIL"
	}
	fmt.Printf("seed %4d: %-4s  drops=%-5d dups=%-4d retrans=%-5d deliveries=%-6d digest=%.12s\n",
		seed, status, res.FaultDrops, res.FaultDups, res.Retransmits, res.Samples, evscheck.Digest(log))
	return len(vs) == 0
}
