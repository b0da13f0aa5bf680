package netsim

import (
	"testing"
	"time"

	"accelring/internal/core"
	"accelring/internal/evscheck"
	"accelring/internal/faultplan"
	"accelring/internal/ringpaxos"
)

// lossyPlan injects a steady mix of loss, duplication and reordering delay
// on every link for the whole run.
func lossyPlan(seed int64) *faultplan.Plan {
	return &faultplan.Plan{
		Seed: seed,
		Links: []faultplan.LinkFault{{
			Loss:      0.02,
			Dup:       0.01,
			DelayProb: 0.02,
			Delay:     200 * time.Microsecond,
		}},
	}
}

func TestLossyRunRecoversAndConforms(t *testing.T) {
	cfg := quickCfg(core.ProtocolAcceleratedRing, Net1G, ProfileLibrary, 200)
	cfg.Faults = lossyPlan(42)
	res, c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := c.Log()
	if res.FaultDrops == 0 {
		t.Fatal("fault plan injected no drops")
	}
	if res.FaultDups == 0 {
		t.Fatal("fault plan injected no duplicates")
	}
	if res.Retransmits == 0 {
		t.Fatal("packet loss should force retransmissions")
	}
	if res.Samples == 0 {
		t.Fatal("no deliveries completed under loss")
	}
	// The run is cut off mid-flight (tokens circulate forever), so tails
	// may be incomplete; every delivered prefix must still conform.
	if vs := evscheck.Check(log, evscheck.Options{}); len(vs) > 0 {
		for _, v := range vs {
			t.Errorf("EVS violation: %v", v)
		}
	}
	if len(log) != cfg.Nodes {
		t.Fatalf("captured %d node logs, want %d", len(log), cfg.Nodes)
	}
}

func TestLossyRunIsDeterministic(t *testing.T) {
	run := func() (Result, string) {
		cfg := quickCfg(core.ProtocolAcceleratedRing, Net1G, ProfileLibrary, 150)
		cfg.Faults = lossyPlan(7)
		res, c, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		log := c.Log()
		return res, evscheck.Digest(log)
	}
	resA, digA := run()
	resB, digB := run()
	if resA != resB {
		t.Fatalf("two identical lossy runs disagree:\n%v\n%v", resA, resB)
	}
	if digA != digB {
		t.Fatalf("two identical lossy runs delivered different traces:\n%s\n%s", digA, digB)
	}
}

// TestCrashRestartOnCostModel crashes one node of a loaded ring and
// restarts it, for both engines: the merged log of every incarnation must
// conform to the engine's profile, and the restarted incarnation must
// deliver.
func TestCrashRestartOnCostModel(t *testing.T) {
	for _, tc := range []struct {
		name    string
		factory func(core.Config) (core.OrderingEngine, error)
		profile evscheck.Profile
	}{
		{"accelring", nil, evscheck.ProfileEVS},
		{"ringpaxos", func(c core.Config) (core.OrderingEngine, error) { return ringpaxos.New(c) }, evscheck.ProfileTotalOrder},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickCfg(core.ProtocolAcceleratedRing, Net1G, ProfileLibrary, 100)
			cfg.Nodes = 5
			cfg.EngineFactory = tc.factory
			cfg.Engine.TokenLossTimeout = 50 * time.Millisecond
			cfg.Engine.TokenRetransPeriod = 10 * time.Millisecond
			cfg.Engine.JoinPeriod = 5 * time.Millisecond
			cfg.Engine.ConsensusTimeout = 25 * time.Millisecond
			cfg.Engine.CommitTimeout = 25 * time.Millisecond
			cfg.Faults = &faultplan.Plan{Events: []faultplan.NodeEvent{
				{At: 50 * time.Millisecond, Kind: faultplan.EventCrash, Node: 3},
				{At: 120 * time.Millisecond, Kind: faultplan.EventRestart, Node: 3},
			}}
			_, c, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			log := c.Log()
			for _, v := range evscheck.Check(log, evscheck.Options{Profile: tc.profile}) {
				t.Errorf("violation: %v", v)
			}
			first, again := log["3"], log["3#2"]
			if first == nil || !first.Crashed || again == nil || again.Crashed {
				t.Fatalf("want a crashed first and a live second incarnation of node 3, log has %v and %v", first, again)
			}
			delivered := 0
			for _, ev := range again.Events {
				if !ev.Config {
					delivered++
				}
			}
			if delivered == 0 {
				t.Fatal("the restarted incarnation delivered nothing")
			}
			t.Logf("restarted incarnation delivered %d messages", delivered)
		})
	}
}

// TestCapturedCleanRunQuiescent verifies the capture path itself: a clean
// captured run must conform and deliver every submission at every node.
func TestCapturedCleanRunQuiescent(t *testing.T) {
	cfg := quickCfg(core.ProtocolAcceleratedRing, Net1G, ProfileLibrary, 100)
	res, c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := c.Log()
	if res.Samples == 0 {
		t.Fatal("no deliveries captured")
	}
	if vs := evscheck.Check(log, evscheck.Options{}); len(vs) > 0 {
		for _, v := range vs {
			t.Errorf("EVS violation: %v", v)
		}
	}
	// Every node must have logged the initial configuration.
	for name, nl := range log {
		if len(nl.Events) == 0 || !nl.Events[0].Config {
			t.Fatalf("node %s log does not start with a configuration", name)
		}
	}
}
