package netsim

import (
	"testing"
	"time"

	"accelring/internal/core"
	"accelring/internal/wire"
)

func quickCfg(protocol core.Protocol, network Network, profile Profile, offered float64) Config {
	return Config{
		Nodes:       8,
		Network:     network,
		Profile:     profile,
		Engine:      core.Config{Protocol: protocol},
		PayloadSize: 1350,
		OfferedMbps: offered,
		Service:     wire.ServiceAgreed,
		Warmup:      100 * time.Millisecond,
		Measure:     200 * time.Millisecond,
	}
}

func TestRunValidatesConfig(t *testing.T) {
	if _, _, err := Run(Config{OfferedMbps: -1, Network: Net1G, Profile: ProfileLibrary}); err == nil {
		t.Fatal("accepted negative offered load")
	}
}

func TestModestLoadIsStable(t *testing.T) {
	res, _, err := Run(quickCfg(core.ProtocolAcceleratedRing, Net1G, ProfileLibrary, 300))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stable {
		t.Fatalf("300 Mbps on 1GbE should be stable: %v", res)
	}
	if res.Samples == 0 {
		t.Fatal("no latency samples collected")
	}
	if res.AvgLatency <= 0 || res.AvgLatency > 50*time.Millisecond {
		t.Fatalf("implausible latency: %v", res.AvgLatency)
	}
	if res.TokensHandled == 0 {
		t.Fatal("no tokens processed")
	}
}

func TestOverloadIsDetected(t *testing.T) {
	res, _, err := Run(quickCfg(core.ProtocolAcceleratedRing, Net1G, ProfileLibrary, 2000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stable {
		t.Fatalf("2 Gbps offered on a 1 Gbps link cannot be stable: %v", res)
	}
	if res.AchievedMbps > 1000 {
		t.Fatalf("achieved %v Mbps exceeds the line rate", res.AchievedMbps)
	}
}

func TestAcceleratedUsesPostTokenPhase(t *testing.T) {
	res, _, err := Run(quickCfg(core.ProtocolAcceleratedRing, Net1G, ProfileLibrary, 500))
	if err != nil {
		t.Fatal(err)
	}
	if res.PostTokenMsgs == 0 {
		t.Fatal("accelerated run sent nothing post-token")
	}
	orig, _, err := Run(quickCfg(core.ProtocolOriginalRing, Net1G, ProfileLibrary, 500))
	if err != nil {
		t.Fatal(err)
	}
	if orig.PostTokenMsgs != 0 {
		t.Fatalf("original protocol sent %d post-token messages", orig.PostTokenMsgs)
	}
}

func TestDeterministic(t *testing.T) {
	a, _, err := Run(quickCfg(core.ProtocolAcceleratedRing, Net10G, ProfileDaemon, 800))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Run(quickCfg(core.ProtocolAcceleratedRing, Net10G, ProfileDaemon, 800))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("two identical runs disagree:\n%v\n%v", a, b)
	}
}

func TestSafeLatencyExceedsAgreed(t *testing.T) {
	agreed, _, err := Run(quickCfg(core.ProtocolAcceleratedRing, Net1G, ProfileSpread, 400))
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg(core.ProtocolAcceleratedRing, Net1G, ProfileSpread, 400)
	cfg.Service = wire.ServiceSafe
	safe, _, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if safe.AvgLatency <= agreed.AvgLatency {
		t.Fatalf("safe latency %v should exceed agreed latency %v", safe.AvgLatency, agreed.AvgLatency)
	}
}

func TestLargePayloadsRaiseMaxThroughput(t *testing.T) {
	small := quickCfg(core.ProtocolAcceleratedRing, Net10G, ProfileSpread, 4000)
	res1350, _, err := Run(small)
	if err != nil {
		t.Fatal(err)
	}
	large := small
	large.PayloadSize = 8850
	res8850, _, err := Run(large)
	if err != nil {
		t.Fatal(err)
	}
	if res8850.AchievedMbps <= res1350.AchievedMbps {
		t.Fatalf("8850B payloads achieved %.0f Mbps, 1350B achieved %.0f — larger payloads must amortize processing",
			res8850.AchievedMbps, res1350.AchievedMbps)
	}
}
