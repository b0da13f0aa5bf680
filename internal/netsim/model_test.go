package netsim

import (
	"testing"
	"time"

	"accelring/internal/core"
	"accelring/internal/wire"
)

func testSim(network Network) *sim {
	cfg := Config{Network: network, Profile: ProfileLibrary, OfferedMbps: 100, PayloadSize: 1350}
	return &sim{cfg: cfg.withDefaults(), ports: make([]time.Duration, 8)}
}

func TestWireBytesSingleFrame(t *testing.T) {
	s := testSim(Net1G)
	// 1350B payload + small headers fits one frame: body + one overhead.
	if got, want := s.wireBytes(1400), 1400+Net1G.FrameOverhead; got != want {
		t.Fatalf("wireBytes(1400) = %d, want %d", got, want)
	}
}

func TestWireBytesFragmented(t *testing.T) {
	s := testSim(Net10G)
	// A 9000-byte datagram on a 1500 MTU: ceil(9000/1472) = 7 fragments.
	if got, want := s.wireBytes(9000), 9000+7*Net10G.FrameOverhead; got != want {
		t.Fatalf("wireBytes(9000) = %d, want %d", got, want)
	}
}

func TestTxDuration(t *testing.T) {
	s := testSim(Net1G)
	// 1250 bytes at 1 Gbps = 10µs.
	if got := s.txDuration(1250); got != 10*time.Microsecond {
		t.Fatalf("txDuration = %v, want 10µs", got)
	}
	s10 := testSim(Net10G)
	if got := s10.txDuration(1250); got != 1*time.Microsecond {
		t.Fatalf("txDuration@10G = %v, want 1µs", got)
	}
}

func TestForwardSerializesThroughPort(t *testing.T) {
	s := testSim(Net1G)
	// Two back-to-back packets to the same port: the second must queue
	// behind the first.
	a1, drop1 := s.forward(0, 3, 1250)
	if drop1 {
		t.Fatal("first packet dropped")
	}
	a2, drop2 := s.forward(0, 3, 1250)
	if drop2 {
		t.Fatal("second packet dropped")
	}
	if want := 10*time.Microsecond + Net1G.PropDelay; a1 != want {
		t.Fatalf("first arrival %v, want %v", a1, want)
	}
	if want := 20*time.Microsecond + Net1G.PropDelay; a2 != want {
		t.Fatalf("second arrival %v, want %v (queued)", a2, want)
	}
	// A different port is independent.
	a3, _ := s.forward(0, 4, 1250)
	if a3 != a1 {
		t.Fatalf("independent port arrival %v, want %v", a3, a1)
	}
}

func TestForwardDropsOnBufferOverflow(t *testing.T) {
	s := testSim(Net1G)
	// Stuff the port far beyond its buffer within one instant.
	pkt := 1500
	drops := 0
	for i := 0; i < 2*Net1G.SwitchPortBuf/pkt; i++ {
		if _, dropped := s.forward(0, 0, pkt); dropped {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("switch buffer never overflowed")
	}
	if s.switchDrops != uint64(drops) {
		t.Fatalf("drop counter %d, want %d", s.switchDrops, drops)
	}
	// After the backlog drains, forwarding works again.
	if _, dropped := s.forward(s.ports[0]+time.Millisecond, 0, pkt); dropped {
		t.Fatal("packet dropped after the backlog drained")
	}
}

func TestPerKB(t *testing.T) {
	if got := perKB(1024*time.Nanosecond, 1350); got != 1350*time.Nanosecond {
		t.Fatalf("perKB = %v, want 1350ns", got)
	}
	if got := perKB(0, 5000); got != 0 {
		t.Fatalf("perKB(0) = %v", got)
	}
}

func TestProfilesAreOrdered(t *testing.T) {
	// The paper's implementation ordering: library cheapest, Spread most
	// expensive (receive+deliver path), with header sizes to match.
	recvDeliver := func(p Profile) time.Duration { return p.DataRecvCost + p.DeliverCost }
	if !(recvDeliver(ProfileLibrary) < recvDeliver(ProfileDaemon) &&
		recvDeliver(ProfileDaemon) < recvDeliver(ProfileSpread)) {
		t.Fatal("profile cost ordering violated")
	}
	if !(ProfileLibrary.HeaderBytes < ProfileDaemon.HeaderBytes &&
		ProfileDaemon.HeaderBytes < ProfileSpread.HeaderBytes) {
		t.Fatal("profile header ordering violated")
	}
	// 1350B payload plus the largest header must still fit one MTU frame
	// (the paper chose 1350 for exactly this).
	if 1350+ProfileSpread.HeaderBytes > Net1G.MTU-28 {
		t.Fatal("spread header pushes a 1350B payload past the MTU")
	}
}

func TestAcceleratedBeatsOriginalAtHighLoad1G(t *testing.T) {
	// The headline qualitative claim of Figures 1-2 in one assertion:
	// at 800 Mbps on 1GbE, the accelerated protocol's latency is well
	// below the original's.
	run := func(eng core.Config) Result {
		res, _, err := Run(Config{
			Network: Net1G, Profile: ProfileSpread,
			Engine:      eng,
			PayloadSize: 1350, OfferedMbps: 800, Service: wire.ServiceAgreed,
			Warmup: 100 * time.Millisecond, Measure: 200 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	orig := run(core.OriginalRing(core.Config{}))
	accel := run(core.Config{})
	if accel.AvgLatency*2 >= orig.AvgLatency {
		t.Fatalf("accelerated %v vs original %v at 800 Mbps: want at least 2x better",
			accel.AvgLatency, orig.AvgLatency)
	}
}

func TestFigure7CrossoverMechanism(t *testing.T) {
	// At very low Safe-delivery load the original protocol must win (the
	// accelerated aru lags seq and costs an extra round), per Figure 7.
	run := func(eng core.Config) Result {
		res, _, err := Run(Config{
			Network: Net10G, Profile: ProfileSpread,
			Engine:      eng,
			PayloadSize: 1350, OfferedMbps: 100, Service: wire.ServiceSafe,
			Warmup: 100 * time.Millisecond, Measure: 200 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	orig := run(core.OriginalRing(core.Config{}))
	accel := run(core.Config{})
	if orig.AvgLatency >= accel.AvgLatency {
		t.Fatalf("at 100 Mbps safe: original %v should beat accelerated %v",
			orig.AvgLatency, accel.AvgLatency)
	}
}

func TestJumboNetworkSingleFragment(t *testing.T) {
	s := testSim(Net10G.Jumbo())
	// An 8850B payload plus the largest protocol header (8972B) fits one
	// 9000B jumbo frame (9000 − 28 IP/UDP = 8972).
	if got := s.fragments(8972); got != 1 {
		t.Fatalf("jumbo fragments(8972) = %d, want 1", got)
	}
	if got, want := s.wireBytes(8972), 8972+Net10G.FrameOverhead; got != want {
		t.Fatalf("jumbo wireBytes(8972) = %d, want %d", got, want)
	}
	// One byte past the jumbo MTU payload splits into two frames.
	if got := s.fragments(8973); got != 2 {
		t.Fatalf("jumbo fragments(8973) = %d, want 2", got)
	}
}

func TestJumboReducesLargePayloadLatency(t *testing.T) {
	run := func(network Network) Result {
		res, _, err := Run(Config{
			Network: network, Profile: ProfileSpread,
			PayloadSize: 8850, OfferedMbps: 4000, Service: wire.ServiceAgreed,
			Warmup: 60 * time.Millisecond, Measure: 150 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	std := run(Net10G)
	jumbo := run(Net10G.Jumbo())
	if jumbo.AvgLatency >= std.AvgLatency {
		t.Fatalf("jumbo latency %v >= standard %v at 4 Gbps / 8850B", jumbo.AvgLatency, std.AvgLatency)
	}
}

func TestPoissonArrivalsDeliverTheLoad(t *testing.T) {
	res, _, err := Run(Config{
		Network: Net10G, Profile: ProfileLibrary,
		PayloadSize: 1350, OfferedMbps: 1000, Service: wire.ServiceAgreed,
		Arrivals: ArrivalPoisson, Seed: 7,
		Warmup: 60 * time.Millisecond, Measure: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Poisson injection has ±sqrt(n) noise; demand within 5% of offered.
	if res.AchievedMbps < 950 || res.AchievedMbps > 1050 {
		t.Fatalf("poisson achieved %.0f Mbps, want ≈1000", res.AchievedMbps)
	}
	if res.Samples == 0 {
		t.Fatal("no samples")
	}
}

func TestPoissonLatencyExceedsCBR(t *testing.T) {
	run := func(a Arrivals) Result {
		res, _, err := Run(Config{
			Network: Net10G, Profile: ProfileSpread,
			PayloadSize: 1350, OfferedMbps: 1500, Service: wire.ServiceAgreed,
			Arrivals: a, Seed: 11,
			Warmup: 60 * time.Millisecond, Measure: 200 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cbr := run(ArrivalCBR)
	poisson := run(ArrivalPoisson)
	// Bursty arrivals queue behind token visits; p99 must reflect it.
	if poisson.P99Latency <= cbr.P99Latency {
		t.Fatalf("poisson p99 %v <= cbr p99 %v", poisson.P99Latency, cbr.P99Latency)
	}
}
