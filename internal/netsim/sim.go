package netsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"accelring/internal/core"
	"accelring/internal/enginetest"
	"accelring/internal/faultplan"
	"accelring/internal/metrics"
	"accelring/internal/wire"
)

// Config describes one simulated experiment: a ring of identical nodes on
// one network, driven at a fixed aggregate offered load.
type Config struct {
	// Nodes is the ring size; the paper's evaluation uses 8.
	Nodes int
	// Network selects the modeled testbed network.
	Network Network
	// Profile selects the implementation cost profile.
	Profile Profile
	// Engine is the protocol configuration template (MyID and Incarnation
	// are filled in per node). Zero value means accelerated-ring defaults.
	Engine core.Config
	// EngineFactory, when non-nil, constructs each node's ordering engine
	// from its per-node config — the hook that runs a different protocol
	// (e.g. ringpaxos.New) through the same simulated network. Nil means
	// the Accelerated Ring engine (core.New).
	EngineFactory func(core.Config) (core.OrderingEngine, error)
	// PayloadSize is the clean application payload per message, in bytes
	// (1350 and 8850 in the paper).
	PayloadSize int
	// OfferedMbps is the aggregate offered load in megabits per second of
	// clean payload, split evenly across the nodes' sending clients.
	OfferedMbps float64
	// Service is the delivery service whose latency is measured.
	Service wire.Service
	// Warmup is virtual time to run before measuring; Measure is the
	// measured window. Zero values mean 200ms and 500ms.
	Warmup, Measure time.Duration
	// Arrivals selects the client injection process; zero means CBR.
	Arrivals Arrivals
	// Seed drives the Poisson arrival process (ignored for CBR).
	Seed int64
	// Faults optionally injects the plan's link faults, partitions,
	// crashes and restarts. A restarted node of the default engine rejoins
	// by membership discovery; an EngineFactory one on the static ring.
	Faults *faultplan.Plan
}

// Arrivals selects the workload's arrival process.
type Arrivals uint8

// Arrival processes.
const (
	// ArrivalCBR injects at a constant bit rate with per-node phase
	// offsets (the paper's benchmark clients).
	ArrivalCBR Arrivals = iota
	// ArrivalPoisson injects with exponentially distributed interarrival
	// times at the same mean rate — a burstier, more open-loop workload.
	ArrivalPoisson
)

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 8
	}
	if c.PayloadSize == 0 {
		c.PayloadSize = 1350
	}
	if c.Service == 0 {
		c.Service = wire.ServiceAgreed
	}
	if c.Warmup == 0 {
		c.Warmup = 200 * time.Millisecond
	}
	if c.Measure == 0 {
		c.Measure = 500 * time.Millisecond
	}
	if c.Engine.MaxPending == 0 {
		// The generator needs room to outrun a saturated ring without
		// Submit failing; saturation is detected from achieved throughput.
		c.Engine.MaxPending = 1 << 20
	}
	return c
}

// Result summarizes one simulated experiment.
type Result struct {
	// OfferedMbps and AchievedMbps are aggregate clean-payload rates; a
	// run is Stable when achieved tracks offered.
	OfferedMbps  float64
	AchievedMbps float64
	Stable       bool
	// Latency statistics over all deliveries, at all nodes, of messages
	// submitted inside the measurement window.
	AvgLatency time.Duration
	P50Latency time.Duration
	P99Latency time.Duration
	Samples    int
	// Loss and protocol counters, summed over nodes.
	SwitchDrops   uint64
	SockDrops     uint64
	TokensHandled uint64
	Retransmits   uint64
	PostTokenMsgs uint64
	// Nodes echoes the ring size. TokenRotation is the mean rotation time
	// over the run (simulated time divided by rounds, where one round is
	// TokensHandled/Nodes token hops per node); MsgsPerRound is the mean
	// number of client messages sequenced per rotation, ring-wide. These
	// are the derived quantities the paper's Sections IV–V reason with.
	Nodes         int
	TokenRotation time.Duration
	MsgsPerRound  float64
	// Observability counters summed over nodes: rounds where the
	// retransmission-caution rule deferred requests, rounds throttled by
	// flow control, and rounds with a post-token (accelerated) flush.
	RTRDeferredRounds   uint64
	FlowThrottledRounds uint64
	AccelFlushes        uint64
	// Submitted counts client submissions during the measurement window;
	// BacklogLeft is the total unsent backlog at the end of the run — a
	// saturated ring leaves a large backlog.
	Submitted   uint64
	BacklogLeft int
	// FaultDrops/FaultDups count injected packet faults (Config.Faults).
	FaultDrops uint64
	FaultDups  uint64
}

// String renders the result as one table row.
func (r Result) String() string {
	return fmt.Sprintf("offered %7.0f Mbps  achieved %7.0f Mbps  avg %8.0f us  p99 %8.0f us  stable=%v",
		r.OfferedMbps, r.AchievedMbps,
		float64(r.AvgLatency)/float64(time.Microsecond),
		float64(r.P99Latency)/float64(time.Microsecond), r.Stable)
}

// sim is the network half of one run: the switch, the measurement and the
// counters. The nodes are the CPU half; enginetest.Cluster is the clock.
type sim struct {
	cfg   Config
	c     *enginetest.Cluster
	nodes []*node
	ports []time.Duration // when each switch output port drains its backlog

	latency     metrics.Sample
	submitted   uint64
	delivered   uint64 // unique messages delivered at the reference node
	switchDrops uint64
	sockDrops   uint64

	measureTo time.Duration // end of the measurement window, from Warmup
}

// Run executes one experiment and returns its result and the cluster it
// ran on, whose Log is every incarnation's deliveries for evscheck.Check.
func Run(cfg Config) (Result, *enginetest.Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes <= 0 || cfg.PayloadSize <= 0 || cfg.OfferedMbps <= 0 {
		return Result{}, nil, fmt.Errorf("netsim: invalid configuration: nodes %d payload %d offered %.1f",
			cfg.Nodes, cfg.PayloadSize, cfg.OfferedMbps)
	}
	s := &sim{
		cfg:       cfg,
		nodes:     make([]*node, cfg.Nodes),
		ports:     make([]time.Duration, cfg.Nodes),
		measureTo: cfg.Warmup + cfg.Measure,
	}
	for i := range s.nodes {
		s.nodes[i] = &node{s: s, id: wire.ParticipantID(i + 1)}
	}
	newEngine := cfg.EngineFactory
	if newEngine == nil {
		newEngine = func(c core.Config) (core.OrderingEngine, error) { return core.New(c) }
	}
	var err error
	s.c = enginetest.New(cfg.Nodes, func(id wire.ParticipantID, inc uint32) enginetest.Engine {
		ecfg := cfg.Engine
		ecfg.MyID, ecfg.Incarnation = id, inc
		eng, e := newEngine(ecfg)
		s.nodes[id-1].eng, err = eng, errors.Join(err, e)
		return eng
	})
	if err != nil {
		return Result{}, nil, fmt.Errorf("netsim: %w", err)
	}
	for _, n := range s.nodes {
		s.c.Node(n.id).CPU = n
	}
	s.c.Fault = s.link
	if cfg.Faults != nil {
		s.c.ApplyPlan(cfg.Faults)
	}
	s.c.Start()
	if cfg.EngineFactory == nil {
		s.c.Members = nil // restarts rejoin by discovery
	}
	s.startGenerators()

	// Run to the end of the measurement window plus a drain period so that
	// in-flight measured messages can complete.
	end := s.measureTo + 100*time.Millisecond
	s.c.Run(end)

	res := Result{
		OfferedMbps: cfg.OfferedMbps,
		AvgLatency:  s.latency.Mean(),
		P50Latency:  s.latency.Percentile(50),
		P99Latency:  s.latency.Percentile(99),
		Samples:     s.latency.Count(),
		SwitchDrops: s.switchDrops,
		SockDrops:   s.sockDrops,
		Submitted:   s.submitted,
		FaultDrops:  s.c.FaultDrops,
		FaultDups:   s.c.FaultDups,
		Nodes:       cfg.Nodes,
	}
	res.AchievedMbps = float64(s.delivered*uint64(cfg.PayloadSize)*8) /
		(cfg.Measure.Seconds() * 1e6)
	res.Stable = res.AchievedMbps >= 0.97*cfg.OfferedMbps
	for _, n := range s.nodes {
		st := n.eng.Snapshot().Stats
		res.TokensHandled += st.TokensProcessed
		res.Retransmits += st.MsgsRetransmitted
		res.PostTokenMsgs += st.MsgsPostToken
		res.RTRDeferredRounds += st.RTRDeferredRounds
		res.FlowThrottledRounds += st.FlowThrottledRounds
		res.AccelFlushes += st.AccelFlushes
		res.BacklogLeft += n.eng.Progress().Pending
	}
	if rounds := float64(res.TokensHandled) / float64(cfg.Nodes); rounds > 0 {
		res.TokenRotation = time.Duration(float64(end) / rounds)
		res.MsgsPerRound = float64(res.Submitted) * float64(res.TokenRotation) /
			float64(cfg.Measure)
	}
	return res, s.c, nil
}

// startGenerators schedules the sending clients: each node's client injects
// equal-size messages at the configured rate — constant-rate with per-node
// phase offsets (the paper's benchmark clients), or Poisson for a burstier
// open-loop workload.
func (s *sim) startGenerators() {
	perNodeBps := s.cfg.OfferedMbps * 1e6 / float64(s.cfg.Nodes)
	interval := time.Duration(float64(s.cfg.PayloadSize*8) / perNodeBps * float64(time.Second))
	if interval <= 0 {
		interval = time.Nanosecond
	}
	for i, n := range s.nodes {
		if s.cfg.Arrivals == ArrivalPoisson {
			rng := rand.New(rand.NewSource(s.cfg.Seed + int64(i)))
			// Exponential interarrival times with the same mean.
			next := func() time.Duration {
				return max(time.Duration(-math.Log(1-rng.Float64())*float64(interval)), time.Nanosecond)
			}
			s.inject(n, next(), next)
			continue
		}
		phase := interval * time.Duration(i) / time.Duration(s.cfg.Nodes)
		s.inject(n, phase, func() time.Duration { return interval })
	}
}

// inject schedules n's client to submit at virtual time at, and again
// next() later, until the measurement window closes; each submission
// reaches the daemon's queue one IPC delay after its timestamp.
func (s *sim) inject(n *node, at time.Duration, next func() time.Duration) {
	if at > s.measureTo {
		return
	}
	s.c.After(at-s.c.Now(), func() {
		if at >= s.cfg.Warmup {
			s.submitted++
		}
		s.c.After(s.cfg.Profile.IPCDelay, func() {
			n.sent = append(n.sent, at)
			n.wake()
		})
		s.inject(n, at+next(), next)
	})
}

// record samples the latency of a delivery made at virtual time at, from
// the client's submit time (its node's side table) to one IPC delay after
// at; the reference node's deliveries also make achieved throughput.
func (s *sim) record(m *wire.DataMessage, at time.Duration, reference bool) {
	sender, i, ok := enginetest.Origin(m.Payload)
	if !ok {
		return
	}
	clientTime := s.nodes[sender-1].sent[i]
	if clientTime < s.cfg.Warmup || clientTime > s.measureTo {
		return
	}
	s.latency.Add(at + s.cfg.Profile.IPCDelay - clientTime)
	if reference {
		s.delivered++
	}
}

// size returns the modeled wire bytes of a frame of kind k encoding to
// encoded bytes and, for client data, how many frames carry it: client data
// is priced at PayloadSize (it carries only a short tag in memory).
func (s *sim) size(k wire.Kind, encoded int) (bytes, frags int) {
	if k != wire.KindData {
		return s.wireBytes(encoded), 0
	}
	body := s.cfg.Profile.HeaderBytes + s.cfg.PayloadSize
	return s.wireBytes(body), s.fragments(body)
}

// fragments returns how many network frames carry body bytes of protocol
// payload on this network's MTU.
func (s *sim) fragments(body int) int {
	mtuPayload := s.cfg.Network.MTU - 28 // IP+UDP headers per fragment
	frags := (body + mtuPayload - 1) / mtuPayload
	if frags < 1 {
		frags = 1
	}
	return frags
}

// wireBytes returns the on-the-wire size of a packet carrying body bytes of
// protocol payload (headers included), accounting for kernel fragmentation
// of datagrams larger than the MTU.
func (s *sim) wireBytes(body int) int {
	return body + s.fragments(body)*s.cfg.Network.FrameOverhead
}

// txDuration returns the serialization time of n wire bytes at line rate.
func (s *sim) txDuration(n int) time.Duration {
	return time.Duration(float64(n) * 8 / s.cfg.Network.RateBps * float64(time.Second))
}

// link is the cluster's Fault hook: a copy leaving the NIC at txEnd crosses
// the switch, except a unicast to self (singleton ring), looped back.
func (s *sim) link(txEnd time.Duration, from, to wire.ParticipantID, f wire.Frame) faultplan.Verdict {
	if from == to {
		return faultplan.Verdict{}
	}
	bytes, _ := s.size(f.Kind(), f.EncodedSize())
	arrive, dropped := s.forward(txEnd, int(to)-1, bytes)
	return faultplan.Verdict{Drop: dropped, Delay: arrive - txEnd}
}

// forward models the switch: the packet leaves the sender's NIC at txEnd,
// then queues at the destination's output port, which drains at line rate
// with a bounded drop-tail buffer. It returns the arrival time at the
// destination and whether the packet was dropped.
func (s *sim) forward(txEnd time.Duration, dst int, bytes int) (time.Duration, bool) {
	port := &s.ports[dst]
	backlog := *port - txEnd
	if backlog < 0 {
		backlog = 0
		*port = txEnd
	}
	backlogBytes := float64(backlog) / float64(time.Second) * s.cfg.Network.RateBps / 8
	if int(backlogBytes)+bytes > s.cfg.Network.SwitchPortBuf {
		s.switchDrops++
		return 0, true
	}
	*port += s.txDuration(bytes)
	return *port + s.cfg.Network.PropDelay, false
}
