package netsim

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"accelring/internal/core"
	"accelring/internal/evscheck"
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
	// Engine is the protocol configuration template (MyID is overwritten
	// per node). Zero value means accelerated-ring defaults.
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
	// Faults optionally injects link faults (loss, duplication, delay) and
	// partitions per the plan. Crash/restart events are not supported by
	// the simulator (its nodes have no rejoin path) and are rejected.
	Faults *faultplan.Plan
	// Capture records every delivery and configuration change into an
	// evscheck.Log so the run's total-order guarantees can be verified.
	// Captured runs embed a sender/sequence tag in each payload.
	Capture bool
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

// event is one entry of the simulator's virtual-time agenda.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Sim is one simulation run.
type Sim struct {
	cfg    Config
	now    time.Duration
	events eventQueue
	evSeq  uint64

	nodes []*simNode
	ports []swPort // switch output port per node (index = node index)

	latency     metrics.Sample
	submitted   uint64
	delivered   uint64 // unique messages delivered at the reference node
	switchDrops uint64
	sockDrops   uint64

	fault      *faultplan.Injector
	faultDrops uint64
	faultDups  uint64
	capture    evscheck.Log // nil unless Config.Capture

	measureFrom time.Duration
	measureTo   time.Duration
}

// swPort is a switch output port: a drop-tail queue draining at line rate.
type swPort struct {
	freeAt time.Duration // when the port finishes its current backlog
}

// Errors returned by Run.
var errBadConfig = errors.New("netsim: invalid configuration")

// Run executes one experiment and returns its result.
func Run(cfg Config) (Result, error) {
	res, _, err := RunCapture(cfg)
	return res, err
}

// RunCapture executes one experiment and additionally returns the captured
// delivery log (nil unless cfg.Capture), suitable for evscheck.Check.
func RunCapture(cfg Config) (Result, evscheck.Log, error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes <= 0 || cfg.PayloadSize <= 8 || cfg.OfferedMbps <= 0 {
		return Result{}, nil, fmt.Errorf("%w: nodes %d payload %d offered %.1f",
			errBadConfig, cfg.Nodes, cfg.PayloadSize, cfg.OfferedMbps)
	}
	if cfg.Capture && cfg.PayloadSize < 16 {
		return Result{}, nil, fmt.Errorf("%w: capture needs PayloadSize >= 16", errBadConfig)
	}
	if cfg.Faults != nil {
		for _, ev := range cfg.Faults.Events {
			if ev.Kind == faultplan.EventCrash || ev.Kind == faultplan.EventRestart {
				return Result{}, nil, fmt.Errorf("%w: simulator does not support %v events", errBadConfig, ev.Kind)
			}
		}
	}
	s := &Sim{
		cfg:         cfg,
		nodes:       make([]*simNode, cfg.Nodes),
		ports:       make([]swPort, cfg.Nodes),
		measureFrom: cfg.Warmup,
		measureTo:   cfg.Warmup + cfg.Measure,
	}
	if cfg.Faults != nil {
		s.fault = cfg.Faults.Injector()
	}
	if cfg.Capture {
		s.capture = evscheck.Log{}
	}

	members := make([]wire.ParticipantID, cfg.Nodes)
	for i := range members {
		members[i] = wire.ParticipantID(i + 1)
	}
	newEngine := cfg.EngineFactory
	if newEngine == nil {
		newEngine = func(c core.Config) (core.OrderingEngine, error) { return core.New(c) }
	}
	for i := range s.nodes {
		ecfg := cfg.Engine
		ecfg.MyID = members[i]
		eng, err := newEngine(ecfg)
		if err != nil {
			return Result{}, nil, fmt.Errorf("netsim: %w", err)
		}
		s.nodes[i] = newSimNode(s, i, eng)
	}
	for _, n := range s.nodes {
		actions, err := n.eng.Start(members)
		if err != nil {
			return Result{}, nil, fmt.Errorf("netsim: %w", err)
		}
		n.execute(actions)
	}

	s.startGenerators()

	// Run to the end of the measurement window plus a drain period so that
	// in-flight measured messages can complete.
	end := s.measureTo + 100*time.Millisecond
	for s.events.Len() > 0 {
		ev := s.events[0]
		if ev.at > end {
			break
		}
		heap.Pop(&s.events)
		s.now = ev.at
		ev.fn()
	}

	res := Result{
		OfferedMbps: cfg.OfferedMbps,
		AvgLatency:  s.latency.Mean(),
		P50Latency:  s.latency.Percentile(50),
		P99Latency:  s.latency.Percentile(99),
		Samples:     s.latency.Count(),
		SwitchDrops: s.switchDrops,
		SockDrops:   s.sockDrops,
	}
	res.AchievedMbps = float64(s.delivered*uint64(cfg.PayloadSize)*8) /
		(cfg.Measure.Seconds() * 1e6)
	res.Stable = res.AchievedMbps >= 0.97*cfg.OfferedMbps
	res.Submitted = s.submitted
	res.FaultDrops = s.faultDrops
	res.FaultDups = s.faultDups
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
	res.Nodes = cfg.Nodes
	if rounds := float64(res.TokensHandled) / float64(cfg.Nodes); rounds > 0 {
		res.TokenRotation = time.Duration(float64(end) / rounds)
		res.MsgsPerRound = float64(res.Submitted) * float64(res.TokenRotation) /
			float64(cfg.Measure)
	}
	return res, s.capture, nil
}

func (s *Sim) schedule(at time.Duration, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.evSeq++
	heap.Push(&s.events, &event{at: at, seq: s.evSeq, fn: fn})
}

// startGenerators schedules the sending clients: each node's client injects
// equal-size messages at the configured rate — constant-rate with per-node
// phase offsets (the paper's benchmark clients), or Poisson for a burstier
// open-loop workload.
func (s *Sim) startGenerators() {
	perNodeBps := s.cfg.OfferedMbps * 1e6 / float64(s.cfg.Nodes)
	interval := time.Duration(float64(s.cfg.PayloadSize*8) / perNodeBps * float64(time.Second))
	if interval <= 0 {
		interval = time.Nanosecond
	}
	for i, n := range s.nodes {
		if s.cfg.Arrivals == ArrivalPoisson {
			rng := rand.New(rand.NewSource(s.cfg.Seed + int64(i)))
			s.schedulePoisson(n, expDelay(rng, interval), interval, rng)
			continue
		}
		phase := interval * time.Duration(i) / time.Duration(s.cfg.Nodes)
		s.scheduleInjection(n, phase, interval)
	}
}

func (s *Sim) scheduleInjection(n *simNode, at time.Duration, interval time.Duration) {
	if at > s.measureTo {
		return
	}
	s.schedule(at, func() {
		n.injectSubmission(s.now)
		s.scheduleInjection(n, at+interval, interval)
	})
}

func (s *Sim) schedulePoisson(n *simNode, at time.Duration, mean time.Duration, rng *rand.Rand) {
	if at > s.measureTo {
		return
	}
	s.schedule(at, func() {
		n.injectSubmission(s.now)
		s.schedulePoisson(n, at+expDelay(rng, mean), mean, rng)
	})
}

// expDelay draws an exponentially distributed delay with the given mean.
func expDelay(rng *rand.Rand, mean time.Duration) time.Duration {
	d := time.Duration(-math.Log(1-rng.Float64()) * float64(mean))
	if d <= 0 {
		return time.Nanosecond
	}
	return d
}

// fragments returns how many network frames carry body bytes of protocol
// payload on this network's MTU.
func (s *Sim) fragments(body int) int {
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
func (s *Sim) wireBytes(body int) int {
	return body + s.fragments(body)*s.cfg.Network.FrameOverhead
}

// txDuration returns the serialization time of n wire bytes at line rate.
func (s *Sim) txDuration(n int) time.Duration {
	return time.Duration(float64(n) * 8 / s.cfg.Network.RateBps * float64(time.Second))
}

// forward models the switch: the packet leaves the sender's NIC at txEnd,
// then queues at the destination's output port, which drains at line rate
// with a bounded drop-tail buffer. It returns the arrival time at the
// destination and whether the packet was dropped.
func (s *Sim) forward(txEnd time.Duration, dst int, bytes int) (time.Duration, bool) {
	port := &s.ports[dst]
	backlog := port.freeAt - txEnd
	if backlog < 0 {
		backlog = 0
		port.freeAt = txEnd
	}
	backlogBytes := float64(backlog) / float64(time.Second) * s.cfg.Network.RateBps / 8
	if int(backlogBytes)+bytes > s.cfg.Network.SwitchPortBuf {
		s.switchDrops++
		return 0, true
	}
	port.freeAt += s.txDuration(bytes)
	return port.freeAt + s.cfg.Network.PropDelay, false
}
