// Package diffconform is the cross-engine differential conformance
// suite: the same seeded faultplan schedule is driven through the
// Accelerated Ring engine and the Ring Paxos engine on the virtual-time
// cluster driver (internal/enginetest), and the checker asserts both
// engines deliver the identical totally-ordered sequence of surviving
// submissions. A run is a pure function of its Scenario, so any divergence
// is reported as a seed-reproducible counterexample, minimized to the
// shortest failing schedule within a bounded re-run budget.
//
// The oracle rests on a closed-loop chain schedule. The driver keeps at
// most one submission step outstanding: step k (one message, or one
// same-sender burst) is submitted only after every message of step k-1
// was observed delivered. A correct total-order engine therefore has no
// ordering freedom — some node delivered step k-1 before step k existed,
// so pairwise agreement forces every node to order them the same way,
// and same-sender FIFO forces order within a burst. The canonical
// delivery sequence is thus the submission sequence itself, for ANY
// correct engine: two engines are differentially compared through a
// shared, engine-independent expectation, not against each other's
// incidental choices.
//
// Under loss, duplication and delay faults the chain merely stalls and
// recovers, so the strict (positional) check applies. Under partitions
// the EVS engine may legitimately deliver in a minority configuration
// while the majority moves on, which relaxes cross-partition relative
// order; partition scenarios are therefore held to the weaker converged
// check: per-engine axiom conformance (each engine against its own
// evscheck profile) plus cross-engine set equality of surviving
// submissions at quiescence.
//
// The package's tests also hold the seeded chaos campaign (chaos_test.go):
// every fault class, crash and restart included, through both engines on
// two links, enginetest's default link and netsim's cost model, each run
// checked against the engine's own evscheck profile.
package diffconform

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"accelring/internal/core"
	"accelring/internal/enginetest"
	"accelring/internal/evscheck"
	"accelring/internal/faultplan"
	"accelring/internal/ringpaxos"
	"accelring/internal/wire"
)

// Engine is one ordering engine under differential test.
type Engine struct {
	// Name labels runs and counterexamples.
	Name string
	// Profile is the evscheck axiom set the engine promises.
	Profile evscheck.Profile
	// New builds one node incarnation.
	New enginetest.Factory
}

// The two engines, with the suite's protocol timers.
var (
	AccelRing = Engine{Name: "accelring", Profile: evscheck.ProfileEVS,
		New: timed(func(c core.Config) (enginetest.Engine, error) { return core.New(c) })}
	RingPaxos = Engine{Name: "ringpaxos", Profile: evscheck.ProfileTotalOrder,
		New: timed(func(c core.Config) (enginetest.Engine, error) { return ringpaxos.New(c) })}
)

// suiteTimers is the protocol timer template every run here uses.
var suiteTimers = core.Config{
	TokenLossTimeout:   120 * time.Millisecond,
	TokenRetransPeriod: 25 * time.Millisecond,
	JoinPeriod:         10 * time.Millisecond,
	ConsensusTimeout:   60 * time.Millisecond,
	CommitTimeout:      50 * time.Millisecond,
}

// timed adapts an engine constructor to a Factory with the suite's timers.
func timed(build func(core.Config) (enginetest.Engine, error)) enginetest.Factory {
	return func(id wire.ParticipantID, inc uint32) enginetest.Engine {
		cfg := suiteTimers
		cfg.MyID, cfg.Incarnation = id, inc
		e, err := build(cfg)
		if err != nil {
			panic(err) // the config is constant
		}
		return e
	}
}

// Scenario is one deterministic differential schedule: everything a
// counterexample needs to reproduce a run.
type Scenario struct {
	// Seed drives the fault plan.
	Seed int64
	// Nodes is the cluster size (IDs 1..Nodes).
	Nodes int
	// Messages is the total number of chain messages.
	Messages int
	// Burst is the number of back-to-back messages one chain step submits
	// from the same sender (default 1). Bursts > 1 exercise multi-message
	// assignment batches while keeping the canonical order forced by
	// same-sender FIFO.
	Burst int
	// Classes selects the generated fault classes.
	Classes faultplan.Class
	// FaultWindow is the horizon faults are generated over; every fault
	// ends before it. Zero selects one second.
	FaultWindow time.Duration
	// StepTimeout bounds the virtual time the driver waits for one chain
	// step to deliver. Zero selects 20 seconds (hit only on real liveness
	// bugs — every generated fault expires before FaultWindow).
	StepTimeout time.Duration
}

func (sc Scenario) withDefaults() Scenario {
	if sc.Nodes == 0 {
		sc.Nodes = 3
	}
	if sc.Burst <= 0 {
		sc.Burst = 1
	}
	if sc.FaultWindow == 0 {
		sc.FaultWindow = time.Second
	}
	if sc.StepTimeout == 0 {
		sc.StepTimeout = 20 * time.Second
	}
	return sc
}

// String renders the reproduction key.
func (sc Scenario) String() string {
	return fmt.Sprintf("seed=%d nodes=%d messages=%d burst=%d classes=%#x",
		sc.Seed, sc.Nodes, sc.Messages, sc.Burst, uint8(sc.Classes))
}

// Canonical returns the delivery sequence every correct engine must
// produce for the scenario: the chain payloads in submission order.
func Canonical(sc Scenario) []string {
	sc = sc.withDefaults()
	out := make([]string, sc.Messages)
	for k := range out {
		out[k] = payloadOf(sc, k)
	}
	return out
}

// payloadOf is chain message k in enginetest's payload convention, which
// carries its sender and per-sender counter to evscheck's FIFO axiom.
func payloadOf(sc Scenario, k int) string {
	step := k / sc.Burst
	return string(enginetest.Payload(senderOf(sc, k), step/sc.Nodes*sc.Burst+k%sc.Burst))
}

// senderOf maps chain message k to its submitting node: bursts stay on
// one sender, steps rotate round-robin.
func senderOf(sc Scenario, k int) wire.ParticipantID {
	return wire.ParticipantID(k/sc.Burst%sc.Nodes + 1)
}

// Result is one engine's run outcome.
type Result struct {
	// Engine is the engine that produced the run.
	Engine Engine
	// Orders maps node label ("1".."N") to its delivered payload
	// sequence.
	Orders map[string][]string
	// Log is the evscheck view of the same histories (with configuration
	// events), for per-engine axiom checks.
	Log evscheck.Log
}

// Run executes the scenario on the given engine in virtual time and
// returns every node's delivery order. It fails only on a liveness
// timeout; ordering verdicts are the checker's job.
func Run(e Engine, sc Scenario) (*Result, error) {
	sc = sc.withDefaults()
	c := enginetest.New(sc.Nodes, e.New)
	plan := faultplan.Generate(sc.Seed, sc.Nodes, sc.FaultWindow, sc.Classes)
	c.ApplyPlan(&plan)
	c.Start()

	// reached counts the nodes that delivered payload p.
	reached := func(p string) (cnt int) {
		for _, n := range c.Nodes {
			if slices.Contains(n.Payloads(), p) {
				cnt++
			}
		}
		return cnt
	}

	// Drive the chain: submit step k's burst, then run until its last
	// message is delivered somewhere before opening step k+1. Steps are
	// paced across the fault window, so the plan acts on the chain rather
	// than after it.
	steps := (sc.Messages + sc.Burst - 1) / sc.Burst
	for k := 0; k < sc.Messages; k++ {
		if k%sc.Burst == 0 {
			if at := sc.FaultWindow * time.Duration(k/sc.Burst) / time.Duration(steps); at > c.Now() {
				c.Run(at - c.Now())
			}
		}
		p := payloadOf(sc, k)
		deadline := c.Now() + sc.StepTimeout
		for {
			err := c.Submit(senderOf(sc, k), []byte(p), wire.ServiceAgreed)
			if err == nil {
				break
			}
			if c.Now() >= deadline {
				return nil, fmt.Errorf("diffconform: %s: submit %q never accepted: %w (%s)", e.Name, p, err, sc)
			}
			c.Run(2 * time.Millisecond)
		}
		if (k+1)%sc.Burst != 0 && k != sc.Messages-1 {
			continue // within a burst: keep submitting back-to-back
		}
		if !c.RunUntil(deadline-c.Now(), func() bool { return reached(p) > 0 }) {
			return nil, fmt.Errorf("diffconform: %s: chain stalled at %q (%s)", e.Name, p, sc)
		}
	}

	// Quiescence: every node catches up on the full chain, then one settle
	// pass lets trailing duplicates and retransmissions drain.
	if sc.Messages > 0 {
		last := payloadOf(sc, sc.Messages-1)
		if !c.RunUntil(sc.StepTimeout, func() bool { return reached(last) == sc.Nodes }) {
			return nil, fmt.Errorf("diffconform: %s: nodes never converged on %q (%s)", e.Name, last, sc)
		}
	}
	c.Run(20 * time.Millisecond)

	res := &Result{Engine: e, Orders: make(map[string][]string, sc.Nodes), Log: c.Log()}
	for _, n := range c.Nodes {
		res.Orders[fmt.Sprint(uint32(n.ID))] = n.Payloads()
	}
	return res, nil
}

// Divergence describes the first point where a run left the canonical
// order.
type Divergence struct {
	// Engine and Node locate the offending delivery stream.
	Engine string
	Node   string
	// Index is the position of the first deviation; Want and Got are the
	// canonical and observed payloads there ("<none>" for a short log).
	Index int
	Want  string
	Got   string
}

// String implements fmt.Stringer.
func (d *Divergence) String() string {
	return fmt.Sprintf("engine %s node %s: delivery %d is %q, canonical order wants %q",
		d.Engine, d.Node, d.Index, d.Got, d.Want)
}

// CheckStrict compares every node's order against the canonical chain
// sequence, returning the first divergence or nil. Valid for scenarios
// whose fault classes keep all nodes in one configuration (loss,
// duplication, delay).
func CheckStrict(res *Result, sc Scenario) *Divergence {
	sc = sc.withDefaults()
	want := Canonical(sc)
	labels := make([]string, 0, len(res.Orders))
	for l := range res.Orders {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, label := range labels {
		got := res.Orders[label]
		n := len(want)
		if len(got) > n {
			n = len(got)
		}
		for i := 0; i < n; i++ {
			w, g := "<none>", "<none>"
			if i < len(want) {
				w = want[i]
			}
			if i < len(got) {
				g = got[i]
			}
			if w != g {
				return &Divergence{Engine: res.Engine.Name, Node: label, Index: i, Want: w, Got: g}
			}
		}
	}
	return nil
}

// CheckConverged applies the weaker partition-tolerant verdict to a pair
// of engine runs: each engine must satisfy its own evscheck profile, and
// at quiescence every node of both engines must have delivered the
// identical message set.
func CheckConverged(a, b *Result, sc Scenario) error {
	sc = sc.withDefaults()
	var problems []string
	for _, r := range []*Result{a, b} {
		for _, v := range evscheck.Check(r.Log, evscheck.Options{Profile: r.Engine.Profile}) {
			problems = append(problems, fmt.Sprintf("engine %s: %s", r.Engine.Name, v))
		}
	}
	want := make(map[string]bool, sc.Messages)
	for _, p := range Canonical(sc) {
		want[p] = true
	}
	for _, r := range []*Result{a, b} {
		for label, seq := range r.Orders {
			if len(seq) != len(want) {
				problems = append(problems, fmt.Sprintf(
					"engine %s node %s: delivered %d of %d messages", r.Engine.Name, label, len(seq), len(want)))
				continue
			}
			for _, p := range seq {
				if !want[p] {
					problems = append(problems, fmt.Sprintf(
						"engine %s node %s: delivered unknown message %q", r.Engine.Name, label, p))
				}
			}
		}
	}
	if len(problems) != 0 {
		sort.Strings(problems)
		return fmt.Errorf("diffconform: converged check failed (%s):\n  %s",
			sc, strings.Join(problems, "\n  "))
	}
	return nil
}

// Counterexample is a failing scenario minimized for reproduction.
type Counterexample struct {
	// Scenario reproduces the failure: Run(engine, Scenario)
	// diverges from Canonical(Scenario).
	Scenario Scenario
	// Divergence is the verdict on the minimized scenario.
	Divergence *Divergence
	// Reruns is how many minimization re-runs were spent.
	Reruns int
}

// String implements fmt.Stringer.
func (c *Counterexample) String() string {
	return fmt.Sprintf("counterexample (%s, %d minimization reruns): %s",
		c.Scenario, c.Reruns, c.Divergence)
}

// Minimize shrinks a failing strict scenario to the shortest message
// count that still diverges, within a re-run budget (each probe is a
// full run). The returned counterexample always reproduces: its final
// scenario was re-run and observed to fail.
func Minimize(e Engine, sc Scenario, firstDiv *Divergence, budget int) *Counterexample {
	sc = sc.withDefaults()
	best := sc
	bestDiv := firstDiv
	reruns := 0
	fails := func(probe Scenario) *Divergence {
		res, err := Run(e, probe)
		if err != nil {
			// A liveness failure is a reproducible failure too.
			return &Divergence{Engine: e.Name, Node: "-", Want: "<live run>", Got: err.Error()}
		}
		return CheckStrict(res, probe)
	}
	// Binary-search the smallest failing prefix length, in burst-aligned
	// steps so burst semantics are preserved.
	lo, hi := 1, best.Messages/best.Burst
	for lo < hi && reruns < budget {
		mid := (lo + hi) / 2
		probe := best
		probe.Messages = mid * probe.Burst
		reruns++
		if d := fails(probe); d != nil {
			hi = mid
			best, bestDiv = probe, d
		} else {
			lo = mid + 1
		}
	}
	return &Counterexample{Scenario: best, Divergence: bestDiv, Reruns: reruns}
}
