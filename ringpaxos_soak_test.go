package accelring

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accelring/internal/evscheck"
	"accelring/internal/faultplan"
)

// paxosSoakTap records one node incarnation's delivery and configuration
// history off the Events channel, building the evscheck log the final
// conformance pass runs over.
type paxosSoakTap struct {
	mu  sync.Mutex
	log *evscheck.NodeLog
}

// drain consumes events until the node closes its channel.
func (tp *paxosSoakTap) drain(node *Node) {
	for ev := range node.Events() {
		tp.mu.Lock()
		switch e := ev.(type) {
		case Message:
			var sender, seq uint64
			if _, err := fmt.Sscanf(string(e.Payload), "px-%d-%d", &sender, &seq); err == nil {
				tp.log.Deliver(string(e.Payload), ParticipantID(sender), seq, e.Service)
			}
		case ConfigChange:
			tp.log.Install(e.Config.ID, e.Config.Members, e.Transitional)
		}
		tp.mu.Unlock()
	}
}

// delivered counts the messages the tap has recorded so far.
func (tp *paxosSoakTap) delivered() int {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	n := 0
	for _, ev := range tp.log.Events {
		if !ev.Config {
			n++
		}
	}
	return n
}

// TestRingPaxosChaosSoak is the seeded chaos soak for the Ring Paxos
// engine, run under -race in CI: five nodes over memnet with sustained
// traffic, then three acts of chaos in sequence —
//
//  1. the initial coordinator (members[0], the view-0 elect) is crashed
//     mid-Phase-2, while circulations are in flight; the survivors must
//     reform via Phase 1 and keep ordering,
//  2. a deterministic faultplan partitions and heals the network (a
//     minority split may legitimately stall everyone — only safety is
//     asserted for this window),
//  3. the crashed node restarts as a fresh incarnation with the same
//     identity and must rejoin the ring and deliver post-restart traffic
//     via the install-carries-decided catch-up.
//
// After quiescence, every incarnation's log must satisfy the total-order
// evscheck profile (the ringpaxos engine guarantees agreement on order,
// not EVS membership axioms — see docs/PROTOCOL.md). Reproduce failures
// with the same seed constants.
func TestRingPaxosChaosSoak(t *testing.T) {
	const (
		seed = 2016
		n    = 5
	)
	phase := 400 * time.Millisecond
	if testing.Short() {
		phase = 250 * time.Millisecond
	}

	net := NewMemoryNetwork(seed)
	members := make([]ParticipantID, 0, n)
	for i := 1; i <= n; i++ {
		members = append(members, ParticipantID(i))
	}
	start := func(id ParticipantID) *Node {
		node, err := Start(Options{
			ID:                 id,
			Transport:          net.Endpoint(id),
			Members:            members,
			Engine:             EngineRingPaxos,
			TokenLossTimeout:   200 * time.Millisecond,
			TokenRetransPeriod: 40 * time.Millisecond,
			JoinPeriod:         20 * time.Millisecond,
			ConsensusTimeout:   100 * time.Millisecond,
			CommitTimeout:      100 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("Start(%d): %v", id, err)
		}
		return node
	}

	var (
		wg        sync.WaitGroup
		submitted atomic.Int64
		seqs      = make([]atomic.Uint64, n) // per-sender FIFO seq, shared across incarnations
	)
	taps := map[string]*paxosSoakTap{}
	// submitter keeps node's traffic up until its stop channel closes,
	// retrying the same seq on transient failure so per-sender seqs stay
	// contiguous in submission order.
	submitter := func(node *Node, idx int, stop chan struct{}) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			seq := seqs[idx].Load() + 1 // 1-based: seq 0 disables evscheck's FIFO axiom
			if err := node.Submit([]byte(fmt.Sprintf("px-%d-%d", node.ID(), seq)), Agreed); err != nil {
				time.Sleep(2 * time.Millisecond)
				continue
			}
			seqs[idx].Add(1)
			submitted.Add(1)
			time.Sleep(time.Millisecond)
		}
	}
	spawn := func(name string, node *Node, idx int) chan struct{} {
		tap := &paxosSoakTap{log: &evscheck.NodeLog{}}
		taps[name] = tap
		stop := make(chan struct{})
		wg.Add(2)
		go func() { defer wg.Done(); tap.drain(node) }()
		go submitter(node, idx, stop)
		return stop
	}

	nodes := make([]*Node, n)
	stops := make([]chan struct{}, n)
	for i, id := range members {
		nodes[i] = start(id)
	}
	for i, id := range members {
		stops[i] = spawn(fmt.Sprint(id), nodes[i], i)
	}
	t.Cleanup(func() {
		for _, node := range nodes {
			node.Close()
		}
	})

	// Act 0: clean traffic.
	time.Sleep(phase)

	// Act 1: crash the view-0 coordinator mid-Phase-2.
	close(stops[0])
	nodes[0].Close()
	// Give failure detection (TokenLossTimeout) and Phase 1 time to run
	// before sampling progress across a full phase.
	time.Sleep(phase)
	before, err := nodes[1].Metrics()
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	time.Sleep(phase)
	after, err := nodes[1].Metrics()
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if after.Engine.Delivered <= before.Engine.Delivered {
		t.Errorf("survivors stalled after coordinator crash: %d -> %d deliveries",
			before.Engine.Delivered, after.Engine.Delivered)
	}

	// Act 2: seeded partition/heal plan over the whole network.
	plan := faultplan.Generate(seed, n, phase, faultplan.ClassPartition)
	net.ApplyFaults(&plan)
	time.Sleep(phase + phase/2)
	net.ApplyFaults(nil)
	time.Sleep(phase / 2)

	// Act 3: restart-rejoin as a fresh incarnation of the same identity.
	nodes[0] = start(members[0])
	stops[0] = spawn("1b", nodes[0], 0)
	time.Sleep(phase)

	// Stop the load and wait for quiescence: total deliveries stable.
	for _, stop := range stops {
		close(stop)
	}
	deadline := time.Now().Add(15 * time.Second)
	lastTotal, stableFor := -1, 0
	for time.Now().Before(deadline) && stableFor < 3 {
		time.Sleep(100 * time.Millisecond)
		total := 0
		for _, tap := range taps {
			total += tap.delivered()
		}
		if total == lastTotal {
			stableFor++
		} else {
			lastTotal, stableFor = total, 0
		}
	}

	// Engine-labeled evidence of the chaos before shutdown: the survivors
	// must have run Phase 1 and moved the coordinator off the crashed node.
	snap, err := nodes[1].Metrics()
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	px := snap.Paxos
	if px == nil {
		t.Fatal("Metrics carries no Paxos section on a ringpaxos node")
	}
	if px.Phase1Rounds == 0 || px.ViewInstalls == 0 {
		t.Errorf("no view change recorded on a survivor: %+v", px)
	}
	if px.CoordinatorChanges == 0 {
		t.Errorf("coordinator crash did not move the coordinator: %+v", px)
	}

	for _, node := range nodes {
		node.Close()
	}
	wg.Wait()

	if submitted.Load() == 0 {
		t.Fatal("soak submitted nothing")
	}
	for _, id := range members[1:] {
		if taps[fmt.Sprint(id)].delivered() == 0 {
			t.Fatalf("survivor %s delivered nothing", id)
		}
	}
	if taps["1b"].delivered() == 0 {
		t.Fatal("rejoined incarnation delivered nothing after restart")
	}

	// Final conformance: the crashed incarnation is marked Crashed (its
	// history may end mid-flight); the run is not quiescence-aligned for
	// the rejoiner (it fast-forwarded past the prefix), so Quiescent stays
	// off and the per-pair agreement axiom carries the weight.
	taps[fmt.Sprint(members[0])].log.Crashed = true
	l := evscheck.Log{}
	for name, tap := range taps {
		l[name] = tap.log
	}
	if vs := evscheck.Check(l, evscheck.Options{Profile: evscheck.ProfileTotalOrder}); len(vs) != 0 {
		t.Fatalf("total-order violations (seed %d): %v", seed, vs)
	}
}
