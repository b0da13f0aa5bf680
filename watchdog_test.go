package accelring

import (
	"testing"
	"time"

	"accelring/internal/wire"
)

// TestWatchdogFlagsWedgedLoop wedges a node's protocol loop the way real
// deployments do it — the application stops draining Events — and asserts
// the watchdog reports the stall within two check intervals of the wedge
// becoming observable, then that the counters surface through Metrics
// once the loop is unwedged.
func TestWatchdogFlagsWedgedLoop(t *testing.T) {
	const interval = 200 * time.Millisecond
	net := NewMemoryNetwork(1)
	members := []ParticipantID{1, 2}
	stalls := make(chan StallReport, 16)

	n1, err := Start(Options{
		ID:                 1,
		Transport:          net.Endpoint(1),
		Members:            members,
		TokenLossTimeout:   200 * time.Millisecond,
		TokenRetransPeriod: 40 * time.Millisecond,
		ConsensusTimeout:   100 * time.Millisecond,
		CommitTimeout:      100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	// Node 2 is the victim: a one-slot event buffer and no draining wedges
	// its loop in deliver() as soon as two ordered events arrive.
	n2, err := Start(Options{
		ID:                 2,
		Transport:          net.Endpoint(2),
		Members:            members,
		TokenLossTimeout:   200 * time.Millisecond,
		TokenRetransPeriod: 40 * time.Millisecond,
		ConsensusTimeout:   100 * time.Millisecond,
		CommitTimeout:      100 * time.Millisecond,
		EventBuffer:        1,
		WatchdogInterval:   interval,
		OnStall:            func(r StallReport) { stalls <- r },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()

	go func() {
		// Keep node 1 submitting so node 2 has deliveries to wedge on; node
		// 1 drains its own events.
		for i := 0; i < 50; i++ {
			n1.Submit([]byte("wedge"), Agreed)
			time.Sleep(5 * time.Millisecond)
		}
	}()
	go func() {
		for range n1.Events() {
		}
	}()

	// The wedge is observable once node 2's event buffer sits full.
	var wedgedAt time.Time
	deadline := time.Now().Add(10 * time.Second)
	for {
		if len(n2.events) == cap(n2.events) {
			wedgedAt = time.Now()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("node 2 never wedged")
		}
		time.Sleep(time.Millisecond)
	}

	select {
	case r := <-stalls:
		if elapsed := time.Since(wedgedAt); elapsed > 2*interval+100*time.Millisecond {
			t.Fatalf("stall reported after %v, want within 2×%v of the wedge", elapsed, interval)
		}
		if r.Ring != -1 {
			t.Fatalf("single-node stall report carries ring %d", r.Ring)
		}
		if !r.EventQueueFull {
			t.Fatalf("stall report %+v does not name the full event queue", r)
		}
	case <-time.After(3 * interval):
		t.Fatalf("watchdog never reported the wedged loop (checks=%d)",
			n2.nm.watchdogChecks.Load())
	}

	// Unwedge and check the counters ride Metrics (which round-trips the
	// loop, so it only answers once the loop is live again).
	go func() {
		for range n2.Events() {
		}
	}()
	m, err := n2.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Runtime.WatchdogStalls == 0 || m.Runtime.WatchdogChecks == 0 {
		t.Fatalf("metrics: checks=%d stalls=%d, want both > 0",
			m.Runtime.WatchdogChecks, m.Runtime.WatchdogStalls)
	}
}

// TestWatchdogQuietWhenHealthy: a live ring (token rotating, events
// drained) must never be flagged, even across many checks. The interval
// is the test's assumption about how long the scheduler may keep the loop
// goroutine off a CPU: 20ms was flagged as a stall — correctly, by the
// watchdog's definition — on a two-P machine running four race-enabled
// packages at once.
func TestWatchdogQuietWhenHealthy(t *testing.T) {
	const interval = 100 * time.Millisecond
	net := NewMemoryNetwork(2)
	members := []ParticipantID{1, 2}
	var nodes []*Node
	for _, id := range members {
		n, err := Start(Options{
			ID:                 id,
			Transport:          net.Endpoint(id),
			Members:            members,
			TokenLossTimeout:   200 * time.Millisecond,
			TokenRetransPeriod: 40 * time.Millisecond,
			ConsensusTimeout:   100 * time.Millisecond,
			CommitTimeout:      100 * time.Millisecond,
			WatchdogInterval:   interval,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		go func() {
			for range n.Events() {
			}
		}()
		nodes = append(nodes, n)
	}
	deadline := time.Now().Add(10 * time.Second)
	for nodes[0].nm.watchdogChecks.Load() < 6 {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never accumulated checks")
		}
		time.Sleep(interval)
	}
	for _, n := range nodes {
		if s := n.nm.watchdogStalls.Load(); s != 0 {
			t.Fatalf("node %s: healthy ring flagged %d stalls", n.ID(), s)
		}
	}
}

// TestShardWatchdogFlagsFrozenRing freezes one shard of a multi-ring node
// (its ring node closed out from under the merge layer) and asserts the
// cross-ring watchdog notices it relative to the still-advancing sibling.
func TestShardWatchdogFlagsFrozenRing(t *testing.T) {
	const interval = 100 * time.Millisecond
	hubs := []*MemoryNetwork{NewMemoryNetwork(3), NewMemoryNetwork(4)}
	members := []ParticipantID{1, 2}
	stalls := make(chan StallReport, 64)
	var multis []*MultiNode
	for _, id := range members {
		transports := []Transport{hubs[0].Endpoint(id), hubs[1].Endpoint(id)}
		opts := MultiOptions{
			Node: Options{
				ID:                 id,
				Members:            members,
				TokenLossTimeout:   200 * time.Millisecond,
				TokenRetransPeriod: 40 * time.Millisecond,
				ConsensusTimeout:   100 * time.Millisecond,
				CommitTimeout:      100 * time.Millisecond,
			},
			RingTransports: transports,
			SkipInterval:   time.Millisecond,
		}
		if id == 1 {
			opts.Node.WatchdogInterval = interval
			opts.Node.OnStall = func(r StallReport) {
				select {
				case stalls <- r:
				default:
				}
			}
		}
		mn, err := StartMulti(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer mn.Close()
		go func() {
			for range mn.Events() {
			}
		}()
		multis = append(multis, mn)
	}
	watched := multis[0]

	// Wait for both rings to rotate tokens (the watchdog only trusts
	// relative progress between rings that have rotated before).
	deadline := time.Now().Add(10 * time.Second)
	for watched.Ring(0).nm.pkts[wire.KindToken].Load() == 0 || watched.Ring(1).nm.pkts[wire.KindToken].Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("rings never formed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Freeze shard 1 under this participant: its ring node dies, the
	// sibling ring keeps rotating.
	watched.Ring(1).Close()

	deadline = time.Now().Add(5 * time.Second)
	for {
		select {
		case r := <-stalls:
			if r.Ring == 1 {
				if watched.shardStalls.Load() == 0 {
					t.Fatal("stall reported but counter is zero")
				}
				return
			}
			// Ring -1 or 0 reports can happen transiently; keep waiting.
		case <-time.After(time.Until(deadline)):
			t.Fatalf("shard watchdog never flagged the frozen ring (checks=%d stalls=%d)",
				watched.shardChecks.Load(), watched.shardStalls.Load())
		}
	}
}

// startMixedEngineMultis boots two participants, each running shard 0 on
// accelring and shard 1 on ringpaxos, returning the multi-nodes in member
// order. Only participant 1 runs the shard watchdog.
func startMixedEngineMultis(t *testing.T, interval time.Duration, nodeBuf, mergedBuf int,
	onStall func(StallReport)) []*MultiNode {
	t.Helper()
	hubs := []*MemoryNetwork{NewMemoryNetwork(5), NewMemoryNetwork(6)}
	members := []ParticipantID{1, 2}
	var multis []*MultiNode
	for _, id := range members {
		opts := MultiOptions{
			Node: Options{
				ID:                 id,
				Members:            members,
				EventBuffer:        nodeBuf,
				TokenLossTimeout:   200 * time.Millisecond,
				TokenRetransPeriod: 40 * time.Millisecond,
				JoinPeriod:         20 * time.Millisecond,
				ConsensusTimeout:   100 * time.Millisecond,
				CommitTimeout:      100 * time.Millisecond,
			},
			RingTransports: []Transport{hubs[0].Endpoint(id), hubs[1].Endpoint(id)},
			Engines:        []EngineKind{EngineAccelRing, EngineRingPaxos},
			SkipInterval:   time.Millisecond,
			EventBuffer:    mergedBuf,
		}
		if id == 1 {
			opts.Node.WatchdogInterval = interval
			opts.Node.OnStall = onStall
		}
		mn, err := StartMulti(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mn.Close() })
		multis = append(multis, mn)
	}
	return multis
}

// TestShardWatchdogQuietOnIdleRingPaxosShard is the regression test for
// the mixed-engine false positive: a ringpaxos shard pauses its token
// when it has nothing to order, so a frozen token counter next to a
// still-rotating accelring sibling must not be reported as a stall.
func TestShardWatchdogQuietOnIdleRingPaxosShard(t *testing.T) {
	const interval = 100 * time.Millisecond
	stalls := make(chan StallReport, 64)
	multis := startMixedEngineMultis(t, interval, 0, 0, func(r StallReport) {
		select {
		case stalls <- r:
		default:
		}
	})
	for _, mn := range multis {
		mn := mn
		go func() {
			for range mn.Events() {
			}
		}()
	}
	watched := multis[0]

	// Put traffic through the ringpaxos shard so its token counter is
	// nonzero (the pre-fix heuristic only flagged previously-rotating
	// rings), then let it quiesce while the accelring shard keeps
	// rotating.
	for i := 0; i < 10; i++ {
		if err := watched.SubmitShard(1, "g", []byte("x"), Agreed); err != nil {
			t.Fatalf("SubmitShard: %v", err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for watched.Ring(1).nm.pkts[wire.KindToken].Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("ringpaxos shard never circulated a token")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Observe several watchdog checks during which the accelring shard
	// advances and the idle ringpaxos shard does not.
	start := watched.shardChecks.Load()
	tok0 := watched.Ring(0).nm.pkts[wire.KindToken].Load()
	deadline = time.Now().Add(10 * time.Second)
	for watched.shardChecks.Load() < start+5 {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never accumulated checks")
		}
		time.Sleep(interval / 2)
	}
	if watched.Ring(0).nm.pkts[wire.KindToken].Load() == tok0 {
		t.Fatal("accelring shard stopped rotating; test premise broken")
	}
	if s := watched.shardStalls.Load(); s != 0 {
		t.Fatalf("idle ringpaxos shard flagged %d stalls", s)
	}
	select {
	case r := <-stalls:
		t.Fatalf("unexpected stall report: %+v", r)
	default:
	}
}

// TestShardWatchdogFlagsWedgedRingPaxosShard checks the event-driven
// heuristic still catches a real wedge: the application stops draining
// the merged stream, the ringpaxos shard blocks mid-delivery with work
// queued, and the sibling accelring shard keeps rotating.
func TestShardWatchdogFlagsWedgedRingPaxosShard(t *testing.T) {
	const interval = 100 * time.Millisecond
	stalls := make(chan StallReport, 64)
	multis := startMixedEngineMultis(t, interval, 4, 4, func(r StallReport) {
		select {
		case stalls <- r:
		default:
		}
	})
	watched, other := multis[0], multis[1]
	// Participant 2 drains; participant 1 (watched) never reads its
	// merged events.
	go func() {
		for range other.Events() {
		}
	}()

	// Flood the ringpaxos shard from the healthy participant until the
	// watched node's buffers (events chan + mux + merged output) fill and
	// its ring-1 loop wedges mid-delivery. Backlog errors just mean the
	// pipe is full — keep nudging so pacing retransmissions keep arriving.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			other.SubmitShard(1, "g", []byte("flood"), Agreed)
			if i%64 == 63 {
				time.Sleep(time.Millisecond)
			}
		}
	}()

	// Wait on the shard watchdog's own counter: OnStall also receives the
	// per-ring node watchdogs' reports (relabeled with their shard index),
	// and the wedged ring's own watchdog typically fires first.
	var sawRingReport bool
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case r := <-stalls:
			if r.Ring != 1 {
				continue // transient per-loop (-1) or ring-0 reports
			}
			if !r.EventQueueFull && r.PendingData == 0 && r.PendingToken == 0 && r.PendingTimers == 0 {
				t.Fatalf("stall report carries no pending work: %+v", r)
			}
			sawRingReport = true
		case <-time.After(50 * time.Millisecond):
		}
		if sawRingReport && watched.shardStalls.Load() > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard watchdog never flagged the wedged ringpaxos shard (checks=%d stalls=%d report=%v)",
				watched.shardChecks.Load(), watched.shardStalls.Load(), sawRingReport)
		}
	}
}
