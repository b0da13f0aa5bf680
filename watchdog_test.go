package accelring

import (
	"testing"
	"time"
)

// watchdogEngines is the engine dimension of the watchdog tests: the
// watchdog samples the runtime's counters and queues, never the engine, so
// its verdicts must hold on both — in particular an idle Ring Paxos node,
// whose circulation pauses with nothing to decide, is not a stall.
var watchdogEngines = []EngineKind{EngineAccelRing, EngineRingPaxos}

// TestWatchdogFlagsWedgedLoop wedges a node's protocol loop the way real
// deployments do it — the application stops draining Events — and asserts
// the watchdog reports the stall within two check intervals of the wedge
// becoming observable, then that the counters surface through Metrics
// once the loop is unwedged.
func TestWatchdogFlagsWedgedLoop(t *testing.T) {
	for _, engine := range watchdogEngines {
		t.Run(string(engine), func(t *testing.T) { testWatchdogFlagsWedgedLoop(t, engine) })
	}
}

func testWatchdogFlagsWedgedLoop(t *testing.T, engine EngineKind) {
	const interval = 200 * time.Millisecond
	net := NewMemoryNetwork(1)
	members := []ParticipantID{1, 2}
	stalls := make(chan StallReport, 16)

	n1, err := Start(Options{
		ID:                 1,
		Transport:          net.Endpoint(1),
		Members:            members,
		Engine:             engine,
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
		Engine:             engine,
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

// TestWatchdogQuietWhenHealthy: a live ring (events drained) must never be
// flagged, even across many checks — whether its token keeps rotating
// (Accelerated Ring) or its circulation pauses once idle (Ring Paxos). The
// interval is the test's assumption about how long the scheduler may keep
// the loop goroutine off a CPU: 20ms was flagged as a stall — correctly,
// by the watchdog's definition — on a two-P machine running four
// race-enabled packages at once.
func TestWatchdogQuietWhenHealthy(t *testing.T) {
	for _, engine := range watchdogEngines {
		t.Run(string(engine), func(t *testing.T) { testWatchdogQuietWhenHealthy(t, engine) })
	}
}

func testWatchdogQuietWhenHealthy(t *testing.T, engine EngineKind) {
	const interval = 100 * time.Millisecond
	net := NewMemoryNetwork(2)
	members := []ParticipantID{1, 2}
	var nodes []*Node
	for _, id := range members {
		n, err := Start(Options{
			ID:                 id,
			Transport:          net.Endpoint(id),
			Members:            members,
			Engine:             engine,
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

// TestWatchdogSeesQueuedSubmissions: a loop wedged with only accepted
// submissions waiting holds messages the application was told are queued,
// so it is a stall. A solo Ring Paxos node's loop is held inside the first
// submission's Multicast while two more queue behind it: the watchdog must
// report within two intervals, naming the queued submissions. They are the
// only pending work it sees — no frames, timer fires or full event queue —
// so without PendingSubmits the wedge would go unreported.
func TestWatchdogSeesQueuedSubmissions(t *testing.T) {
	const interval = 200 * time.Millisecond
	stalls := make(chan StallReport, 16)
	rt := &recordingTransport{gate: make(chan struct{}), held: make(chan struct{}, 1)}
	n, err := Start(Options{
		ID:               1,
		Transport:        rt,
		Members:          []ParticipantID{1},
		Engine:           EngineRingPaxos,
		WatchdogInterval: interval,
		OnStall:          func(r StallReport) { stalls <- r },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	defer close(rt.gate)
	if err := n.Submit([]byte("held"), Agreed); err != nil {
		t.Fatal(err)
	}
	waitHeld(t, rt)
	for _, p := range []string{"queued-1", "queued-2"} {
		if err := n.Submit([]byte(p), Agreed); err != nil {
			t.Fatal(err)
		}
	}
	wedgedAt := time.Now()

	select {
	case r := <-stalls:
		if elapsed := time.Since(wedgedAt); elapsed > 2*interval+100*time.Millisecond {
			t.Fatalf("stall reported after %v, want within 2×%v of the wedge", elapsed, interval)
		}
		want := StallReport{Interval: interval, PendingSubmits: 2}
		if r != want {
			t.Fatalf("stall report %+v, want %+v", r, want)
		}
	case <-time.After(3 * interval):
		t.Fatalf("watchdog never reported the wedged loop (checks=%d)", n.nm.watchdogChecks.Load())
	}
}
