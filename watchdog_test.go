package accelring

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"accelring/internal/transport"
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
		ID:               1,
		Transport:        net.Endpoint(1),
		Members:          members,
		Engine:           engine,
		TokenLossTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	// Node 2 is the victim: nobody drains its events, so its loop wedges in
	// deliver() once its Events buffer is full.
	n2, err := Start(Options{
		ID:               2,
		Transport:        net.Endpoint(2),
		Members:          members,
		Engine:           engine,
		TokenLossTimeout: 200 * time.Millisecond,
		WatchdogInterval: interval,
		OnStall:          func(r StallReport) { stalls <- r },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()

	// Keep node 1 submitting until node 2 wedges (or node 1 closes), so
	// node 2 has deliveries to fill its buffer with; node 1 drains its own
	// events. A full backlog only waits for the ring to order what it holds.
	wedged := make(chan struct{})
	go func() {
		for {
			select {
			case <-wedged:
				return
			default:
			}
			switch err := n1.Submit([]byte("wedge"), Agreed); {
			case errors.Is(err, ErrClosed):
				return
			case err != nil:
				time.Sleep(time.Millisecond)
			}
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
			close(wedged)
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
			ID:               id,
			Transport:        net.Endpoint(id),
			Members:          members,
			Engine:           engine,
			TokenLossTimeout: 200 * time.Millisecond,
			WatchdogInterval: interval,
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

// TestWatchdogCountsSubmissionsInHand: submissions the loop takes into
// hand while it waits on a full Events channel are still pending, so the
// watchdog counts them. The node's Events channel is full before its loop
// starts, so the loop wedges delivering the ring's configuration; the three
// submissions that follow leave the intake for the loop's hand at once. The
// report must name exactly three pending submissions and the full queue.
func TestWatchdogCountsSubmissionsInHand(t *testing.T) {
	const interval = 200 * time.Millisecond
	n, initial := newTestNode(t, EngineAccelRing, &recordingTransport{}, 0)
	for len(n.events) < cap(n.events) {
		n.events <- Message{}
	}
	go n.loop(initial)
	defer n.Close()
	for _, p := range []string{"in-hand-1", "in-hand-2", "in-hand-3"} {
		if err := n.Submit([]byte(p), Agreed); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); len(n.intake) > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the wedged loop never took the submissions into hand")
		}
	}
	stalls := make(chan StallReport, 16)
	go n.watchdog(interval, func(r StallReport) { stalls <- r })

	select {
	case r := <-stalls:
		want := StallReport{Interval: interval, PendingSubmits: 3, EventQueueFull: true}
		if r != want {
			t.Fatalf("stall report %+v, want %+v", r, want)
		}
	case <-time.After(3 * interval):
		t.Fatalf("watchdog never reported the wedged loop (checks=%d)", n.nm.watchdogChecks.Load())
	}
}

// TestWatchdogCountsDiscardedPackets: discarding a packet that does not
// decode is work done, so it advances progress. Without that, a loop busy
// discarding a flood of garbage with the data queue full was reported as
// stalled.
func TestWatchdogCountsDiscardedPackets(t *testing.T) {
	n := &Node{tr: &recordingTransport{}, nm: newNodeMetrics()}
	before := n.nm.progress()
	pkt := append(transport.Buffers.Get()[:0], "not a protocol packet"...)
	n.handlePacket(pkt)
	if n.nm.decodeFailures.Load() != 1 {
		t.Fatalf("decode failures = %d, want 1", n.nm.decodeFailures.Load())
	}
	if n.nm.progress() == before {
		t.Fatal("a discarded packet did not advance the watchdog's progress")
	}
}

// TestWatchdogSeesWedgedTimerStep: a loop wedged inside a timer's step
// owes that timer's work, so it is a stall. Node 2 of a two-member
// accelerated ring whose peer never answers loses the token, and the
// token-loss step's join Multicast is held. Nothing else is queued: the
// wake signal, which stays in its slot until a pass finds nothing due, is
// the only pending work the watchdog sees, so it must report within two
// intervals, naming it.
func TestWatchdogSeesWedgedTimerStep(t *testing.T) {
	const interval = 200 * time.Millisecond
	stalls := make(chan StallReport, 16)
	rt := &recordingTransport{gate: make(chan struct{}), held: make(chan struct{}, 1)}
	n, err := Start(Options{
		ID:               2,
		Transport:        rt,
		Members:          []ParticipantID{1, 2},
		Engine:           EngineAccelRing,
		TokenLossTimeout: 50 * time.Millisecond,
		WatchdogInterval: interval,
		OnStall:          func(r StallReport) { stalls <- r },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	defer close(rt.gate)
	waitHeld(t, rt)
	wedgedAt := time.Now()
	if fires := n.nm.timerFires.Load(); fires != 1 {
		t.Fatalf("timer fires = %d when the Multicast was held, want the token-loss fire", fires)
	}

	select {
	case r := <-stalls:
		if elapsed := time.Since(wedgedAt); elapsed > 2*interval+100*time.Millisecond {
			t.Fatalf("stall reported after %v, want within 2×%v of the wedge", elapsed, interval)
		}
		want := StallReport{Interval: interval, PendingTimers: 1}
		if r != want {
			t.Fatalf("stall report %+v, want %+v", r, want)
		}
	case <-time.After(3 * interval):
		t.Fatalf("watchdog never reported the wedged loop (checks=%d)", n.nm.watchdogChecks.Load())
	}
}

// TestWatchdogSeesQueuedClientInput: on a node a daemon serves, client
// input the daemon's goroutines queued for the loop is pending work, and
// applying it is progress.
func TestWatchdogSeesQueuedClientInput(t *testing.T) {
	const interval = 100 * time.Millisecond
	// A loop wedged inside a submission's Multicast, with nothing but three
	// client inputs queued behind it, is flagged within two intervals, and
	// PendingSubmits carries the three.
	t.Run("wedged", func(t *testing.T) {
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
		if err := n.attach(&fakeServer{}); err != nil {
			t.Fatal(err)
		}
		if err := n.Submit([]byte("held"), Agreed); err != nil {
			t.Fatal(err)
		}
		waitHeld(t, rt)
		for _, in := range []string{"burst-1", "burst-2", "gone"} {
			if !n.post(in, 0) {
				t.Fatal("post failed")
			}
		}
		wedgedAt := time.Now()
		select {
		case r := <-stalls:
			if elapsed := time.Since(wedgedAt); elapsed > 2*interval+100*time.Millisecond {
				t.Fatalf("stall reported after %v, want within 2×%v of the wedge", elapsed, interval)
			}
			if want := (StallReport{Interval: interval, PendingSubmits: 3}); r != want {
				t.Fatalf("stall report %+v, want %+v", r, want)
			}
		case <-time.After(3 * interval):
			t.Fatalf("watchdog never reported the wedged loop (checks=%d)", n.nm.watchdogChecks.Load())
		}
	})
	// A loop busy applying input that submits nothing, with more queued
	// behind it the whole time, is not a stall: its ring never orders and
	// its timers are an hour away, so applying input is its only progress.
	t.Run("busy", func(t *testing.T) {
		n := startTestNode(t, EngineAccelRing, &recordingTransport{}, 0)
		srv := &fakeServer{serveFor: interval / 3}
		if err := n.attach(srv); err != nil {
			t.Fatal(err)
		}
		var stalls atomic.Int64
		go n.watchdog(interval, func(StallReport) { stalls.Add(1) })
		for end := time.Now().Add(5 * interval); time.Now().Before(end); time.Sleep(interval / 10) {
			n.post("subscribe", 0)
		}
		if stalls.Load() != 0 || srv.served.Load() == 0 {
			t.Fatalf("%d stalls while the loop applied %d inputs, want none", stalls.Load(), srv.served.Load())
		}
	})
}
