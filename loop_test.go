package accelring

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accelring/internal/core"
	"accelring/internal/engine"
)

// takeWithin waits for the timer set to deliver one current fire.
func takeWithin(t *testing.T, ts *timerSet, d time.Duration) (engine.TimerKind, bool) {
	t.Helper()
	deadline := time.After(d)
	for {
		select {
		case <-ts.wake:
			if kind, ok := ts.takeOne(); ok {
				return kind, true
			}
		case <-deadline:
			// One final poll: the wake signal may have been consumed by an
			// earlier iteration while the pending entry persisted.
			return ts.takeOne()
		}
	}
}

func TestTimerSetDeliversCurrentFire(t *testing.T) {
	ts := newTimerSet(nil)
	defer ts.stopAll()
	ts.set(engine.TimerTokenLoss, time.Millisecond)
	kind, ok := takeWithin(t, ts, 5*time.Second)
	if !ok || kind != engine.TimerTokenLoss {
		t.Fatalf("got (%v, %v), want token-loss fire", kind, ok)
	}
	// Taking a fire allocates nothing: the loop tries on every pass.
	ts.set(engine.TimerCommit, time.Hour)
	armed := ts.timers[engine.TimerCommit]
	if allocs := testing.AllocsPerRun(100, func() {
		ts.fire(engine.TimerCommit, armed)
		if _, ok := ts.takeOne(); !ok {
			t.Fatal("recorded fire not taken")
		}
	}); allocs != 0 {
		t.Fatalf("taking a timer fire costs %v allocations, want 0", allocs)
	}
}

func TestTimerSetRearmInvalidatesPendingFire(t *testing.T) {
	ts := newTimerSet(nil)
	defer ts.stopAll()
	ts.set(engine.TimerTokenLoss, 0)
	// Wait until the expiry has been recorded, then re-arm: the pending
	// fire must be discarded as stale, and the new generation must still
	// be deliverable.
	waitPending(t, ts, engine.TimerTokenLoss)
	ts.set(engine.TimerTokenLoss, time.Millisecond)
	kind, ok := takeWithin(t, ts, 5*time.Second)
	if !ok || kind != engine.TimerTokenLoss {
		t.Fatalf("got (%v, %v), want the re-armed generation's fire", kind, ok)
	}
	if ts.stale.Load() == 0 {
		t.Fatal("stale fire was not counted")
	}
}

// TestTimerSetRearmReusesTimer: re-arming a timer long before it expires —
// twice per token hop — resets the one already there, and the re-armed
// generation is the one that fires.
func TestTimerSetRearmReusesTimer(t *testing.T) {
	ts := newTimerSet(nil)
	defer ts.stopAll()
	ts.set(engine.TimerTokenLoss, time.Hour)
	first := ts.timers[engine.TimerTokenLoss]
	for i := 0; i < 100; i++ {
		ts.set(engine.TimerTokenLoss, time.Hour)
	}
	if ts.timers[engine.TimerTokenLoss] != first {
		t.Fatal("re-arming an unexpired timer replaced it")
	}
	ts.set(engine.TimerTokenLoss, time.Millisecond)
	if kind, ok := takeWithin(t, ts, 5*time.Second); !ok || kind != engine.TimerTokenLoss {
		t.Fatalf("got (%v, %v), want the last re-arm's fire", kind, ok)
	}
	if got := ts.stale.Load(); got != 0 {
		t.Fatalf("%d stale fires from re-arming a timer that never expired", got)
	}
}

// waitPending blocks until an expiry of kind has been recorded.
func waitPending(t *testing.T, ts *timerSet, kind engine.TimerKind) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ts.mu.Lock()
		_, ok := ts.pending[kind]
		ts.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("timer never fired")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestTimerSetCancel(t *testing.T) {
	ts := newTimerSet(nil)
	defer ts.stopAll()
	ts.set(engine.TimerJoin, time.Millisecond)
	ts.cancel(engine.TimerJoin)
	if kind, ok := takeWithin(t, ts, 20*time.Millisecond); ok {
		t.Fatalf("cancelled timer delivered a fire: %v", kind)
	}
}

// TestTimerFireSurvivesRearmBurst is the regression test for the lost
// timer-fire bug: the old design pushed expiries through a bounded channel
// and dropped on overflow, so a burst of stale fires (rapid re-arms) could
// swallow the one valid token-loss expiry and stall failure detection.
// The pending-map design must always deliver the latest generation.
func TestTimerFireSurvivesRearmBurst(t *testing.T) {
	ts := newTimerSet(nil)
	defer ts.stopAll()
	// Each re-arm with a zero duration races its own expiry; many of the
	// expiries land as stale entries. Nothing is drained meanwhile.
	for i := 0; i < 64; i++ {
		ts.set(engine.TimerTokenLoss, 0)
	}
	kind, ok := takeWithin(t, ts, 5*time.Second)
	if !ok || kind != engine.TimerTokenLoss {
		t.Fatalf("got (%v, %v); the current-generation token-loss fire was lost", kind, ok)
	}
}

// TestTokenLossFiresUnderTimerSaturation floods the timer set with
// expiries of every kind without draining, then checks that a token-loss
// fire is still delivered — the scenario in which the old bounded channel
// dropped valid fires.
func TestTokenLossFiresUnderTimerSaturation(t *testing.T) {
	ts := newTimerSet(nil)
	defer ts.stopAll()
	kinds := []engine.TimerKind{
		engine.TimerTokenRetrans, engine.TimerJoin, engine.TimerConsensus, engine.TimerCommit,
	}
	for i := 0; i < 16; i++ {
		for _, k := range kinds {
			ts.set(k, 0)
		}
	}
	ts.set(engine.TimerTokenLoss, time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for {
		kind, ok := takeWithin(t, ts, 50*time.Millisecond)
		if ok && kind == engine.TimerTokenLoss {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("token-loss fire lost under saturation")
		}
	}
}

func TestNodeIgnoresGarbagePackets(t *testing.T) {
	net := NewMemoryNetwork(8)
	nodes := startCluster(t, net, 2, AcceleratedRing)

	// A rogue endpoint floods the ring with garbage on both sockets.
	rogue := net.Endpoint(99)
	for i := 0; i < 50; i++ {
		if err := rogue.Multicast([][]byte{[]byte("not a protocol packet")}); err != nil {
			t.Fatal(err)
		}
		if err := rogue.Unicast(1, []byte{0xde, 0xad}); err != nil {
			t.Fatal(err)
		}
	}
	// The ring still orders and delivers.
	if err := nodes[0].Submit([]byte("still alive"), Agreed); err != nil {
		t.Fatal(err)
	}
	msgs, _ := collect(t, nodes[1], 1, 10*time.Second)
	if string(msgs[0].Payload) != "still alive" {
		t.Fatalf("got %q", msgs[0].Payload)
	}
	// The garbage was noticed, not swallowed silently.
	snap, err := nodes[0].Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if snap.ErrorCount == 0 || len(snap.RecentErrors) == 0 {
		t.Fatal("garbage packets left no trace in Metrics")
	}
}

// TestErrorBurstIsAccounted is the regression test for the single-slot
// lastErr bug: a burst of decode failures used to collapse into one
// overwritten error. The ring plus counter must make the burst visible.
func TestErrorBurstIsAccounted(t *testing.T) {
	net := NewMemoryNetwork(13)
	nodes := startCluster(t, net, 2, AcceleratedRing)

	rogue := net.Endpoint(98)
	const garbage = 50
	for i := 0; i < garbage; i++ {
		if err := rogue.Multicast([][]byte{[]byte("garbage packet payload")}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the loop has consumed the whole flood. (A submit round
	// trip is not a barrier: the node delivers its own message off the
	// token socket while garbage is still queued on the data socket.)
	var snap MetricsSnapshot
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var err error
		if snap, err = nodes[0].Metrics(); err != nil {
			t.Fatal(err)
		}
		if snap.Runtime.DecodeFailures >= garbage || time.Now().After(deadline) {
			break
		}
	}
	if snap.ErrorCount < garbage {
		t.Fatalf("error count = %d, want >= %d (burst collapsed)", snap.ErrorCount, garbage)
	}
	if snap.Runtime.DecodeFailures < garbage {
		t.Fatalf("decode failures = %d, want >= %d", snap.Runtime.DecodeFailures, garbage)
	}
	recent := snap.RecentErrors
	if len(recent) < 2 {
		t.Fatalf("recent errors = %d, want a ring of several", len(recent))
	}
	if len(recent) > errRingCap {
		t.Fatalf("recent errors = %d, want bounded by %d", len(recent), errRingCap)
	}
}

// TestNodeMetricsSnapshot checks the runtime section of Metrics over a
// live ring: packets by kind, token rotation observations, and engine
// counters all move.
func TestNodeMetricsSnapshot(t *testing.T) {
	net := NewMemoryNetwork(14)
	nodes := startCluster(t, net, 3, AcceleratedRing)
	const perNode = 10
	for i := 0; i < perNode; i++ {
		for _, node := range nodes {
			if err := node.Submit([]byte("payload"), Agreed); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, node := range nodes {
		collect(t, node, perNode*3, 20*time.Second)
	}
	// A rotation interval needs two accepted tokens; the token keeps
	// circulating in steady state, so poll until one is observed.
	var snap MetricsSnapshot
	deadline := time.Now().Add(10 * time.Second)
	for {
		var err error
		snap, err = nodes[0].Metrics()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Runtime.TokenRotation.Count > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no token rotation intervals observed")
		}
		time.Sleep(time.Millisecond)
	}
	if snap.Runtime.PacketsToken == 0 {
		t.Fatal("no token packets counted")
	}
	if snap.Runtime.PacketsData == 0 {
		t.Fatal("no data packets counted")
	}
	if snap.Runtime.TokenHandle.Count == 0 {
		t.Fatal("no token handle durations observed")
	}
	if snap.Runtime.EventsDelivered < perNode*3 {
		t.Fatalf("events delivered = %d, want >= %d", snap.Runtime.EventsDelivered, perNode*3)
	}
	if snap.Runtime.Submits != perNode {
		t.Fatalf("submits = %d, want %d", snap.Runtime.Submits, perNode)
	}
	if snap.Engine.TokensProcessed == 0 {
		t.Fatal("engine counters missing from snapshot")
	}
	if snap.Transport == nil {
		t.Fatal("memnet transport should contribute a snapshot")
	}
	if snap.Transport.DatagramsIn == 0 || snap.Transport.DatagramsOut == 0 {
		t.Fatalf("transport accounting empty: %+v", snap.Transport)
	}
}

func TestNodeDoubleCloseIsSafe(t *testing.T) {
	net := NewMemoryNetwork(9)
	nodes := startCluster(t, net, 2, AcceleratedRing)
	if err := nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
}

func TestEventsChannelClosesOnClose(t *testing.T) {
	net := NewMemoryNetwork(10)
	nodes := startCluster(t, net, 2, AcceleratedRing)
	nodes[0].Close()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-nodes[0].Events():
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("events channel never closed")
		}
	}
}

func TestWindowsArePassedThrough(t *testing.T) {
	net := NewMemoryNetwork(11)
	node, err := Start(Options{
		ID:        1,
		Transport: net.Endpoint(1),
		Members:   []ParticipantID{1},
		Windows:   Windows{Personal: 10, Global: 50, Accelerated: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := node.Submit([]byte("x"), Agreed); err != nil {
		t.Fatal(err)
	}
	msgs, _ := collect(t, node, 1, 5*time.Second)
	if string(msgs[0].Payload) != "x" {
		t.Fatalf("got %q", msgs[0].Payload)
	}
}

// TestLoopServesStatsAndCloseUnderLoad saturates a 3-node ring with four
// tight-loop submitters per node. The loop's one select only waits, so
// queued frames and submissions must not starve Metrics or Close, and a
// submission still queued when its node closes must return ErrClosed
// instead of hanging.
func TestLoopServesStatsAndCloseUnderLoad(t *testing.T) {
	net := NewMemoryNetwork(15)
	nodes := startCluster(t, net, 3, AcceleratedRing)
	const perNode = 4
	var accepted atomic.Int64
	var submitters, drainers sync.WaitGroup
	results := make(chan error, perNode*len(nodes))
	for _, node := range nodes {
		drainers.Add(1)
		go func() {
			defer drainers.Done()
			for range node.Events() {
			}
		}()
		for i := 0; i < perNode; i++ {
			submitters.Add(1)
			go func() {
				defer submitters.Done()
				for {
					err := node.Submit([]byte("load"), Agreed)
					if err == nil {
						accepted.Add(1)
					} else if !errors.Is(err, core.ErrBacklogFull) {
						results <- err
						return
					}
				}
			}()
		}
	}
	for deadline := time.Now().Add(10 * time.Second); accepted.Load() < 2000; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("load never built up: %d submissions accepted", accepted.Load())
		}
	}
	for _, node := range nodes {
		returnsWithin(t, "Metrics", func() error { _, err := node.Metrics(); return err })
	}
	for _, node := range nodes {
		returnsWithin(t, "Close", node.Close)
	}
	returnsWithin(t, "every submitter", func() error { submitters.Wait(); return nil })
	close(results)
	for err := range results {
		if err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("submitter returned %v, want nil or ErrClosed", err)
		}
	}
	drainers.Wait()
}

// returnsWithin fails the test unless f returns nil within 2 s.
func returnsWithin(t *testing.T, what string, f func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("%s did not return within 2 s under load", what)
	}
}

func TestInvalidWindowsRejected(t *testing.T) {
	net := NewMemoryNetwork(12)
	_, err := Start(Options{
		ID:        1,
		Transport: net.Endpoint(1),
		Members:   []ParticipantID{1},
		Windows:   Windows{Personal: 5, Accelerated: 50}, // accel > personal
	})
	if err == nil {
		t.Fatal("invalid windows accepted")
	}
}
