package accelring

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accelring/internal/core"
	"accelring/internal/daemon/hook"
	"accelring/internal/engine"
	"accelring/internal/wire"
)

// takeWithin runs the loop's side of the deadlines until a kind fires or
// wait passes: take on every pass, and between passes block on the wake
// channel and put the signal back, as Node.loop's select does.
func takeWithin(t *testing.T, d *deadlines, wait time.Duration) (engine.TimerKind, bool) {
	t.Helper()
	deadline := time.After(wait)
	for {
		if kind, ok := d.take(); ok {
			return kind, true
		}
		select {
		case <-d.wake:
			d.signal()
		case <-deadline:
			return 0, false
		}
	}
}

func TestTimerSetDeliversCurrentFire(t *testing.T) {
	d := newDeadlines()
	defer d.t.Stop()
	d.set(engine.TimerTokenLoss, time.Millisecond)
	kind, ok := takeWithin(t, d, 5*time.Second)
	if !ok || kind != engine.TimerTokenLoss {
		t.Fatalf("got (%v, %v), want token-loss fire", kind, ok)
	}
	if kind, ok := takeWithin(t, d, 20*time.Millisecond); ok {
		t.Fatalf("a fired kind fired again: %v", kind)
	}
}

// TestTimerSetRearmInvalidatesPendingFire: a kind re-armed later after
// its old deadline passed, but before the loop looked, does not fire at
// the old deadline, and does fire at the new one.
func TestTimerSetRearmInvalidatesPendingFire(t *testing.T) {
	d := newDeadlines()
	defer d.t.Stop()
	d.set(engine.TimerTokenLoss, 0)
	waitWake(t, d)
	const later = 300 * time.Millisecond
	rearmed := time.Now()
	d.set(engine.TimerTokenLoss, later)
	if kind, ok := d.take(); ok {
		t.Fatalf("re-armed %v fired at its old deadline", kind)
	}
	kind, ok := takeWithin(t, d, 5*time.Second)
	if !ok || kind != engine.TimerTokenLoss {
		t.Fatalf("got (%v, %v), want the re-armed deadline's fire", kind, ok)
	}
	if waited := time.Since(rearmed); waited < later {
		t.Fatalf("re-armed kind fired after %v, before its new deadline %v", waited, later)
	}
}

// TestTimerSetRearmReusesTimer: re-arming a kind later — twice per token
// hop — writes its deadline and leaves the runtime timer where it is, and
// the last re-arm is the one that fires.
func TestTimerSetRearmReusesTimer(t *testing.T) {
	d := newDeadlines()
	defer d.t.Stop()
	d.set(engine.TimerTokenLoss, time.Hour)
	armed := d.armed
	for i := 0; i < 100; i++ {
		d.set(engine.TimerTokenLoss, time.Hour)
	}
	if d.armed != armed {
		t.Fatal("re-arming a kind later moved the runtime timer")
	}
	d.set(engine.TimerTokenLoss, time.Millisecond)
	if kind, ok := takeWithin(t, d, 5*time.Second); !ok || kind != engine.TimerTokenLoss {
		t.Fatalf("got (%v, %v), want the last re-arm's fire", kind, ok)
	}
}

// TestTimerEarlierDeadlineFiresOnTime: a kind armed earlier than the one
// the runtime timer waits for moves the timer, so it fires on time.
func TestTimerEarlierDeadlineFiresOnTime(t *testing.T) {
	d := newDeadlines()
	defer d.t.Stop()
	d.set(engine.TimerTokenLoss, time.Hour)
	d.set(engine.TimerTokenRetrans, time.Millisecond)
	kind, ok := takeWithin(t, d, 5*time.Second)
	if !ok || kind != engine.TimerTokenRetrans {
		t.Fatalf("got (%v, %v), want the token-retransmit fire", kind, ok)
	}
}

// waitWake blocks until the runtime timer has signalled the loop.
func waitWake(t *testing.T, d *deadlines) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); len(d.wake) == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("timer never fired")
		}
	}
}

func TestTimerSetCancel(t *testing.T) {
	d := newDeadlines()
	defer d.t.Stop()
	d.set(engine.TimerJoin, time.Millisecond)
	d.cancel(engine.TimerJoin)
	if kind, ok := takeWithin(t, d, 20*time.Millisecond); ok {
		t.Fatalf("cancelled timer delivered a fire: %v", kind)
	}
}

// TestTimerFireSurvivesRearmBurst is the regression test for the lost
// timer-fire bug: an early design pushed expiries through a bounded
// channel and dropped on overflow, so a burst of rapid re-arms could
// swallow the one valid token-loss expiry and stall failure detection.
func TestTimerFireSurvivesRearmBurst(t *testing.T) {
	d := newDeadlines()
	defer d.t.Stop()
	// Each zero-length re-arm races the timer's signal for the one before.
	// Nothing is taken meanwhile.
	for i := 0; i < 64; i++ {
		d.set(engine.TimerTokenLoss, 0)
	}
	kind, ok := takeWithin(t, d, 5*time.Second)
	if !ok || kind != engine.TimerTokenLoss {
		t.Fatalf("got (%v, %v); the token-loss fire was lost", kind, ok)
	}
}

// TestTokenLossFiresUnderTimerSaturation arms every kind at once, most of
// them already due, and checks that the token-loss fire is still
// delivered — the scenario in which the old bounded channel dropped valid
// fires.
func TestTokenLossFiresUnderTimerSaturation(t *testing.T) {
	d := newDeadlines()
	defer d.t.Stop()
	kinds := []engine.TimerKind{
		engine.TimerTokenRetrans, engine.TimerJoin, engine.TimerConsensus, engine.TimerCommit,
	}
	for i := 0; i < 16; i++ {
		for _, k := range kinds {
			d.set(k, 0)
		}
	}
	d.set(engine.TimerTokenLoss, time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for {
		kind, ok := takeWithin(t, d, 50*time.Millisecond)
		if ok && kind == engine.TimerTokenLoss {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("token-loss fire lost under saturation")
		}
	}
}

// TestTimerHopAllocs: one token hop's timer work — re-arm token loss,
// arm the token retransmission, cancel it when the successor's data
// arrives — and the loop's side of a fire allocates nothing: taking the
// due kind, then the pass that finds nothing due, drains the wake and
// re-arms the runtime timer. The fire is made due by hand and signalled
// as the timer's callback would, so the runtime's own callback goroutine
// is not counted.
func TestTimerHopAllocs(t *testing.T) {
	d := newDeadlines()
	defer d.t.Stop()
	if allocs := testing.AllocsPerRun(100, func() {
		d.set(engine.TimerTokenLoss, time.Hour)
		d.set(engine.TimerTokenRetrans, time.Minute)
		d.cancel(engine.TimerTokenRetrans)
		if _, ok := d.take(); ok {
			t.Fatal("a kind fired with no wake signalled")
		}
		d.at[engine.TimerCommit] = time.Now()
		d.signal()
		if kind, ok := d.take(); !ok || kind != engine.TimerCommit {
			t.Fatalf("got (%v, %v), want the due commit fire", kind, ok)
		}
		if kind, ok := d.take(); ok {
			t.Fatalf("%v fired with nothing due", kind)
		}
		if len(d.wake) != 0 {
			t.Fatal("a pass that found nothing due left the wake signalled")
		}
	}); allocs != 0 {
		t.Fatalf("a token hop's timer work costs %v allocations, want 0", allocs)
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
	// token socket while garbage is still queued on the data socket.) The
	// loop counts a decode failure before it records the error, so a
	// snapshot can see the last failure and not yet its error: wait for
	// both.
	var snap MetricsSnapshot
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var err error
		if snap, err = nodes[0].Metrics(); err != nil {
			t.Fatal(err)
		}
		if snap.Runtime.DecodeFailures >= garbage && snap.ErrorCount >= garbage || time.Now().After(deadline) {
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

// TestSubmitWhileEventsFull submits from the goroutine that drains
// Events while the loop waits on the full channel: the loop must keep
// taking submissions, or it and the submitter wait on each other for ever.
func TestSubmitWhileEventsFull(t *testing.T) {
	node := startCluster(t, NewMemoryNetwork(12), 1, AcceleratedRing)[0]
	submit := func(k int) {
		t.Helper()
		done := make(chan error, 1)
		go func() {
			for i := 0; i < k; i++ {
				if err := node.Submit([]byte("m"), Agreed); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("Submit blocked while the loop waited on a full Events channel")
		}
	}
	// More than Events holds, so the loop ends up waiting on it.
	first := eventBuffer + 100
	submit(first)
	for deadline := time.Now().Add(20 * time.Second); len(node.Events()) < eventBuffer; {
		if time.Now().After(deadline) {
			t.Fatalf("Events holds %d, never filled", len(node.Events()))
		}
		time.Sleep(time.Millisecond)
	}
	// More than the intake holds.
	more := 2 * intakeCap
	submit(more)
	collect(t, node, first+more, 20*time.Second)
}

// startWedgedNode starts a test node whose Events channel is full before
// its loop starts, so the loop waits delivering the ring's configuration.
func startWedgedNode(t *testing.T) *Node {
	n, initial := newTestNode(t, EngineAccelRing, &recordingTransport{}, 0)
	for len(n.events) < cap(n.events) {
		n.events <- Message{}
	}
	go n.loop(initial)
	t.Cleanup(func() { n.Close() })
	return n
}

// TestMetricsWhileEventsFull: Metrics answers while the loop waits on a
// full Events channel, so the wedge explains itself: the answer names the
// full queue.
func TestMetricsWhileEventsFull(t *testing.T) {
	n := startWedgedNode(t)
	snaps := make(chan MetricsSnapshot, 1)
	returnsWithin(t, "Metrics", func() error {
		snap, err := n.Metrics()
		snaps <- snap
		return err
	})
	if got := (<-snaps).Runtime.EventQueueLen; got != cap(n.events) {
		t.Fatalf("EventQueueLen = %d, want the full channel's %d", got, cap(n.events))
	}
}

// TestAttachWhileEventsFull: a daemon attaches while the loop waits on a
// full Events channel. The attachment takes over: the server gets the
// queued events, then the configuration the loop was delivering, and
// Events is left empty.
func TestAttachWhileEventsFull(t *testing.T) {
	n := startWedgedNode(t)
	srv := &fakeServer{}
	returnsWithin(t, "attach", func() error { return n.attach(srv) })
	for deadline := time.Now().Add(5 * time.Second); srv.configured.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the configuration being delivered never reached the server")
		}
	}
	if srv.delivered.Load() != eventBuffer || len(n.events) != 0 {
		t.Fatalf("server got %d queued messages, %d left on Events; want %d, 0", srv.delivered.Load(), len(n.events), eventBuffer)
	}
}

func TestWindowsArePassedThrough(t *testing.T) {
	net := NewMemoryNetwork(11)
	node, err := Start(Options{
		ID:        1,
		Transport: net.Endpoint(1),
		Members:   []ParticipantID{1},
		Windows:   Windows{Personal: 10, Accelerated: 5},
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

// fakeServer stands in for a daemon on the loop (hook.Server): it counts
// what the loop hands it, and each Serve takes serveFor, as applying a
// client's subscribe or stats frames takes time and submits nothing.
type fakeServer struct {
	delivered, configured, served atomic.Int64
	serveFor                      time.Duration
}

func (f *fakeServer) Start(hook.Ring) {}
func (f *fakeServer) Deliver(wire.ParticipantID, wire.Service, []byte) {
	f.delivered.Add(1)
}
func (f *fakeServer) Configure(engine.Configuration, bool) { f.configured.Add(1) }
func (f *fakeServer) Serve(any) {
	time.Sleep(f.serveFor)
	f.served.Add(1)
}
func (f *fakeServer) Stop() {}

// submitServer is a daemon on the loop that submits, for an input k,
// k messages through the ring's Submit.
type submitServer struct {
	fakeServer
	ring hook.Ring
}

func (s *submitServer) Start(r hook.Ring) { s.ring = r }
func (s *submitServer) Serve(in any) {
	for range in.(int) {
		s.ring.Submit([]byte("m"), Agreed)
	}
	s.served.Add(1)
}

// TestPostReservesBeforeItQueues: a post reserves room for what its input
// may submit, under the client bound (maxPending less its eighth), before
// it queues the input, and the loop gives back what the input did not
// spend. A post that finds no room waits, counted from when it begins, and
// returns false when the node closes. The daemon's own submissions, made
// with nothing reserved, go in past the client bound, and the engine
// refuses none of them. The node's ring never orders, so nothing makes
// room.
func TestPostReservesBeforeItQueues(t *testing.T) {
	const maxPending = 16 // the client bound is 14
	n := startTestNode(t, EngineAccelRing, &recordingTransport{}, maxPending)
	if err := n.attach(&submitServer{}); err != nil {
		t.Fatal(err)
	}
	until := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("never %s (reserved %d, backlog %d)", what, n.reserved.Load(), n.backlog.Load())
			}
		}
	}
	if !n.post(12, 14) {
		t.Fatal("post failed")
	}
	waitSubmits(t, n, 12)
	until("gave back the 2 unspent", func() bool { return n.reserved.Load() == 0 })

	waited := make(chan bool, 1)
	go func() { waited <- n.post(1, 3) }()
	until("counted the waiting post", func() bool { return n.nm.postWaits.Load() == 1 })

	if !n.post(4, 0) {
		t.Fatal("post failed")
	}
	waitSubmits(t, n, 16)
	if errs := n.nm.submitErrors.Load(); errs != 0 {
		t.Fatalf("the engine refused %d of the daemon's own submissions", errs)
	}
	select {
	case ok := <-waited:
		t.Fatalf("a post with no room returned %v", ok)
	default:
	}
	n.Close()
	select {
	case ok := <-waited:
		if ok {
			t.Fatal("a post waiting for room went through on a closed node")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a post waiting for room did not return when the node closed")
	}
}

// TestRoomSignalPassedOnOnlyToWaitingPosters: one signal from the loop
// wakes every poster waiting for the room it announces, each passing it to
// the next, and the last leaves none behind — so a lone poster's next wait
// does not begin by waking on its own stale signal. No loop runs: the test
// makes the room and sends the one signal itself, once the posters are
// blocked waiting for it.
func TestRoomSignalPassedOnOnlyToWaitingPosters(t *testing.T) {
	for _, posters := range []int{1, 2} {
		n, _ := newTestNode(t, EngineAccelRing, &recordingTransport{}, 16)
		n.reserved.Store(n.maxPending - n.maxPending/ownShare)
		done := make(chan bool, posters)
		for range posters {
			go func() { done <- n.reserveWait(1) }()
		}
		waitBlocked(t, "(*Node).reserveWait", posters)
		n.reserved.Add(-int64(posters))
		n.signalRoom()
		for range posters {
			select {
			case ok := <-done:
				if !ok {
					t.Fatal("a post waiting for room failed on an open node")
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%d posters: one signal did not wake them all", posters)
			}
		}
		if left := len(n.room); left != 0 {
			t.Fatalf("%d posters left %d room signals behind, want 0", posters, left)
		}
	}
}

// waitBlocked waits until k goroutines are blocked in a select inside fn.
func waitBlocked(t *testing.T, fn string, k int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		blocked := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, " [select]:") && strings.Contains(g, fn) {
				blocked++
			}
		}
		if blocked == k {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines blocked in %s, want %d", blocked, fn, k)
		}
	}
}

// TestServedDeliverAllocs gates the hand-off from the engine to the daemon
// a node serves: an ordered message and a configuration change reach the
// server with no allocation — no boxed Event, no channel. What the daemon
// then does is its own gate (internal/daemon TestDeliverAllocs).
func TestServedDeliverAllocs(t *testing.T) {
	n, _ := newTestNode(t, EngineAccelRing, &recordingTransport{}, 0)
	srv := &fakeServer{}
	n.srv = srv
	msg := &wire.DataMessage{PID: 1, Service: Agreed, Payload: []byte("ordered")}
	acts := []engine.Action{
		engine.Deliver{Msg: msg},
		engine.DeliverConfig{Config: engine.Configuration{Members: []wire.ParticipantID{1, 2}}},
	}
	if allocs := testing.AllocsPerRun(200, func() { n.execute(acts) }); allocs != 0 {
		t.Fatalf("handing a delivery and a configuration to the server costs %v allocations, want 0", allocs)
	}
	if srv.delivered.Load() != 201 || srv.configured.Load() != 201 || len(n.events) != 0 {
		t.Fatalf("server got %d messages and %d configurations, Events %d; want 201, 201, 0",
			srv.delivered.Load(), srv.configured.Load(), len(n.events))
	}
}

// TestAttachHandsOverQueuedEvents: a daemon attaches to a node already
// running; what the loop delivered on Events before then goes to the
// server first, and nothing goes to Events after.
func TestAttachHandsOverQueuedEvents(t *testing.T) {
	n := startTestNode(t, EngineAccelRing, &recordingTransport{}, 0)
	for deadline := time.Now().Add(5 * time.Second); len(n.events) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the ring's configuration never reached Events")
		}
	}
	srv := &fakeServer{}
	if err := n.attach(srv); err != nil {
		t.Fatal(err)
	}
	if srv.configured.Load() != 1 || len(n.events) != 0 {
		t.Fatalf("server got %d configurations, %d left on Events; want 1, 0", srv.configured.Load(), len(n.events))
	}
	if !n.post("input", 0) {
		t.Fatal("post to a running loop failed")
	}
	for deadline := time.Now().Add(5 * time.Second); srv.served.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the loop never served the posted input")
		}
	}
	n.Close()
	if n.post("late", 0) || n.attach(srv) == nil {
		t.Fatal("post or attach to a closed node succeeded")
	}
}
