package fanout

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// recordSink records written frames; its gate, when non-nil, blocks every
// write until the gate channel is closed (or yields an error to return).
type recordSink struct {
	gate chan error

	mu     sync.Mutex
	frames []frame
}

func (s *recordSink) WriteFrame(typ byte, body []byte) error {
	if s.gate != nil {
		if err, ok := <-s.gate; ok || err != nil {
			if err != nil {
				return err
			}
		}
	}
	s.mu.Lock()
	s.frames = append(s.frames, frame{typ: typ, body: body})
	s.mu.Unlock()
	return nil
}

func (s *recordSink) snapshot() []frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]frame(nil), s.frames...)
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestInterestRoutingAndDedup(t *testing.T) {
	tier := NewTier(Config{QueueDepth: 64, Policy: PolicyShed})
	a, b, c := &recordSink{}, &recordSink{}, &recordSink{}
	subA := tier.Register(a, nil, nil)
	subB := tier.Register(b, nil, nil)
	subC := tier.Register(c, nil, nil)
	tier.Subscribe(subA, "g1", SourceMember)
	tier.Subscribe(subB, "g2", SourceExplicit)
	// C is interested through both groups and both sources — still one copy.
	tier.Subscribe(subC, "g1", SourceExplicit)
	tier.Subscribe(subC, "g2", SourceMember)

	if n := tier.Publish([]string{"g1", "g2"}, 1, []byte("x"), 0, nil); n != 3 {
		t.Fatalf("Publish enqueued for %d subscribers, want 3", n)
	}
	for name, sink := range map[string]*recordSink{"a": a, "b": b, "c": c} {
		sink := sink
		waitFor(t, name+" delivery", func() bool { return len(sink.snapshot()) >= 1 })
	}
	// C spans both destination groups yet must get exactly one copy.
	time.Sleep(20 * time.Millisecond)
	if got := c.snapshot(); len(got) != 1 {
		t.Fatalf("multi-group subscriber got %d copies, want 1", len(got))
	}
}

func TestUninterestedReceivesNothing(t *testing.T) {
	tier := NewTier(Config{})
	sink := &recordSink{}
	sub := tier.Register(sink, nil, nil)
	tier.Subscribe(sub, "mine", SourceExplicit)
	tier.Publish([]string{"other"}, 1, []byte("x"), 0, nil)
	tier.Publish([]string{"mine"}, 1, []byte("y"), 0, nil)
	waitFor(t, "delivery", func() bool { return len(sink.snapshot()) >= 1 })
	if got := sink.snapshot(); len(got) != 1 || string(got[0].body) != "y" {
		t.Fatalf("got %d frames, want exactly the interested one", len(got))
	}
}

func TestInterestSourcesAreIndependent(t *testing.T) {
	tier := NewTier(Config{})
	sink := &recordSink{}
	sub := tier.Register(sink, nil, nil)
	tier.Subscribe(sub, "g", SourceMember)
	tier.Subscribe(sub, "g", SourceExplicit)
	// Withdrawing membership must not disturb the explicit subscription.
	if removed := tier.Unsubscribe(sub, "g", SourceMember); removed {
		t.Fatal("losing one of two sources removed the interest")
	}
	tier.Publish([]string{"g"}, 1, []byte("still"), 0, nil)
	waitFor(t, "delivery", func() bool { return len(sink.snapshot()) == 1 })
	if removed := tier.Unsubscribe(sub, "g", SourceExplicit); !removed {
		t.Fatal("losing the last source did not remove the interest")
	}
	tier.Publish([]string{"g"}, 1, []byte("gone"), 0, nil)
	time.Sleep(20 * time.Millisecond)
	if got := sink.snapshot(); len(got) != 1 {
		t.Fatalf("got %d frames after unsubscribing, want 1", len(got))
	}
	if snap := tier.Snapshot(); snap.Subscriptions != 0 {
		t.Fatalf("subscriptions = %d, want 0", snap.Subscriptions)
	}
}

func TestPublishSkipsSelfDiscard(t *testing.T) {
	tier := NewTier(Config{})
	self, other := &recordSink{}, &recordSink{}
	subSelf := tier.Register(self, nil, nil)
	subOther := tier.Register(other, nil, nil)
	tier.Subscribe(subSelf, "g", SourceMember)
	tier.Subscribe(subOther, "g", SourceMember)
	if n := tier.Publish([]string{"g"}, 1, []byte("x"), 0, subSelf); n != 1 {
		t.Fatalf("enqueued %d, want 1", n)
	}
	waitFor(t, "other delivery", func() bool { return len(other.snapshot()) == 1 })
	if len(self.snapshot()) != 0 {
		t.Fatal("self-discarded message delivered to sender")
	}
}

func TestShedPolicyBoundsBacklog(t *testing.T) {
	const depth = 4
	tier := NewTier(Config{QueueDepth: depth, Policy: PolicyShed})
	slow := &recordSink{gate: make(chan error)}
	healthy := &recordSink{}
	subSlow := tier.Register(slow, nil, nil)
	subHealthy := tier.Register(healthy, nil, nil)
	tier.Subscribe(subSlow, "g", SourceMember)
	tier.Subscribe(subHealthy, "g", SourceMember)

	const msgs = 32
	for i := 0; i < msgs; i++ {
		// Pace on the healthy queue so only the gated subscriber sheds:
		// the assertion is isolation, not the healthy writer's raw speed.
		waitFor(t, "healthy queue room", func() bool { return subHealthy.Backlog() < depth })
		tier.Publish([]string{"g"}, 1, []byte("m"), 0, nil)
	}
	waitFor(t, "healthy catch-up", func() bool { return len(healthy.snapshot()) == msgs })
	if st := subHealthy.Stats(); st.Shed != 0 {
		t.Fatalf("healthy subscriber shed %d messages", st.Shed)
	}
	st := subSlow.Stats()
	if st.Backlog > depth {
		t.Fatalf("slow backlog %d exceeds depth %d", st.Backlog, depth)
	}
	// The slow writer may hold one popped run, which is at most what the
	// queue held; everything else beyond the queue bound must have been
	// shed.
	if want := uint64(msgs - 2*depth); st.Shed < want {
		t.Fatalf("shed = %d, want >= %d", st.Shed, want)
	}
	snap := tier.Snapshot()
	if snap.Shed != st.Shed {
		t.Fatalf("tier shed %d != subscriber shed %d", snap.Shed, st.Shed)
	}
	if snap.Disconnects != 0 {
		t.Fatalf("shed policy disconnected %d subscribers", snap.Disconnects)
	}
	close(slow.gate) // release the writer so the test tears down cleanly
	tier.Unregister(subSlow)
	tier.Unregister(subHealthy)
}

func TestDisconnectPolicyKillsSlowSubscriber(t *testing.T) {
	tier := NewTier(Config{QueueDepth: 1, Policy: PolicyDisconnect})
	slow := &recordSink{gate: make(chan error, 1)}
	var killed atomic.Bool
	exitErr := make(chan error, 1)
	sub := tier.Register(slow,
		func() {
			killed.Store(true)
			// Sever the "connection": the stuck write returns an error.
			slow.gate <- errors.New("connection reset")
		},
		func(err error) { exitErr <- err })
	tier.Subscribe(sub, "g", SourceMember)

	tier.Publish([]string{"g"}, 1, []byte("1"), 0, nil) // writer pops it, blocks
	waitFor(t, "writer stuck", func() bool { return sub.Backlog() == 0 })
	tier.Publish([]string{"g"}, 1, []byte("2"), 0, nil) // fills the queue
	tier.Publish([]string{"g"}, 1, []byte("3"), 0, nil) // overflows → kill
	if !killed.Load() {
		t.Fatal("onKill did not run synchronously from Publish")
	}
	select {
	case err := <-exitErr:
		if !errors.Is(err, ErrSlowClient) {
			t.Fatalf("exit error = %v, want ErrSlowClient", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writer never exited after the kill")
	}
	if snap := tier.Snapshot(); snap.Disconnects != 1 {
		t.Fatalf("disconnects = %d, want 1", snap.Disconnects)
	}
	// A dead subscriber still registered must not accept more frames.
	if n := tier.Publish([]string{"g"}, 1, []byte("4"), 0, nil); n != 0 {
		t.Fatalf("publish to dead subscriber enqueued %d", n)
	}
}

func TestControlFramesExemptFromBound(t *testing.T) {
	const depth = 2
	tier := NewTier(Config{QueueDepth: depth, Policy: PolicyShed})
	sink := &recordSink{gate: make(chan error)}
	sub := tier.Register(sink, nil, nil)
	tier.Subscribe(sub, "g", SourceMember)

	// Fill: writer holds the first message, queue holds depth more. Wait
	// for the writer to pop the first frame before filling, so none of
	// the fill is shed.
	tier.Publish([]string{"g"}, 1, []byte{0}, 0, nil)
	waitFor(t, "writer holding first frame", func() bool { return sub.Backlog() == 0 })
	for i := 1; i <= depth; i++ {
		tier.Publish([]string{"g"}, 1, []byte{byte(i)}, 0, nil)
	}
	if got := sub.Backlog(); got != depth {
		t.Fatalf("backlog = %d, want %d", got, depth)
	}
	// Control frames must still be accepted, past the bound, in order.
	const controls = 8
	for i := 0; i < controls; i++ {
		if !sub.Send(2, []byte{byte(i)}) {
			t.Fatalf("control frame %d rejected", i)
		}
	}
	if got := sub.Backlog(); got != depth+controls {
		t.Fatalf("backlog = %d, want %d", got, depth+controls)
	}
	close(sink.gate)
	waitFor(t, "drain", func() bool { return len(sink.snapshot()) == depth+1+controls })
	frames := sink.snapshot()
	for i, f := range frames {
		wantTyp := byte(1)
		wantByte := byte(i)
		if i > depth {
			wantTyp = 2
			wantByte = byte(i - depth - 1)
		}
		if f.typ != wantTyp || f.body[0] != wantByte {
			t.Fatalf("frame %d = (%d, %d), want (%d, %d): FIFO broken across ring growth",
				i, f.typ, f.body[0], wantTyp, wantByte)
		}
	}
}

func TestUnregisterWithdrawsAllInterests(t *testing.T) {
	tier := NewTier(Config{})
	sink := &recordSink{}
	exited := make(chan error, 1)
	sub := tier.Register(sink, nil, func(err error) { exited <- err })
	for i := 0; i < 5; i++ {
		tier.Subscribe(sub, fmt.Sprintf("g%d", i), SourceExplicit)
	}
	if snap := tier.Snapshot(); snap.Subscriptions != 5 || snap.Subscribers != 1 {
		t.Fatalf("snapshot before unregister: %+v", snap)
	}
	tier.Unregister(sub)
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("exit error = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writer never exited after Unregister")
	}
	if snap := tier.Snapshot(); snap.Subscriptions != 0 || snap.Subscribers != 0 {
		t.Fatalf("snapshot after unregister: %+v", snap)
	}
	for i := 0; i < 5; i++ {
		if n := tier.Publish([]string{fmt.Sprintf("g%d", i)}, 1, []byte("x"), 0, nil); n != 0 {
			t.Fatalf("publish after unregister enqueued %d", n)
		}
	}
	// Idempotent.
	tier.Unregister(sub)
}

func TestWriteErrorStopsSubscriber(t *testing.T) {
	tier := NewTier(Config{})
	boom := errors.New("broken pipe")
	sink := &recordSink{gate: make(chan error, 1)}
	sink.gate <- boom
	exited := make(chan error, 1)
	sub := tier.Register(sink, nil, func(err error) { exited <- err })
	tier.Subscribe(sub, "g", SourceMember)
	tier.Publish([]string{"g"}, 1, []byte("x"), 0, nil)
	select {
	case err := <-exited:
		if !errors.Is(err, boom) {
			t.Fatalf("exit error = %v, want the sink error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writer never exited after a write error")
	}
}

// TestConcurrentChurn hammers the tier from many goroutines — publishers,
// subscription churn, register/unregister — to give the race detector
// something to chew on.
func TestConcurrentChurn(t *testing.T) {
	tier := NewTier(Config{QueueDepth: 16, Policy: PolicyShed})
	groups := []string{"a", "b", "c"}
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sink := &recordSink{}
				sub := tier.Register(sink, nil, nil)
				for _, g := range groups {
					tier.Subscribe(sub, g, SourceExplicit)
				}
				tier.Subscribe(sub, groups[i%len(groups)], SourceMember)
				tier.Unsubscribe(sub, groups[(i+1)%len(groups)], SourceExplicit)
				tier.Unregister(sub)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		body := []byte("payload")
		for {
			select {
			case <-stop:
				return
			default:
				tier.Publish(groups, 1, body, 0, nil)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tier.Snapshot()
			}
		}
	}()

	// Wait for the churn workers, then stop the publisher and snapshotter.
	churnersDone := make(chan struct{})
	go func() {
		defer close(churnersDone)
		for tier.Snapshot().Subscribers != 0 {
			time.Sleep(time.Millisecond)
		}
	}()
	select {
	case <-churnersDone:
	case <-time.After(30 * time.Second):
		t.Fatal("churn never settled")
	}
	close(stop)
	wg.Wait()
	if snap := tier.Snapshot(); snap.Subscribers != 0 || snap.Subscriptions != 0 {
		t.Fatalf("tier not empty after churn: %+v", snap)
	}
}
