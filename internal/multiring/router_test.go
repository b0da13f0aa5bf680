package multiring

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accelring/internal/wire"
)

// loopback simulates M instantly-ordering rings: every submitted envelope
// is echoed straight back as that ring's next delivery. Per-ring order is
// the submission order, which is exactly the contract a real ring provides.
type loopback struct {
	mu     sync.Mutex
	mux    chan TaggedEvent
	closed bool
}

func newLoopback(rings int) *loopback {
	return &loopback{mux: make(chan TaggedEvent, 1024)}
}

func (lb *loopback) handle(ring int, id wire.ParticipantID) RingHandle {
	return RingHandle{
		Submit: func(payload []byte, service wire.Service) error {
			lb.mu.Lock()
			defer lb.mu.Unlock()
			if lb.closed {
				return nil
			}
			lb.mux <- TaggedEvent{Ring: ring, Event: RingEvent{
				Sender: id, Service: service, Payload: payload,
			}}
			return nil
		},
	}
}

func (lb *loopback) inject(te TaggedEvent) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	if !lb.closed {
		lb.mux <- te
	}
}

func (lb *loopback) close() {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	if !lb.closed {
		lb.closed = true
		close(lb.mux)
	}
}

func startLoopbackRouter(t *testing.T, rings int, submitSkips bool) (*Router, *loopback) {
	t.Helper()
	lb := newLoopback(rings)
	handles := make([]RingHandle, rings)
	for i := range handles {
		handles[i] = lb.handle(i, 1)
	}
	r, err := NewRouter(Options{
		Rings:        handles,
		Events:       lb.mux,
		LocalID:      1,
		SubmitSkips:  submitSkips,
		SkipInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		lb.close()
		r.Close()
	})
	return r, lb
}

func nextDelivery(t *testing.T, r *Router) Delivery {
	t.Helper()
	for {
		select {
		case ev, ok := <-r.Events():
			if !ok {
				t.Fatal("router closed while waiting for a delivery")
			}
			if d, isD := ev.(Delivery); isD {
				return d
			}
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for a delivery")
		}
	}
}

func TestRouterSingleRing(t *testing.T) {
	r, _ := startLoopbackRouter(t, 1, false)
	for i := 0; i < 3; i++ {
		if err := r.Submit([]string{"g"}, []byte{byte(i)}, wire.ServiceAgreed); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		d := nextDelivery(t, r)
		if d.Turn != uint64(i) || d.Ring != 0 || len(d.Payload) != 1 || d.Payload[0] != byte(i) {
			t.Fatalf("delivery %d: %+v", i, d)
		}
		if d.Sender != 1 || d.Shards != 1 || d.Groups[0] != "g" {
			t.Fatalf("delivery %d metadata: %+v", i, d)
		}
	}
}

// twoShardGroups finds two group names hashing to shards 0 and 1 of a
// two-ring deployment.
func twoShardGroups(t *testing.T) (g0, g1 string) {
	t.Helper()
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	for _, n := range names {
		switch ShardOf(n, 2) {
		case 0:
			if g0 == "" {
				g0 = n
			}
		case 1:
			if g1 == "" {
				g1 = n
			}
		}
	}
	if g0 == "" || g1 == "" {
		t.Fatal("could not find groups on both shards")
	}
	return g0, g1
}

func TestRouterMultiShardDelivery(t *testing.T) {
	r, _ := startLoopbackRouter(t, 2, false)
	g0, g1 := twoShardGroups(t)
	if err := r.Submit([]string{g0, g1}, []byte("both"), wire.ServiceAgreed); err != nil {
		t.Fatal(err)
	}
	d := nextDelivery(t, r)
	if d.Shards != 2 || d.Turn != 1 || d.Ring != 1 {
		t.Fatalf("multi-shard delivery: %+v", d)
	}
	if string(d.Payload) != "both" {
		t.Fatalf("payload = %q", d.Payload)
	}
	s := r.Snapshot()
	if s.Merged != 1 || s.UnitsIn[0] != 1 || s.UnitsIn[1] != 1 || s.MultiShardPending != 0 {
		t.Fatalf("snapshot: %+v", s)
	}
}

func TestRouterSkipLeaderUnstallsIdleRing(t *testing.T) {
	r, _ := startLoopbackRouter(t, 2, true)
	g0, _ := twoShardGroups(t)
	// Two messages on shard 0 only: the second needs ring 1 padded past
	// turn 1, which only the skip leader provides.
	for i := 0; i < 2; i++ {
		if err := r.Submit([]string{g0}, []byte{byte(i)}, wire.ServiceAgreed); err != nil {
			t.Fatal(err)
		}
	}
	d0 := nextDelivery(t, r)
	d1 := nextDelivery(t, r)
	if d0.Turn != 0 || d1.Turn <= d0.Turn {
		t.Fatalf("turns %d then %d", d0.Turn, d1.Turn)
	}
	s := r.Snapshot()
	if s.SkipsSubmitted == 0 || s.SkipsConsumed == 0 {
		t.Fatalf("no skips recorded: %+v", s)
	}
	if s.StarvedTicks == 0 {
		t.Fatalf("no starved ticks recorded: %+v", s)
	}
}

func TestRouterNonLeaderDoesNotSkip(t *testing.T) {
	r, lb := startLoopbackRouter(t, 2, false)
	g0, _ := twoShardGroups(t)
	for i := 0; i < 2; i++ {
		if err := r.Submit([]string{g0}, []byte{byte(i)}, wire.ServiceAgreed); err != nil {
			t.Fatal(err)
		}
	}
	d0 := nextDelivery(t, r)
	if d0.Turn != 0 {
		t.Fatalf("first delivery at turn %d", d0.Turn)
	}
	// The second message must stall until a skip arrives from outside
	// (here: injected manually, standing in for the leader node).
	select {
	case ev := <-r.Events():
		t.Fatalf("non-leader unstalled itself: %+v", ev)
	case <-time.After(50 * time.Millisecond):
	}
	env, err := AppendSkipEnvelope(nil, MsgKey{Sender: 2, Seq: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	lb.inject(TaggedEvent{Ring: 1, Event: RingEvent{Sender: 2, Service: wire.ServiceAgreed, Payload: env}})
	if d1 := nextDelivery(t, r); d1.Turn != 2 {
		t.Fatalf("post-skip delivery at turn %d, want 2", d1.Turn)
	}
	if s := r.Snapshot(); s.SkipsSubmitted != 0 {
		t.Fatalf("non-leader submitted %d skips", s.SkipsSubmitted)
	}
}

func TestRouterDecodeFailureBecomesSkip(t *testing.T) {
	r, lb := startLoopbackRouter(t, 2, false)
	g0, _ := twoShardGroups(t)
	if err := r.Submit([]string{g0}, []byte("first"), wire.ServiceAgreed); err != nil {
		t.Fatal(err)
	}
	if d := nextDelivery(t, r); d.Turn != 0 {
		t.Fatalf("first delivery at turn %d", d.Turn)
	}
	// Garbage on ring 1 pads turn 1, exactly like a skip, so the next
	// shard-0 message merges at turn 2 — on every node, since all see the
	// same bytes.
	lb.inject(TaggedEvent{Ring: 1, Event: RingEvent{Sender: 9, Service: wire.ServiceAgreed, Payload: []byte("not an envelope")}})
	if err := r.Submit([]string{g0}, []byte("second"), wire.ServiceAgreed); err != nil {
		t.Fatal(err)
	}
	if d := nextDelivery(t, r); d.Turn != 2 {
		t.Fatalf("post-garbage delivery at turn %d, want 2", d.Turn)
	}
	if s := r.Snapshot(); s.DecodeFailures != 1 {
		t.Fatalf("DecodeFailures = %d, want 1", s.DecodeFailures)
	}
}

func TestRouterForwardsConfigImmediately(t *testing.T) {
	var seen []ConfigUpdate
	var mu sync.Mutex
	lb := newLoopback(2)
	r, err := NewRouter(Options{
		Rings:   []RingHandle{lb.handle(0, 1), lb.handle(1, 1)},
		Events:  lb.mux,
		LocalID: 1,
		// The OnConfig tap fires on the merge goroutine before channel
		// delivery.
		OnConfig: func(cu ConfigUpdate) {
			mu.Lock()
			seen = append(seen, cu)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		lb.close()
		r.Close()
	})
	lb.inject(TaggedEvent{Ring: 1, Event: RingEvent{
		Config:  true,
		ID:      wire.RingID{Rep: 3, Seq: 14},
		Members: []wire.ParticipantID{1, 2},
	}})
	select {
	case ev := <-r.Events():
		cu, ok := ev.(ConfigUpdate)
		if !ok {
			t.Fatalf("got %T, want ConfigUpdate", ev)
		}
		if cu.Ring != 1 || cu.ID != (wire.RingID{Rep: 3, Seq: 14}) || len(cu.Members) != 2 {
			t.Fatalf("config update: %+v", cu)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("config update never delivered")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 {
		t.Fatalf("OnConfig fired %d times", len(seen))
	}
	if s := r.Snapshot(); s.ConfigsForwarded != 1 {
		t.Fatalf("ConfigsForwarded = %d", s.ConfigsForwarded)
	}
}

func TestRouterOnUnitSeesPerRingOrder(t *testing.T) {
	var mu sync.Mutex
	perRing := make(map[int][]uint64)
	lb := newLoopback(2)
	handles := []RingHandle{lb.handle(0, 1), lb.handle(1, 1)}
	r, err := NewRouter(Options{
		Rings:   handles,
		Events:  lb.mux,
		LocalID: 1,
		OnUnit: func(ring int, u Unit) {
			mu.Lock()
			perRing[ring] = append(perRing[ring], u.Key.Seq)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		lb.close()
		r.Close()
	}()
	g0, g1 := twoShardGroups(t)
	for i := 0; i < 3; i++ {
		if err := r.Submit([]string{g0}, nil, wire.ServiceAgreed); err != nil {
			t.Fatal(err)
		}
		if err := r.Submit([]string{g1}, nil, wire.ServiceAgreed); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		nextDelivery(t, r)
	}
	mu.Lock()
	defer mu.Unlock()
	for ring, seqs := range perRing {
		for i := 1; i < len(seqs); i++ {
			if seqs[i] <= seqs[i-1] {
				t.Fatalf("ring %d units out of order: %v", ring, seqs)
			}
		}
	}
	if len(perRing[0]) != 3 || len(perRing[1]) != 3 {
		t.Fatalf("per-ring unit counts: %v", perRing)
	}
}

// TestRouterSequenceMatchesEnqueueOrder is the regression test for the
// sender-FIFO race: taking a sender sequence and enqueueing on the ring
// used to be two steps, so a second producer could take N+1 and enqueue it
// before N. The recording ring parks its first caller — which already owns
// sequence N — and yields until a second producer has been recorded ahead
// of it, or, when the router correctly holds that producer back, until a
// bounded number of yields has passed. No sleeps, no timing assumptions.
func TestRouterSequenceMatchesEnqueueOrder(t *testing.T) {
	var (
		mu        sync.Mutex
		order     []uint64 // sender sequences in ring enqueue order
		calls     atomic.Int32
		overtaken atomic.Bool
	)
	firstIn := make(chan struct{})
	ring := RingHandle{Submit: func(payload []byte, _ wire.Service) error {
		u, err := DecodeEnvelope(payload)
		if err != nil {
			return err
		}
		first := calls.Add(1) == 1
		if first {
			close(firstIn)
			for i := 0; i < 100000 && !overtaken.Load(); i++ {
				runtime.Gosched()
			}
		}
		mu.Lock()
		order = append(order, u.Key.Seq)
		mu.Unlock()
		if !first {
			overtaken.Store(true)
		}
		return nil
	}}
	r, err := NewRouter(Options{Rings: []RingHandle{ring}, Events: make(chan TaggedEvent), LocalID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		errs <- r.Submit([]string{"g"}, []byte("a"), wire.ServiceAgreed)
	}()
	<-firstIn // the first producer owns its sequence and is inside the ring
	go func() {
		defer wg.Done()
		errs <- r.SubmitShard(0, "g", []byte("b"), wire.ServiceAgreed)
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(order) != 2 || order[0] >= order[1] {
		t.Fatalf("ring enqueue order %v is not the sender sequence order", order)
	}
}

func TestRouterRejects(t *testing.T) {
	if _, err := NewRouter(Options{}); err == nil {
		t.Fatal("no rings accepted")
	}
	lb := newLoopback(1)
	if _, err := NewRouter(Options{Rings: []RingHandle{lb.handle(0, 1)}}); err == nil {
		t.Fatal("nil events channel accepted")
	}
	r, _ := startLoopbackRouter(t, 2, false)
	if err := r.Submit(nil, nil, wire.ServiceAgreed); err == nil {
		t.Fatal("empty group list accepted")
	}
	if err := r.SubmitShard(5, "g", nil, wire.ServiceAgreed); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}
