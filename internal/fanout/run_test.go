package fanout

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// The run writer — pop whatever is pending under one lock, hand it to the
// sink in order, flush once — against resume, policy and ordering.

// runSink is a buffering sink: WriteFrame collects the run, Flush puts it
// "on the wire" (the seen record) and notes the run's length. gate, when
// non-nil, parks the first WriteFrame of every run until it yields, so a
// test can queue frames behind a writer that is provably inside a run.
// failAt makes the failAt-th Flush (1-based) deliver only the first
// accept frames of its run and then fail, like a connection dying mid-write.
type runSink struct {
	gate   chan struct{}
	failAt int
	accept int

	mu      sync.Mutex
	pending []frame
	seen    []frame
	runs    []int
	flushes int
}

func (s *runSink) WriteFrame(typ byte, body []byte) error {
	s.mu.Lock()
	first := len(s.pending) == 0
	s.mu.Unlock()
	if first && s.gate != nil {
		<-s.gate
	}
	s.mu.Lock()
	s.pending = append(s.pending, frame{typ: typ, body: body})
	s.mu.Unlock()
	return nil
}

func (s *runSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushes++
	run := s.pending
	s.pending = nil
	if s.flushes == s.failAt {
		s.seen = append(s.seen, run[:s.accept]...)
		return errors.New("connection reset mid-run")
	}
	s.seen = append(s.seen, run...)
	s.runs = append(s.runs, len(run))
	return nil
}

func (s *runSink) record() (seen []frame, runs []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]frame(nil), s.seen...), append([]int(nil), s.runs...)
}

// parkWriter publishes one primer message (stamp 1) and waits until the
// writer has popped it and is parked in the sink's gate, so everything
// queued next forms the following run.
func parkWriter(t *testing.T, tier *Tier, sub *Subscriber) {
	t.Helper()
	tier.Publish([]string{"g"}, 1, []byte{1}, 1, nil)
	waitFor(t, "writer parked in the primer run", func() bool { return sub.Backlog() == 0 })
}

// TestFailedRunReplayedExactlyOnce: a run of n frames whose flush fails
// after the connection took k of them is wholly in history, so the next
// attachment — resuming from the last stamp the client saw — delivers the
// rest: all n exactly once, in order, no gap.
func TestFailedRunReplayedExactlyOnce(t *testing.T) {
	const n = 8
	for _, k := range []int{0, 1, n - 1, n} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			tier := NewTier(Config{QueueDepth: 64, Policy: PolicyShed, HistoryDepth: 64, Resumable: true})
			old := &runSink{gate: make(chan struct{}), failAt: 2, accept: k}
			exited := make(chan error, 1)
			sub := tier.Register(old, nil, func(err error) { exited <- err })
			tier.Subscribe(sub, "g", SourceMember)
			parkWriter(t, tier, sub)
			last := publishSeq(tier, "g", 1, n) // stamps 2..n+1, one run
			close(old.gate)
			select {
			case err := <-exited:
				if err == nil {
					t.Fatal("writer exited cleanly from a failed flush")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("writer did not exit on the failed flush")
			}
			seen, _ := old.record()
			if len(seen) != 1+k {
				t.Fatalf("old connection saw %d frames, want primer + %d", len(seen), k)
			}
			acked := uint64(seen[len(seen)-1].body[0])
			replacement := &recordSink{}
			gap, err := tier.Attach(sub, replacement, acked, nil, nil)
			if err != nil || gap {
				t.Fatalf("Attach from stamp %d: gap=%v err=%v", acked, gap, err)
			}
			waitFor(t, "replay", func() bool { return len(replacement.snapshot()) == n-k })
			got := append(stamps(seen), stamps(replacement.snapshot())...)
			for i, s := range got {
				if s != byte(i+1) {
					t.Fatalf("client saw stamps %v, want 1..%d exactly once in order", got, last)
				}
			}
			// Primer plus replay: the failed run itself never counted.
			waitFor(t, "delivered count", func() bool { return sub.Stats().Delivered >= uint64(1+n-k) })
			if st := sub.Stats(); st.Delivered != uint64(1+n-k) {
				t.Fatalf("stats %+v: a failed run must not count as delivered", st)
			}
		})
	}
}

// TestRunBoundedByHistory: with a replay history of 4 and 64 frames
// queued, no run carries more than 4 message frames — so whichever flush
// fails, every frame of its run (and nothing before it that the client
// lacks) is still replayable.
func TestRunBoundedByHistory(t *testing.T) {
	const hist, queued = 4, 64
	for failAt := 2; failAt <= 1+queued/hist; failAt += 5 {
		t.Run(fmt.Sprintf("flush %d fails", failAt), func(t *testing.T) {
			tier := NewTier(Config{QueueDepth: 128, Policy: PolicyShed, HistoryDepth: hist, Resumable: true})
			old := &runSink{gate: make(chan struct{}), failAt: failAt}
			exited := make(chan error, 1)
			sub := tier.Register(old, nil, func(err error) { exited <- err })
			tier.Subscribe(sub, "g", SourceMember)
			parkWriter(t, tier, sub)
			publishSeq(tier, "g", 1, queued)
			close(old.gate)
			select {
			case <-exited:
			case <-time.After(5 * time.Second):
				t.Fatal("writer did not exit on the failed flush")
			}
			seen, runs := old.record()
			for i, n := range runs {
				if n > hist {
					t.Fatalf("run %d carried %d frames past a history of %d", i, n, hist)
				}
			}
			acked := uint64(seen[len(seen)-1].body[0])
			replacement := &recordSink{}
			gap, err := tier.Attach(sub, replacement, acked, nil, nil)
			if err != nil || gap {
				t.Fatalf("Attach from stamp %d: gap=%v err=%v — a frame left history before it was on the wire", acked, gap, err)
			}
			waitFor(t, "replay", func() bool { return len(seen)+len(replacement.snapshot()) == 1+queued })
			for i, s := range append(stamps(seen), stamps(replacement.snapshot())...) {
				if s != byte(i+1) {
					t.Fatalf("stamp %d at position %d", s, i)
				}
			}
		})
	}
}

// TestControlFrameKeepsItsPlaceInRun: a control frame queued between
// messages leaves in the same run, at the same position.
func TestControlFrameKeepsItsPlaceInRun(t *testing.T) {
	tier := NewTier(Config{QueueDepth: 64, Policy: PolicyShed, HistoryDepth: 2})
	sink := &runSink{gate: make(chan struct{})}
	sub := tier.Register(sink, nil, nil)
	tier.Subscribe(sub, "g", SourceMember)
	parkWriter(t, tier, sub)
	publishSeq(tier, "g", 1, 2) // 2, 3
	sub.Send(7, []byte{0xC1})
	publishSeq(tier, "g", 3, 1) // 4
	sub.Send(7, []byte{0xC2})
	close(sink.gate)
	waitFor(t, "drain", func() bool { seen, _ := sink.record(); return len(seen) == 6 })
	seen, runs := sink.record()
	want := []frame{{typ: 1, body: []byte{1}}, {typ: 1, body: []byte{2}}, {typ: 1, body: []byte{3}},
		{typ: 7, body: []byte{0xC1}}, {typ: 1, body: []byte{4}}, {typ: 7, body: []byte{0xC2}}}
	for i, f := range seen {
		if f.typ != want[i].typ || f.body[0] != want[i].body[0] {
			t.Fatalf("frame %d = (%d, %#x), want (%d, %#x)", i, f.typ, f.body[0], want[i].typ, want[i].body[0])
		}
	}
	// History 2 cuts the second run after two message frames; the control
	// frame between them does not count against it and stays in place.
	if len(runs) != 3 || runs[0] != 1 || runs[1] != 3 || runs[2] != 2 {
		t.Fatalf("runs %v, want [1 3 2]", runs)
	}
}

// memSink is an in-memory buffering sink that allocates nothing once its
// buffer has grown: the daemon's ipcSink without the socket.
type memSink struct {
	gate chan struct{}
	buf  []byte
}

func (s *memSink) WriteFrame(typ byte, body []byte) error {
	<-s.gate
	s.buf = append(append(s.buf, typ), body...)
	return nil
}

func (s *memSink) Flush() error {
	s.buf = s.buf[:0]
	return nil
}

// TestRunWriterAllocs gates the writer's run path — pop, sink, flush,
// history included — at zero allocations per frame. The first run is made
// as long as any later one can be, so the writer's scratch and the sink's
// buffer are at their working size before the measurement.
func TestRunWriterAllocs(t *testing.T) {
	const burst = 32
	tier := NewTier(Config{QueueDepth: 64, Policy: PolicyShed, HistoryDepth: 64})
	sink := &memSink{gate: make(chan struct{})}
	sub := tier.Register(sink, nil, nil)
	tier.Subscribe(sub, "g", SourceMember)
	groups := []string{"g"}
	body := make([]byte, 64)
	var stamp uint64
	enqueue := func() {
		for i := 0; i < burst; i++ {
			stamp++
			tier.Publish(groups, 1, body, stamp, nil)
		}
	}
	drain := func() {
		for sub.Stats().Delivered < stamp {
			runtime.Gosched()
		}
	}
	stamp++
	tier.Publish(groups, 1, body, stamp, nil)
	waitFor(t, "writer parked", func() bool { return sub.Backlog() == 0 })
	enqueue()
	close(sink.gate)
	drain()
	allocs := testing.AllocsPerRun(100, func() { enqueue(); drain() })
	if allocs != 0 {
		t.Fatalf("the run path allocates %.2f times per %d frames, want 0", allocs, burst)
	}
}
