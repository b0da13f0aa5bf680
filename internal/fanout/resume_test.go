package fanout

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// publishSeq publishes n stamped single-byte messages to group g,
// continuing the stamp sequence at from+1. Bodies carry the stamp so sinks
// can be checked against exact suffixes.
func publishSeq(tier *Tier, g string, from uint64, n int) uint64 {
	for i := 0; i < n; i++ {
		from++
		tier.Publish([]string{g}, 1, []byte{byte(from)}, from, nil)
	}
	return from
}

// stamps extracts the single-byte stamp bodies a sink recorded.
func stamps(frames []frame) []byte {
	out := make([]byte, 0, len(frames))
	for _, f := range frames {
		out = append(out, f.body[0])
	}
	return out
}

func expectStamps(t *testing.T, sink *recordSink, want ...byte) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d frames", len(want)), func() bool {
		return len(sink.snapshot()) >= len(want)
	})
	got := stamps(sink.snapshot())
	if len(got) != len(want) {
		t.Fatalf("sink saw stamps %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sink saw stamps %v, want %v", got, want)
		}
	}
}

// TestResumeExactSuffix is the clean path: everything published while the
// subscriber was away is queued, nothing is dropped, and the resumed sink
// sees exactly the suffix after its stamp.
func TestResumeExactSuffix(t *testing.T) {
	for _, policy := range []Policy{PolicyDisconnect, PolicyShed} {
		t.Run(policy.String(), func(t *testing.T) {
			tier := NewTier(Config{QueueDepth: 64, Policy: policy, HistoryDepth: 64})
			old := &recordSink{}
			sub := tier.Register(old, nil, nil)
			tier.Subscribe(sub, "g", SourceMember)

			last := publishSeq(tier, "g", 0, 3)
			expectStamps(t, old, 1, 2, 3)
			if !tier.Detach(sub) {
				t.Fatal("Detach refused a live subscriber")
			}
			last = publishSeq(tier, "g", last, 4) // queued while away
			replacement := &recordSink{}
			gap, err := tier.Attach(sub, replacement, 3, nil, nil)
			if err != nil || gap {
				t.Fatalf("Attach: gap=%v err=%v", gap, err)
			}
			expectStamps(t, replacement, 4, 5, 6, 7)
			// The resumed stream keeps flowing.
			publishSeq(tier, "g", last, 1)
			expectStamps(t, replacement, 4, 5, 6, 7, 8)
		})
	}
}

// TestResumeRewindsHistory covers frames that were written to the dying
// connection but never received: the client resumes from an older stamp
// and the suffix is replayed out of the history ring, gap-free.
func TestResumeRewindsHistory(t *testing.T) {
	tier := NewTier(Config{QueueDepth: 64, Policy: PolicyShed, HistoryDepth: 64})
	old := &recordSink{}
	sub := tier.Register(old, nil, nil)
	tier.Subscribe(sub, "g", SourceMember)

	publishSeq(tier, "g", 0, 5)
	expectStamps(t, old, 1, 2, 3, 4, 5)
	tier.Detach(sub)
	// Client only got through stamp 2; 3..5 died in the socket buffer.
	replacement := &recordSink{}
	gap, err := tier.Attach(sub, replacement, 2, nil, nil)
	if err != nil || gap {
		t.Fatalf("Attach: gap=%v err=%v", gap, err)
	}
	expectStamps(t, replacement, 3, 4, 5)

	// A second detach/resume cycle must not replay duplicates from stale
	// history copies.
	tier.Detach(sub)
	third := &recordSink{}
	gap, err = tier.Attach(sub, third, 5, nil, nil)
	if err != nil || gap {
		t.Fatalf("second Attach: gap=%v err=%v", gap, err)
	}
	publishSeq(tier, "g", 5, 1)
	expectStamps(t, third, 6)
}

// TestShedWhileAwayReportsGap overflows a detached shed-policy queue: the
// oldest suffix is gone, Attach must say so, and the sink still gets the
// queued remainder in order.
func TestShedWhileAwayReportsGap(t *testing.T) {
	tier := NewTier(Config{QueueDepth: 4, Policy: PolicyShed, HistoryDepth: 8})
	old := &recordSink{}
	sub := tier.Register(old, nil, nil)
	tier.Subscribe(sub, "g", SourceMember)

	publishSeq(tier, "g", 0, 2)
	expectStamps(t, old, 1, 2)
	tier.Detach(sub)
	// 6 messages against depth 4: the last two are shed (drop-newest).
	publishSeq(tier, "g", 2, 6)
	if got := sub.Stats().Shed; got != 2 {
		t.Fatalf("shed %d messages while away, want 2", got)
	}
	replacement := &recordSink{}
	gap, err := tier.Attach(sub, replacement, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !gap {
		t.Fatal("Attach reported no gap after shedding while away")
	}
	expectStamps(t, replacement, 3, 4, 5, 6)
}

// TestDisconnectPolicyKillsDetached: under PolicyDisconnect an overflow
// while away kills the session outright; the resume must fail cleanly so
// the daemon falls back to a fresh session.
func TestDisconnectPolicyKillsDetached(t *testing.T) {
	tier := NewTier(Config{QueueDepth: 4, Policy: PolicyDisconnect, HistoryDepth: 8})
	killed := false
	sub := tier.Register(&recordSink{}, func() { killed = true }, nil)
	tier.Subscribe(sub, "g", SourceMember)
	tier.Detach(sub)

	publishSeq(tier, "g", 0, 5)
	if killed {
		t.Fatal("kill callback fired after Detach cleared it")
	}
	if _, err := tier.Attach(sub, &recordSink{}, 0, nil, nil); !errors.Is(err, ErrResumeClosed) {
		t.Fatalf("Attach err = %v, want ErrResumeClosed", err)
	}
}

// TestHistoryEvictionReportsGap: frames evicted past the history depth are
// unreplayable, so resuming from before them is a gap even though nothing
// was shed.
func TestHistoryEvictionReportsGap(t *testing.T) {
	tier := NewTier(Config{QueueDepth: 64, Policy: PolicyShed, HistoryDepth: 2})
	old := &recordSink{}
	sub := tier.Register(old, nil, nil)
	tier.Subscribe(sub, "g", SourceMember)

	publishSeq(tier, "g", 0, 5) // history keeps 4,5; 1..3 evicted
	expectStamps(t, old, 1, 2, 3, 4, 5)
	tier.Detach(sub)
	replacement := &recordSink{}
	gap, err := tier.Attach(sub, replacement, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !gap {
		t.Fatal("Attach reported no gap though stamp 3 was evicted")
	}
	expectStamps(t, replacement, 4, 5) // best-effort suffix after the gap
}

// TestNoHistoryResumeIsConservative: with history disabled every written
// frame is unreplayable, so a resume from behind the write head reports a
// gap, while a resume from the exact last stamp is clean.
func TestNoHistoryResumeIsConservative(t *testing.T) {
	tier := NewTier(Config{QueueDepth: 64, Policy: PolicyShed})
	old := &recordSink{}
	sub := tier.Register(old, nil, nil)
	tier.Subscribe(sub, "g", SourceMember)

	publishSeq(tier, "g", 0, 3)
	expectStamps(t, old, 1, 2, 3)
	tier.Detach(sub)
	if gap, err := tier.Attach(sub, &recordSink{}, 2, nil, nil); err != nil || !gap {
		t.Fatalf("Attach from stamp 2: gap=%v err=%v, want gap", gap, err)
	}
	tier.Detach(sub)
	if gap, err := tier.Attach(sub, &recordSink{}, 3, nil, nil); err != nil || gap {
		t.Fatalf("Attach from stamp 3: gap=%v err=%v, want clean", gap, err)
	}
}

// TestWriteFailureFrameReplayed: a frame that was popped but whose write
// failed as the connection died must still reach the resumed sink — it
// went into history before the write.
func TestWriteFailureFrameReplayed(t *testing.T) {
	tier := NewTier(Config{QueueDepth: 64, Policy: PolicyShed, HistoryDepth: 8})
	gate := make(chan error, 1)
	old := &recordSink{gate: gate}
	exited := make(chan error, 1)
	sub := tier.Register(old, nil, func(err error) { exited <- err })
	tier.Subscribe(sub, "g", SourceMember)

	tier.Publish([]string{"g"}, 1, []byte{1}, 1, nil)
	gate <- errors.New("conn reset")
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("writer did not exit on sink failure")
	}
	// The failed write closed the subscriber; a real daemon detaches
	// before the conn dies under it only sometimes — when the writer loses
	// the race, resume must fail cleanly rather than hang.
	if _, err := tier.Attach(sub, &recordSink{}, 0, nil, nil); !errors.Is(err, ErrResumeClosed) {
		t.Fatalf("Attach err = %v, want ErrResumeClosed", err)
	}
}

// TestDetachBeatsWriteFailure: when Detach lands while the writer is stuck
// in a failing write, the popped frame is replayed to the resumed sink and
// no exit callback fires.
func TestDetachBeatsWriteFailure(t *testing.T) {
	tier := NewTier(Config{QueueDepth: 64, Policy: PolicyShed, HistoryDepth: 8})
	gate := make(chan error, 1)
	old := &recordSink{gate: gate}
	exitCalls := make(chan error, 4)
	sub := tier.Register(old, nil, func(err error) { exitCalls <- err })
	tier.Subscribe(sub, "g", SourceMember)

	tier.Publish([]string{"g"}, 1, []byte{1}, 1, nil)
	// Writer has popped the frame and is parked in WriteFrame on the gate.
	waitFor(t, "writer to pop", func() bool { return sub.Backlog() == 0 })
	tier.Detach(sub)
	gate <- errors.New("conn reset") // write now fails, post-detach
	replacement := &recordSink{}
	gap, err := tier.Attach(sub, replacement, 0, nil, nil)
	if err != nil || gap {
		t.Fatalf("Attach: gap=%v err=%v", gap, err)
	}
	expectStamps(t, replacement, 1)
	select {
	case err := <-exitCalls:
		t.Fatalf("exit callback fired with %v after detach", err)
	case <-time.After(50 * time.Millisecond):
	}
}
