package fanout

import "testing"

// blockedSink parks the writer goroutine on a channel so the hot-path
// measurement sees only the publisher's work.
type blockedSink struct{ gate chan struct{} }

func (s blockedSink) WriteFrame(byte, []byte) error {
	<-s.gate
	return nil
}

// TestPublishAllocs gates the fan-out hot path at zero allocations per
// Publish: the encoded body is shared by reference across every
// interested subscriber (decode/encode once), dedup is the stamp
// generation rather than a per-call map, and the ring slots are reused —
// so an additional subscriber costs no allocation. Depth equals the
// initial physical ring so no grow lands inside the measurement; the run
// covers both the enqueue path (filling to depth) and the shed path
// (everything after).
func TestPublishAllocs(t *testing.T) {
	const subs = 64
	gate := make(chan struct{})
	defer close(gate)
	tier := NewTier(Config{QueueDepth: initialRing, Policy: PolicyShed})
	for i := 0; i < subs; i++ {
		sub := tier.Register(blockedSink{gate: gate}, nil, nil)
		tier.Subscribe(sub, "hot", SourceMember)
		tier.Subscribe(sub, "warm", SourceExplicit)
	}
	groups := []string{"hot", "warm"}
	body := make([]byte, 256)
	// Park every writer in its sink first: AllocsPerRun counts the whole
	// process, and a writer still waking would pop (and size its run
	// scratch) inside the measurement.
	tier.Publish(groups, 1, body, 0, nil)
	waitFor(t, "writers parked", func() bool { return tier.Backlog() == 0 })
	allocs := testing.AllocsPerRun(200, func() {
		tier.Publish(groups, 1, body, 0, nil)
	})
	if allocs != 0 {
		t.Fatalf("Publish allocates %.1f times per call, want 0", allocs)
	}
}
