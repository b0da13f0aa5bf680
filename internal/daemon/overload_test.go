package daemon

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"accelring"
	"accelring/internal/client"
	"accelring/internal/core"
	"accelring/internal/fanout"
)

// TestOverloadHoldsClientInput floods one daemon open-loop with more
// messages than its node's backlog holds. The node refuses what does not
// fit; the daemon must hold that input and retry it, so a client at a
// second daemon receives every message, in the order it was sent.
func TestOverloadHoldsClientInput(t *testing.T) {
	const total = core.DefaultMaxPending + 20000
	// The receiver's queue holds the whole flood: this test is about the
	// sender's side, not about a slow reader.
	c := startDaemonsWith(t, 2, accelring.NewMemoryNetwork(11), fanout.Config{QueueDepth: total})
	sender := c.connect(0, "sender")
	receiver := c.connect(1, "receiver")
	if err := receiver.Join("flood"); err != nil {
		t.Fatal(err)
	}
	waitView(t, receiver, "flood", 1)

	sendErr := make(chan error, 1)
	go func() {
		var p [8]byte
		for i := 0; i < total; i++ {
			binary.BigEndian.PutUint64(p[:], uint64(i))
			if err := sender.Multicast(accelring.Agreed, p[:], "flood"); err != nil {
				sendErr <- fmt.Errorf("multicast %d: %w", i, err)
				return
			}
		}
	}()

	next := 0
	deadline := time.After(60 * time.Second)
	for next < total {
		select {
		case ev, ok := <-receiver.Events():
			if !ok {
				t.Fatalf("receiver's events closed after %d/%d messages", next, total)
			}
			if m, isMsg := ev.(client.Message); isMsg {
				if got := binary.BigEndian.Uint64(m.Payload); got != uint64(next) {
					t.Fatalf("message %d carries %d: the daemon lost or reordered input", next, got)
				}
				next++
			}
		case err := <-sendErr:
			t.Fatal(err)
		case <-deadline:
			t.Fatalf("received %d/%d messages (holds %d)", next, total, c.daemons[0].Snapshot().Holds)
		}
	}
	if c.daemons[0].Snapshot().Holds == 0 {
		t.Fatalf("the flood never filled the node's backlog: the test did not test overload")
	}
}
