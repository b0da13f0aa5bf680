package memnet

import (
	"testing"
	"time"

	"accelring/internal/faultplan"
)

func recvWithin(t *testing.T, ch <-chan []byte, d time.Duration) []byte {
	t.Helper()
	select {
	case pkt := <-ch:
		return pkt
	case <-time.After(d):
		t.Fatal("no packet within deadline")
		return nil
	}
}

func expectNothing(t *testing.T, ch <-chan []byte, d time.Duration) {
	t.Helper()
	select {
	case pkt := <-ch:
		t.Fatalf("unexpected packet %q", pkt)
	case <-time.After(d):
	}
}

func TestPartitionBlocksTraffic(t *testing.T) {
	h := NewHub()
	h.SetLatency(0)
	a, b := h.Join(1), h.Join(2)
	defer a.Close()
	defer b.Close()
	h.ApplyFaults(&faultplan.Plan{Events: []faultplan.NodeEvent{
		{Kind: faultplan.EventPartition, Node: 2, Group: 1},
	}})
	if err := a.Multicast([][]byte{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
	if err := a.Unicast(2, []byte("y")); err != nil {
		t.Fatal(err)
	}
	expectNothing(t, b.Data(), 20*time.Millisecond)
	expectNothing(t, b.Token(), 20*time.Millisecond)

	h.ApplyFaults(nil) // clears the partition too
	if err := a.Multicast([][]byte{[]byte("z")}); err != nil {
		t.Fatal(err)
	}
	if got := recvWithin(t, b.Data(), time.Second); string(got) != "z" {
		t.Fatalf("after heal got %q", got)
	}
}

func TestFullLossDropsEverything(t *testing.T) {
	h := NewHub()
	h.SetLatency(0)
	h.ApplyFaults(onEveryLink(1, faultplan.LinkFault{Loss: 1}))
	a, b := h.Join(1), h.Join(2)
	defer a.Close()
	defer b.Close()
	for i := 0; i < 50; i++ {
		if err := a.Multicast([][]byte{[]byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	expectNothing(t, b.Data(), 20*time.Millisecond)
}

func TestLatencyDelaysDelivery(t *testing.T) {
	h := NewHub()
	h.SetLatency(30 * time.Millisecond)
	a, b := h.Join(1), h.Join(2)
	defer a.Close()
	defer b.Close()
	start := time.Now()
	if err := a.Multicast([][]byte{[]byte("slow")}); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, b.Data(), time.Second)
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("delivered after %v, want >= ~30ms", elapsed)
	}
}

func TestCloseStopsDeliveryToEndpoint(t *testing.T) {
	h := NewHub()
	h.SetLatency(0)
	a, b := h.Join(1), h.Join(2)
	defer a.Close()
	b.Close()
	// Sending to a closed endpoint must not panic or error the sender.
	if err := a.Multicast([][]byte{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
}

func TestRejoinReplacesEndpoint(t *testing.T) {
	h := NewHub()
	h.SetLatency(0)
	old := h.Join(1)
	fresh := h.Join(1)
	defer fresh.Close()
	b := h.Join(2)
	defer b.Close()
	if err := b.Unicast(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := recvWithin(t, fresh.Token(), time.Second); string(got) != "x" {
		t.Fatalf("got %q", got)
	}
	expectNothing(t, old.Token(), 20*time.Millisecond)
	old.Close()
}

// TestOverflowDropsAreCounted saturates a receiver that never drains its
// Data channel and checks that every overflowing packet lands in the drop
// counter instead of vanishing silently: accepted + dropped must equal
// sent, and no more than the queue capacity can ever be accepted.
func TestOverflowDropsAreCounted(t *testing.T) {
	h := NewHub()
	h.SetLatency(0)
	sender := h.Join(1)
	receiver := h.Join(2)
	defer sender.Close()
	defer receiver.Close()

	const sent = 3 * defaultQueue
	for i := 0; i < sent; i++ {
		if err := sender.Multicast([][]byte{{byte(i), byte(i >> 8)}}); err != nil {
			t.Fatal(err)
		}
	}

	// The pump keeps moving due packets until every one has been accepted
	// or dropped; poll for the accounting to converge.
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := receiver.MetricsSnapshot()
		if snap.DatagramsIn+snap.RecvQueueDrops == sent {
			if snap.RecvQueueDrops < sent-defaultQueue {
				t.Fatalf("drops = %d, want >= %d (queue holds at most %d)",
					snap.RecvQueueDrops, sent-defaultQueue, defaultQueue)
			}
			if snap.DatagramsIn > defaultQueue {
				t.Fatalf("accepted %d packets into a queue of %d", snap.DatagramsIn, defaultQueue)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("accounting never converged: %+v (sent %d)", snap, sent)
		}
		time.Sleep(time.Millisecond)
	}

	if out := sender.MetricsSnapshot(); out.DatagramsOut != sent || out.FanoutSends != sent {
		t.Fatalf("sender accounting: %+v, want %d out/fanout", out, sent)
	}
}
