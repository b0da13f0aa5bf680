package memnet

import (
	"fmt"
	"testing"
	"time"

	"accelring/internal/faultplan"
	"accelring/internal/transport"
)

// recvWithin receives one run and returns its one datagram; a run of more
// fails the test.
func recvWithin(t *testing.T, ch <-chan transport.Run, d time.Duration) []byte {
	t.Helper()
	select {
	case r := <-ch:
		if r.Len() != 1 {
			t.Fatalf("got a run of %d datagrams, want one", r.Len())
		}
		return r.Buf
	case <-time.After(d):
		t.Fatal("no packet within deadline")
		return nil
	}
}

func expectNothing(t *testing.T, ch <-chan transport.Run, d time.Duration) {
	t.Helper()
	select {
	case r := <-ch:
		t.Fatalf("unexpected packet %q", r.Buf)
	case <-time.After(d):
	}
}

// datagrams cuts r into its datagrams.
func datagrams(r transport.Run) []string {
	var out []string
	for i, off := 0, 0; i < r.Len(); i++ {
		var pkt []byte
		pkt, off = r.Cut(off)
		out = append(out, string(pkt))
	}
	return out
}

// TestVectorArrivesAsRuns: a Multicast vector reaches each destination as
// runs of its packets in vector order — one run while the packets are the
// size of the first (the last may be shorter), a new one where a packet is
// longer than the run's segments or follows a shorter one — each in one
// pooled buffer.
func TestVectorArrivesAsRuns(t *testing.T) {
	h := NewHub()
	h.SetLatency(0)
	a, b, c := h.Join(1), h.Join(2), h.Join(3)
	defer a.Close()
	defer b.Close()
	defer c.Close()
	vec := [][]byte{[]byte("aaaa"), []byte("bbbb"), []byte("cc"), []byte("dddd"), []byte("eeeeee"), []byte("ffffff")}
	if err := a.Multicast(vec); err != nil {
		t.Fatal(err)
	}
	for _, ep := range []*Endpoint{b, c} {
		var runs []string
		for _, want := range []int{3, 1, 2} {
			r := <-ep.Data()
			if r.Len() != want || cap(r.Buf) != transport.MaxPacket {
				t.Fatalf("endpoint %s: a run of %d datagrams (cap %d), want %d in a pooled buffer", ep.ID(), r.Len(), cap(r.Buf), want)
			}
			runs = append(runs, fmt.Sprint(datagrams(r)))
			transport.Buffers.Put(r.Buf)
		}
		if got, want := fmt.Sprint(runs), "[[aaaa bbbb cc] [dddd] [eeeeee ffffff]]"; got != want {
			t.Fatalf("endpoint %s received %s, want %s", ep.ID(), got, want)
		}
		expectNothing(t, ep.Data(), 20*time.Millisecond)
		if in := ep.MetricsSnapshot().DatagramsIn; in != 6 {
			t.Fatalf("endpoint %s: DatagramsIn = %d, want 6", ep.ID(), in)
		}
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

// TestDeliveredRunAllocs: a run crossing the hub — copied into a pooled
// buffer, queued, held for the hop latency and handed to the receiver —
// costs no allocation once the pool is warm: the pump's heap is typed and
// its one timer is re-armed for every wait.
func TestDeliveredRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	h := NewHub() // the default latency, so every run waits on the timer
	a, b := h.Join(1), h.Join(2)
	defer a.Close()
	defer b.Close()
	pkt := []byte("token")
	deliver := func() {
		if err := a.Unicast(2, pkt); err != nil {
			t.Fatal(err)
		}
		transport.Buffers.Put((<-b.Token()).Buf)
	}
	deliver()
	if allocs := testing.AllocsPerRun(200, deliver); allocs != 0 {
		t.Fatalf("a delivered run costs %v allocations, want 0", allocs)
	}
}
