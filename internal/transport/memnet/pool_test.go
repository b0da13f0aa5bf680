package memnet

import (
	"bytes"
	"testing"
	"time"

	"accelring/internal/transport"
)

// TestSenderBufferReuseSafe pins the send side of the ownership contract:
// Multicast/Unicast borrow pkt only for the duration of the call, so a
// sender may overwrite its encode scratch immediately afterwards without
// corrupting in-flight deliveries (which the hub copies into pooled
// buffers).
func TestSenderBufferReuseSafe(t *testing.T) {
	h := NewHub()
	a, b := h.Join(1), h.Join(2)
	defer a.Close()
	defer b.Close()

	scratch := make([]byte, 64)
	const rounds = 50
	for i := 0; i < rounds; i++ {
		for j := range scratch {
			scratch[j] = byte(i)
		}
		if err := a.Multicast([][]byte{scratch}); err != nil {
			t.Fatal(err)
		}
		// Overwrite the scratch right away, before the delayed delivery
		// fires — exactly what the runtime loop's reused encode buffer does.
		for j := range scratch {
			scratch[j] = 0xFF
		}
	}
	want := make([]byte, 64)
	for i := 0; i < rounds; i++ {
		pkt := recvWithin(t, b.Data(), 2*time.Second)
		for j := range want {
			want[j] = byte(i)
		}
		if !bytes.Equal(pkt, want) {
			t.Fatalf("round %d: delivery corrupted by sender reuse: got %x", i, pkt[:4])
		}
		transport.Buffers.Put(pkt)
	}
}

// TestDeliveryRecyclesPool checks that the receive path draws from and
// returns to the shared pool: consuming packets and Putting them back keeps
// the pool's working set recycling (hits accumulate) instead of allocating
// per delivery, and queue-full drops return their buffers too.
func TestDeliveryRecyclesPool(t *testing.T) {
	h := NewHub()
	h.SetLatency(0)
	a, b := h.Join(1), h.Join(2)
	defer a.Close()
	defer b.Close()

	before := transport.Buffers.Snapshot()
	const rounds = 200
	for i := 0; i < rounds; i++ {
		if err := a.Unicast(2, []byte("tok")); err != nil {
			t.Fatal(err)
		}
		transport.Buffers.Put(recvWithin(t, b.Token(), 2*time.Second))
	}
	after := transport.Buffers.Snapshot()
	if puts := after.Puts - before.Puts; puts < rounds {
		t.Fatalf("pool saw %d puts over %d deliveries", puts, rounds)
	}
	// Steady state must recycle: after the first few warm-up misses, every
	// Get is a hit. Other tests share the process-wide pool, so assert a
	// conservative majority rather than an exact count.
	gets := (after.Hits - before.Hits) + (after.Misses - before.Misses)
	if gets < rounds {
		t.Fatalf("pool saw %d gets over %d deliveries", gets, rounds)
	}
	if after.Hits-before.Hits < gets/2 {
		t.Fatalf("pool recycling ineffective: %d hits of %d gets", after.Hits-before.Hits, gets)
	}
}
