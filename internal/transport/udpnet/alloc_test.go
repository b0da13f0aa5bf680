package udpnet

import (
	"runtime"
	"testing"
	"time"

	"accelring/internal/transport"
)

// TestReceiveFloodAllocs is the regression test for the receive-path
// double allocation: the read loop used to allocate a MaxDatagram staging
// buffer once plus an n-byte copy per packet, and ReadFromUDP added a
// *net.UDPAddr per call. With pooled buffers and ReadFromUDPAddrPort the
// steady-state cost must be far below one heap allocation per packet.
func TestReceiveFloodAllocs(t *testing.T) {
	a, b := pair(t)

	payload := make([]byte, 1350) // the paper's typical datagram size
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	roundtrip := func(count int) (received int, mallocs uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < count; i++ {
			if err := a.Unicast(2, payload); err != nil {
				t.Fatal(err)
			}
			timer.Reset(time.Second)
			select {
			case pkt := <-b.Token():
				received++
				transport.Buffers.Put(pkt.Buf)
			case <-timer.C:
				// Loopback UDP very rarely drops; tolerate it.
			}
		}
		runtime.ReadMemStats(&after)
		return received, after.Mallocs - before.Mallocs
	}

	// Warm up: grow the pool's working set and any lazy runtime state
	// (channel internals, socket buffers) outside the measured window.
	roundtrip(64)

	const count = 300
	best := float64(1 << 30)
	for attempt := 0; attempt < 2; attempt++ {
		received, mallocs := roundtrip(count)
		if received < count/2 {
			t.Fatalf("only %d/%d packets survived loopback", received, count)
		}
		if per := float64(mallocs) / float64(received); per < best {
			best = per
		}
	}
	// The old path cost >=2 allocations per packet; the pooled path costs
	// ~0. The slack absorbs incidental runtime allocations (timers, GC
	// bookkeeping) that land inside the measured window.
	if best >= 1 {
		t.Fatalf("receive flood allocates %.2f times per packet, want < 1", best)
	}
}
