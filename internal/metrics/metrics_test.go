package metrics

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Fatalf("counter = %d, want 5", c.Load())
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if g.Load() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Load())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Load())
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram(time.Millisecond, 4) // bounds 1,2,4,8ms + overflow
	h.Observe(500 * time.Microsecond)      // bucket 0
	h.Observe(time.Millisecond)            // bucket 1 (bounds are exclusive)
	h.Observe(3 * time.Millisecond)        // bucket 2
	h.Observe(100 * time.Millisecond)      // overflow
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	want := []uint64{1, 1, 1, 0, 1}
	for i, b := range s.Buckets {
		if b.Count != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, b.Count, want[i])
		}
	}
	if s.Buckets[len(s.Buckets)-1].UpperNs != 0 {
		t.Fatal("overflow bucket should have zero upper bound")
	}
	for i, ms := range []int64{1, 2, 4, 8} {
		if got := s.Buckets[i].UpperNs; got != ms*int64(time.Millisecond) {
			t.Fatalf("bucket %d upper bound = %v, want %dms", i, time.Duration(got), ms)
		}
	}
}

func TestHistogramPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHistogram(0, 0) did not panic")
		}
	}()
	NewHistogram(0, 0)
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(100*time.Microsecond, 10)
	for i := 0; i < 99; i++ {
		h.Observe(150 * time.Microsecond) // lands in [100us,200us)
	}
	h.Observe(30 * time.Millisecond) // lands in [25.6ms,51.2ms)
	s := h.Snapshot()
	if got := s.P50(); got != 200*time.Microsecond {
		t.Fatalf("p50 = %v, want 200µs (bucket upper bound)", got)
	}
	if got := s.P99(); got < 200*time.Microsecond {
		t.Fatalf("p99 = %v, want >= 200µs", got)
	}
	if s.Mean() <= 150*time.Microsecond {
		t.Fatalf("mean = %v, want > 150µs", s.Mean())
	}
}

func TestHistogramEmptySnapshot(t *testing.T) {
	h := NewHistogram(time.Millisecond, 3)
	s := h.Snapshot()
	if s.Count != 0 || s.MeanNs != 0 || s.P50Ns != 0 || s.P99Ns != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(time.Microsecond, 8)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(time.Duration(i+1) * time.Microsecond)
			}
		}(i)
	}
	wg.Wait()
	if h.Total() != 2000 {
		t.Fatalf("total = %d, want 2000", h.Total())
	}
}

func TestSnapshotMarshalsToJSON(t *testing.T) {
	h := NewHistogram(time.Millisecond, 2)
	h.Observe(time.Millisecond)
	data, err := json.Marshal(h.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back HistogramSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count != 1 {
		t.Fatalf("round-tripped count = %d, want 1", back.Count)
	}
}
