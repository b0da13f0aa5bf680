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

func TestMergeHistogramsSameShape(t *testing.T) {
	h1 := NewHistogram(time.Millisecond, 4)
	h2 := NewHistogram(time.Millisecond, 4)
	for i := 0; i < 10; i++ {
		h1.Observe(500 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h2.Observe(3 * time.Millisecond)
	}
	m := MergeHistograms(h1.Snapshot(), h2.Snapshot())
	if m.Count != 20 {
		t.Fatalf("count = %d, want 20", m.Count)
	}
	// Bucket-wise merge: 10 in bucket 0, 10 in bucket 2.
	if m.Buckets[0].Count != 10 || m.Buckets[2].Count != 10 {
		t.Fatalf("merged buckets: %+v", m.Buckets)
	}
	// Quantiles re-estimated from the merged distribution: the median sits
	// at the boundary between the two groups, the p99 in the upper group.
	if m.P99() != 4*time.Millisecond {
		t.Fatalf("p99 = %v, want 4ms (upper bound of [2ms,4ms))", m.P99())
	}
	wantMean := (10*int64(500*time.Microsecond) + 10*int64(3*time.Millisecond)) / 20
	if m.MeanNs != wantMean {
		t.Fatalf("mean = %d, want %d", m.MeanNs, wantMean)
	}
}

func TestMergeHistogramsSkipsEmpty(t *testing.T) {
	h := NewHistogram(time.Millisecond, 4)
	h.Observe(time.Millisecond)
	empty := NewHistogram(time.Second, 2) // different shape but zero count
	m := MergeHistograms(empty.Snapshot(), h.Snapshot(), HistogramSnapshot{})
	if m.Count != 1 || m.Buckets == nil {
		t.Fatalf("merge with empties: %+v", m)
	}
	if m.P50Ns != h.Snapshot().P50Ns {
		t.Fatalf("p50 = %d, want %d", m.P50Ns, h.Snapshot().P50Ns)
	}
}

func TestMergeHistogramsShapeMismatch(t *testing.T) {
	big := NewHistogram(time.Millisecond, 4)
	for i := 0; i < 100; i++ {
		big.Observe(3 * time.Millisecond)
	}
	odd := NewHistogram(time.Second, 2)
	odd.Observe(2 * time.Second)
	same := NewHistogram(time.Millisecond, 4)
	same.Observe(time.Millisecond)

	// The mismatched snapshot drops the buckets for good: a later
	// same-shape-as-first snapshot must not resurrect them (its counts
	// would be missing the mismatched contribution).
	m := MergeHistograms(big.Snapshot(), odd.Snapshot(), same.Snapshot())
	if m.Count != 102 {
		t.Fatalf("count = %d, want 102", m.Count)
	}
	if m.Buckets != nil {
		t.Fatalf("buckets survived a shape mismatch: %+v", m.Buckets)
	}
	// Quantiles fall back to the highest-count contributor.
	if m.P99Ns != big.Snapshot().P99Ns {
		t.Fatalf("p99 = %d, want fallback %d", m.P99Ns, big.Snapshot().P99Ns)
	}
}

func TestMergeHistogramsEmptyResult(t *testing.T) {
	m := MergeHistograms()
	if m.Count != 0 || m.Buckets != nil || m.MeanNs != 0 {
		t.Fatalf("empty merge: %+v", m)
	}
	m = MergeHistograms(HistogramSnapshot{}, HistogramSnapshot{})
	if m.Count != 0 || m.P50Ns != 0 {
		t.Fatalf("all-empty merge: %+v", m)
	}
}
