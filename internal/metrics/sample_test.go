package metrics

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Count() != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty sample must answer zeros")
	}
}

func TestSampleSummary(t *testing.T) {
	var s Sample
	for _, v := range []time.Duration{30, 10, 20, 40, 50} {
		s.Add(v)
	}
	if s.Count() != 5 {
		t.Fatalf("Count = %d", s.Count())
	}
	if s.Mean() != 30 {
		t.Fatalf("Mean = %v, want 30", s.Mean())
	}
	if s.Min() != 10 || s.Max() != 50 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if got := s.Percentile(50); got != 30 {
		t.Fatalf("P50 = %v, want 30", got)
	}
	if got := s.Percentile(100); got != 50 {
		t.Fatalf("P100 = %v, want 50", got)
	}
	if got := s.Percentile(0); got != 10 {
		t.Fatalf("P0 = %v, want 10", got)
	}
}

func TestSampleAddAfterQuery(t *testing.T) {
	var s Sample
	s.Add(10)
	_ = s.Percentile(50)
	s.Add(5)
	if s.Min() != 5 {
		t.Fatalf("Min = %v after post-query add, want 5", s.Min())
	}
}

func TestSampleStddev(t *testing.T) {
	var s Sample
	s.Add(10)
	if s.Stddev() != 0 {
		t.Fatal("stddev of one observation must be 0")
	}
	s.Add(20)
	if got := s.Stddev(); got != 5 {
		t.Fatalf("Stddev = %v, want 5", got)
	}
}

func TestSampleReset(t *testing.T) {
	var s Sample
	s.Add(10)
	s.Reset()
	if s.Count() != 0 || s.Mean() != 0 {
		t.Fatal("Reset did not clear the sample")
	}
}

func TestQuickPercentileWithinRange(t *testing.T) {
	f := func(raw []uint16, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		for _, v := range raw {
			s.Add(time.Duration(v))
		}
		p := float64(pRaw % 101)
		got := s.Percentile(p)
		return got >= s.Min() && got <= s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMeanBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		for _, v := range raw {
			s.Add(time.Duration(v))
		}
		m := s.Mean()
		return m >= s.Min() && m <= s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
