package main

import "testing"

func TestCheckRate(t *testing.T) {
	for _, tc := range []struct {
		rate float64
		ok   bool
	}{
		{0, false},
		{-5, false},
		{3e9, false},
		{1e10, false},
		{1, true},
		{5000, true},
	} {
		if err := checkRate(tc.rate); (err == nil) != tc.ok {
			t.Errorf("checkRate(%v) = %v, want ok=%v", tc.rate, err, tc.ok)
		}
	}
}
