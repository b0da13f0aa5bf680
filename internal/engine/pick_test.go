package engine

import (
	"slices"
	"testing"
)

// TestPick covers the input scheduler at both token priorities: low, as
// after a node processes the token, and high, as priority method 1 or 2
// sets it once the predecessor's next-round data arrives (paper §III-C).
func TestPick(t *testing.T) {
	for _, tc := range []struct {
		name     string
		q        Queued
		priority bool
		src      Source
		n        int
	}{
		{"token only, low", Queued{Token: 1}, false, SourceToken, 1},
		{"token only, high", Queued{Token: 1}, true, SourceToken, 1},
		{"data only, low", Queued{Data: 3}, false, SourceData, 1},
		{"data only, high", Queued{Data: 3}, true, SourceData, 1},
		{"both, low", Queued{Token: 1, Data: 3}, false, SourceData, 1},
		{"both, high", Queued{Token: 1, Data: 3}, true, SourceToken, 1},
		{"frames before submissions", Queued{Data: 1, Submits: 20}, false, SourceData, 1},
		{"submissions only", Queued{Submits: 3}, false, SourceSubmits, 3},
		{"submissions over the quota", Queued{Submits: 20}, true, SourceSubmits, SubmitQuota},
		{"nothing in hand", Queued{}, true, SourceNone, 0},
	} {
		if src, n := Pick(tc.q, tc.priority); src != tc.src || n != tc.n {
			t.Errorf("%s: Pick(%+v, %v) = (%v, %d), want (%v, %d)", tc.name, tc.q, tc.priority, src, n, tc.src, tc.n)
		}
	}
}

// TestPickSubmitQuotaAfterFrames drains a queue the way both runtimes do —
// the picked input, then up to SubmitsPerInput submissions — and checks
// that submissions keep moving while frames are queued and are taken
// SubmitQuota at a time once the sockets are empty.
func TestPickSubmitQuotaAfterFrames(t *testing.T) {
	q := Queued{Data: 2, Submits: 15}
	var got []int // submissions taken per input, the picked ones included
	for {
		src, n := Pick(q, false)
		if src == SourceNone {
			break
		}
		taken := 0
		if src == SourceData {
			q.Data--
		} else {
			taken = n
		}
		taken += min(q.Submits-taken, SubmitsPerInput)
		q.Submits -= taken
		got = append(got, taken)
	}
	// Two frames followed by 2 each, then 8 + 2, then the last one.
	if want := []int{2, 2, 10, 1}; !slices.Equal(got, want) {
		t.Fatalf("submissions per input %v, want %v", got, want)
	}
}
