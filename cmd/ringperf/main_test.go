package main

import (
	"math"
	"testing"
	"time"
)

func TestSummarize(t *testing.T) {
	cases := []struct {
		name           string
		sent, received uint64
		nodes, size    int
		window         time.Duration
		want           summary
	}{
		{
			// 4 nodes × 5000 msg/s × 1350 B × 8 = 216 Mbps over the 2 s send
			// window; dividing by window + 300 ms drain would read 187.8.
			name: "rates use the send window, not the drain",
			sent: 40000, received: 160000, nodes: 4, size: 1350, window: 2 * time.Second,
			want: summary{achievedMbps: 216, submittedPerNode: 5000, deliveredPct: 100},
		},
		{
			name: "lost deliveries lower the share only",
			sent: 1000, received: 1500, nodes: 2, size: 1000, window: time.Second,
			want: summary{achievedMbps: 8, submittedPerNode: 500, deliveredPct: 75},
		},
		{
			name:  "nothing sent",
			nodes: 4, size: 1350, window: time.Second,
		},
		{
			name: "zero window",
			sent: 10, received: 40, nodes: 4, size: 1350,
			want: summary{deliveredPct: 100},
		},
	}
	for _, c := range cases {
		got := summarize(c.sent, c.received, c.nodes, c.size, c.window)
		if !near(got.achievedMbps, c.want.achievedMbps) ||
			!near(got.submittedPerNode, c.want.submittedPerNode) ||
			!near(got.deliveredPct, c.want.deliveredPct) {
			t.Errorf("%s: summarize = %+v, want %+v", c.name, got, c.want)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
