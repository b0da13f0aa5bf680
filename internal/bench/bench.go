// Package bench defines the experiments that regenerate every figure of
// the paper's evaluation section (Figures 1–7), as sweeps of the netsim
// simulator, and renders their results as text tables or CSV.
package bench

import (
	"fmt"
	"io"
	"time"

	"accelring/internal/core"
	"accelring/internal/netsim"
	"accelring/internal/wire"
)

// Scale shrinks or stretches the simulated warmup/measurement windows;
// benchmarks use a small scale for speed, cmd/ringbench the full one.
type Scale struct {
	Warmup  time.Duration
	Measure time.Duration
}

// Scales used by the bench harness.
var (
	// FullScale is used by cmd/ringbench for publication-quality numbers.
	FullScale = Scale{Warmup: 200 * time.Millisecond, Measure: 500 * time.Millisecond}
	// QuickScale is used by `go test -bench` so a full figure regenerates
	// in seconds.
	QuickScale = Scale{Warmup: 60 * time.Millisecond, Measure: 150 * time.Millisecond}
)

// Series is one curve of a figure: an implementation profile and protocol
// variant swept across offered loads.
type Series struct {
	// Label names the curve, e.g. "spread/accelerated".
	Label string
	// Profile and Protocol select the simulated implementation.
	Profile  netsim.Profile
	Protocol core.Protocol
	// PayloadSize is the clean payload per message.
	PayloadSize int
	// Service is the delivery service measured.
	Service wire.Service
	// Network is the modeled testbed.
	Network netsim.Network
	// Offered is the sweep grid, in aggregate payload Mbps.
	Offered []float64
}

// Point is one measured sweep point.
type Point struct {
	Series string
	netsim.Result
}

// Figure groups the series that regenerate one of the paper's figures.
type Figure struct {
	// ID is the benchmark identifier, e.g. "figure1".
	ID string
	// Title is the paper's caption.
	Title string
	// PaperClaim summarizes what the paper's version of the figure shows,
	// for EXPERIMENTS.md comparison.
	PaperClaim string
	Series     []Series
}

// RunSeries sweeps one series, stopping two points after the first
// unstable (saturated) one so that every curve shows its knee without
// wasting time deep in overload.
func RunSeries(s Series, sc Scale) ([]Point, error) {
	points := make([]Point, 0, len(s.Offered))
	unstable := 0
	for _, off := range s.Offered {
		cfg := netsim.Config{
			Network:     s.Network,
			Profile:     s.Profile,
			Engine:      core.Config{Protocol: s.Protocol},
			PayloadSize: s.PayloadSize,
			OfferedMbps: off,
			Service:     s.Service,
			Warmup:      sc.Warmup,
			Measure:     sc.Measure,
		}
		res, _, err := netsim.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: series %s at %.0f Mbps: %w", s.Label, off, err)
		}
		points = append(points, Point{Series: s.Label, Result: res})
		if !res.Stable {
			unstable++
			if unstable >= 2 {
				break
			}
		}
	}
	return points, nil
}

// RunFigure runs every series of a figure.
func RunFigure(f Figure, sc Scale) ([]Point, error) {
	var out []Point
	for _, s := range f.Series {
		pts, err := RunSeries(s, sc)
		if err != nil {
			return nil, err
		}
		out = append(out, pts...)
	}
	return out, nil
}

// MaxStableMbps returns the highest achieved throughput among the stable
// points of the given series (0 if none).
func MaxStableMbps(points []Point, series string) float64 {
	max := 0.0
	for _, p := range points {
		if p.Series == series && p.Stable && p.AchievedMbps > max {
			max = p.AchievedMbps
		}
	}
	return max
}

// LatencyAt returns the average latency of the stable point of a series
// whose offered load is closest to the target (ok=false if the series has
// no stable points).
func LatencyAt(points []Point, series string, offeredMbps float64) (time.Duration, bool) {
	best := time.Duration(0)
	bestDist := 0.0
	found := false
	for _, p := range points {
		if p.Series != series || !p.Stable {
			continue
		}
		dist := p.OfferedMbps - offeredMbps
		if dist < 0 {
			dist = -dist
		}
		if !found || dist < bestDist {
			best, bestDist, found = p.AvgLatency, dist, true
		}
	}
	return best, found
}

// WriteTable renders points as an aligned text table.
func WriteTable(w io.Writer, title string, points []Point) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-28s %10s %10s %10s %10s %10s %7s\n",
		"series", "offered", "achieved", "avg-lat", "p50-lat", "p99-lat", "stable")
	for _, p := range points {
		fmt.Fprintf(w, "%-28s %7.0f Mb %7.0f Mb %7.0f us %7.0f us %7.0f us %7v\n",
			p.Series, p.OfferedMbps, p.AchievedMbps,
			us(p.AvgLatency), us(p.P50Latency), us(p.P99Latency), p.Stable)
	}
}

// csvHeader names WriteCSV's columns. New columns are appended: consumers
// index the first ten by position.
const csvHeader = "series,offered_mbps,achieved_mbps,avg_latency_us,p50_latency_us,p99_latency_us,stable,switch_drops,sock_drops,retransmits," +
	"token_rotation_us,msgs_per_round,post_token_msgs,rtr_deferred_rounds,flow_throttled_rounds"

// WriteCSV renders points as CSV with a header row: the latency/throughput
// curve, loss accounting, then the rotation time, per-round send count and
// round counters the paper's analysis reasons with.
func WriteCSV(w io.Writer, points []Point) {
	fmt.Fprintln(w, csvHeader)
	for _, p := range points {
		fmt.Fprintf(w, "%s,%.0f,%.1f,%.1f,%.1f,%.1f,%v,%d,%d,%d,%.1f,%.1f,%d,%d,%d\n",
			p.Series, p.OfferedMbps, p.AchievedMbps,
			us(p.AvgLatency), us(p.P50Latency), us(p.P99Latency),
			p.Stable, p.SwitchDrops, p.SockDrops, p.Retransmits,
			us(p.TokenRotation), p.MsgsPerRound, p.PostTokenMsgs,
			p.RTRDeferredRounds, p.FlowThrottledRounds)
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
