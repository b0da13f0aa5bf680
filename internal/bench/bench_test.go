package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"accelring/internal/core"
	"accelring/internal/netsim"
	"accelring/internal/wire"
)

// tinyScale keeps unit tests fast; the statistics are noisy but the
// plumbing is fully exercised.
var tinyScale = Scale{Warmup: 20 * time.Millisecond, Measure: 50 * time.Millisecond}

func tinySeries() Series {
	return Series{
		Label:       "library/accelerated",
		Profile:     netsim.ProfileLibrary,
		PayloadSize: 1350,
		Service:     wire.ServiceAgreed,
		Network:     netsim.Net1G,
		Offered:     []float64{100, 300},
	}
}

func TestRunSeries(t *testing.T) {
	pts, err := RunSeries(tinySeries(), tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	for _, p := range pts {
		if p.Series != "library/accelerated" {
			t.Fatalf("series label %q", p.Series)
		}
		if p.Samples == 0 {
			t.Fatal("point has no latency samples")
		}
	}
}

func TestRunSeriesStopsAfterSaturation(t *testing.T) {
	s := tinySeries()
	// Grossly oversubscribed from the start: the sweep must cut off after
	// two unstable points instead of running the whole grid.
	s.Offered = []float64{3000, 4000, 5000, 6000, 7000}
	pts, err := RunSeries(s, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) > 3 {
		t.Fatalf("sweep ran %d points past saturation", len(pts))
	}
}

func TestFiguresDefinitions(t *testing.T) {
	figs := Figures()
	if len(figs) != 7 {
		t.Fatalf("got %d figures, want 7 (the paper has 7)", len(figs))
	}
	seen := map[string]bool{}
	for _, f := range figs {
		if f.ID == "" || f.Title == "" || f.PaperClaim == "" {
			t.Fatalf("figure %q missing metadata", f.ID)
		}
		if seen[f.ID] {
			t.Fatalf("duplicate figure id %q", f.ID)
		}
		seen[f.ID] = true
		if len(f.Series) == 0 {
			t.Fatalf("figure %q has no series", f.ID)
		}
		for _, s := range f.Series {
			if len(s.Offered) == 0 {
				t.Fatalf("figure %q series %q has an empty grid", f.ID, s.Label)
			}
		}
	}
	for _, id := range []string{"figure1", "figure7"} {
		if _, ok := FigureByID(id); !ok {
			t.Fatalf("FigureByID(%q) not found", id)
		}
	}
	if _, ok := FigureByID("figure99"); ok {
		t.Fatal("FigureByID accepted an unknown id")
	}
}

func TestProtocolFiguresHaveBothVariants(t *testing.T) {
	f, _ := FigureByID("figure1")
	var orig, accel int
	for _, s := range f.Series {
		if s.Engine == core.OriginalRing(core.Config{}) {
			orig++
		} else {
			accel++
		}
	}
	if orig != 3 || accel != 3 {
		t.Fatalf("figure1 has %d original and %d accelerated series, want 3+3", orig, accel)
	}
}

func TestPayloadFiguresCompareSizes(t *testing.T) {
	f, _ := FigureByID("figure4")
	sizes := map[int]int{}
	for _, s := range f.Series {
		sizes[s.PayloadSize]++
		if s.Engine != (core.Config{}) {
			t.Fatal("payload comparison figures use the accelerated protocol only")
		}
	}
	if sizes[1350] != 3 || sizes[8850] != 3 {
		t.Fatalf("payload series counts = %v", sizes)
	}
}

func TestMaxStableAndLatencyAt(t *testing.T) {
	pts := []Point{
		{Series: "a", Result: netsim.Result{OfferedMbps: 100, AchievedMbps: 100, AvgLatency: 100 * time.Microsecond, Stable: true}},
		{Series: "a", Result: netsim.Result{OfferedMbps: 200, AchievedMbps: 199, AvgLatency: 150 * time.Microsecond, Stable: true}},
		{Series: "a", Result: netsim.Result{OfferedMbps: 400, AchievedMbps: 250, AvgLatency: 9 * time.Millisecond, Stable: false}},
		{Series: "b", Result: netsim.Result{OfferedMbps: 300, AchievedMbps: 300, Stable: true}},
	}
	if got := MaxStableMbps(pts, "a"); got != 199 {
		t.Fatalf("MaxStableMbps = %v, want 199", got)
	}
	if got := MaxStableMbps(pts, "missing"); got != 0 {
		t.Fatalf("MaxStableMbps(missing) = %v", got)
	}
	lat, ok := LatencyAt(pts, "a", 210)
	if !ok || lat != 150*time.Microsecond {
		t.Fatalf("LatencyAt = %v/%v, want 150µs", lat, ok)
	}
	if _, ok := LatencyAt(pts, "missing", 100); ok {
		t.Fatal("LatencyAt found a missing series")
	}
}

func TestWriteTableAndCSV(t *testing.T) {
	pts := []Point{{Series: "x/y", Result: netsim.Result{
		OfferedMbps: 100, AchievedMbps: 99.5, AvgLatency: 123 * time.Microsecond, Stable: true,
		Retransmits: 7, TokenRotation: 160 * time.Microsecond, MsgsPerRound: 12.5,
		PostTokenMsgs: 40, RTRDeferredRounds: 2, FlowThrottledRounds: 3,
	}}}
	var tbl bytes.Buffer
	WriteTable(&tbl, "T", pts)
	if !strings.Contains(tbl.String(), "x/y") || !strings.Contains(tbl.String(), "123") {
		t.Fatalf("table output missing fields:\n%s", tbl.String())
	}
	var csv bytes.Buffer
	WriteCSV(&csv, pts)
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv has %d lines", len(lines))
	}
	// Consumers index the first ten columns by position: names and order
	// are fixed, new columns only ever append.
	const firstTen = "series,offered_mbps,achieved_mbps,avg_latency_us,p50_latency_us,p99_latency_us,stable,switch_drops,sock_drops,retransmits,"
	if !strings.HasPrefix(lines[0], firstTen) {
		t.Fatalf("csv header = %q, want prefix %q", lines[0], firstTen)
	}
	if want := "x/y,100,99.5,123.0,0.0,0.0,true,0,0,7,160.0,12.5,40,2,3"; lines[1] != want {
		t.Fatalf("csv row = %q, want %q", lines[1], want)
	}
	if h, r := strings.Count(lines[0], ","), strings.Count(lines[1], ","); h != r {
		t.Fatalf("header has %d columns, row %d", h+1, r+1)
	}
}

func TestAblationDefinitions(t *testing.T) {
	abls := Ablations()
	if len(abls) != 5 {
		t.Fatalf("got %d ablations", len(abls))
	}
	for _, a := range abls {
		if a.ID == "" || a.Title == "" || a.Question == "" || a.Run == nil {
			t.Fatalf("ablation %+v missing metadata", a.ID)
		}
	}
	if _, ok := AblationByID("accel-window"); !ok {
		t.Fatal("accel-window ablation missing")
	}
	if _, ok := AblationByID("nope"); ok {
		t.Fatal("AblationByID accepted unknown id")
	}
}

func TestAccelWindowAblationRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	a, _ := AblationByID("accel-window")
	pts, err := a.Run(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0].Series != "window=0" {
		t.Fatalf("first series %q", pts[0].Series)
	}
	// Window 0 (the original protocol's sending pattern) must not beat a
	// healthy accelerated window on latency at this load.
	if pts[0].AvgLatency < pts[5].AvgLatency {
		t.Logf("note: window=0 latency %v < window=20 latency %v (noisy tiny scale)",
			pts[0].AvgLatency, pts[5].AvgLatency)
	}
}
