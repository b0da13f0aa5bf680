package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"accelring/internal/evscheck"
	"accelring/internal/faultplan"
	"accelring/internal/netsim"
	"accelring/internal/wire"
)

var update = flag.Bool("update", false, "rewrite testdata/simulator.golden from this build")

// TestSimulatorGolden pins the simulator's output byte for byte: the CSV of
// a small sweep — {library, spread} × {original, accelerated} on 1GbE at
// two loads, plus one Poisson point — and the counters and evscheck digest
// of one lossy run. A change to the simulator that moves any event changes
// this file; regenerate it with
//
//	go test ./internal/bench -run TestSimulatorGolden -update
//
// only when the change is meant to alter the simulated runs.
func TestSimulatorGolden(t *testing.T) {
	var out bytes.Buffer
	var pts []Point
	for _, prof := range []netsim.Profile{netsim.ProfileLibrary, netsim.ProfileSpread} {
		for _, v := range variants {
			s := Series{
				Label:       prof.Name + "/" + v.name,
				Profile:     prof,
				Engine:      v.cfg,
				PayloadSize: 1350,
				Service:     wire.ServiceAgreed,
				Network:     netsim.Net1G,
				Offered:     []float64{300, 800},
			}
			p, err := RunSeries(s, tinyScale)
			if err != nil {
				t.Fatal(err)
			}
			pts = append(pts, p...)
		}
	}
	cfg := netsim.Config{
		Network:     netsim.Net1G,
		Profile:     netsim.ProfileLibrary,
		PayloadSize: 1350,
		OfferedMbps: 500,
		Service:     wire.ServiceAgreed,
		Arrivals:    netsim.ArrivalPoisson,
		Seed:        7,
		Warmup:      tinyScale.Warmup,
		Measure:     tinyScale.Measure,
	}
	res, _, err := netsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts = append(pts, Point{Series: "library/accelerated/poisson", Result: res})
	WriteCSV(&out, pts)

	cfg.OfferedMbps = 200
	cfg.Arrivals = netsim.ArrivalCBR
	cfg.Faults = &faultplan.Plan{Seed: 42, Links: []faultplan.LinkFault{{
		Loss: 0.02, Dup: 0.01, DelayProb: 0.02, Delay: 200 * time.Microsecond,
	}}}
	res, c, err := netsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "lossy: drops=%d dups=%d retrans=%d samples=%d digest=%s\n",
		res.FaultDrops, res.FaultDups, res.Retransmits, res.Samples, evscheck.Digest(c.Log()))

	path := filepath.Join("testdata", "simulator.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("simulator output differs from %s:\ngot:\n%s\nwant:\n%s", path, out.Bytes(), want)
	}
}
