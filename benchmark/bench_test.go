package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"
)

type delivery struct {
	sender        int
	seq, groupSeq uint64
}

// cleanStream is a correct delivery stream: two senders interleaved, the
// group sequence counting every delivery.
func cleanStream(n int) []delivery {
	var out []delivery
	var next [2]uint64
	for i := 0; i < n; i++ {
		s := i % 2
		out = append(out, delivery{sender: s, seq: next[s], groupSeq: uint64(i + 1)})
		next[s]++
	}
	return out
}

func feed(stream []delivery) *checker {
	c := newChecker()
	for _, d := range stream {
		c.deliver(d.sender, d.seq, d.groupSeq)
	}
	return c
}

// The checker must accept a clean stream and flag each way a stream can go
// wrong; a checker that flags nothing would make every run "correct".
func TestCheckerMutations(t *testing.T) {
	clean := feed(cleanStream(20))
	if clean.violations != 0 {
		t.Fatalf("clean stream: %d violations (%s)", clean.violations, clean.first)
	}
	mutations := map[string]func([]delivery) []delivery{
		"swapped pair": func(s []delivery) []delivery {
			// Swap two deliveries of one sender, keeping the group sequence
			// in place so only the sender order is wrong.
			s[4].seq, s[6].seq = s[6].seq, s[4].seq
			return s
		},
		"duplicate": func(s []delivery) []delivery {
			return append(s[:8], append([]delivery{s[7]}, s[8:]...)...)
		},
		"dropped": func(s []delivery) []delivery {
			return append(s[:8], s[9:]...)
		},
	}
	for name, mutate := range mutations {
		c := feed(mutate(cleanStream(20)))
		if c.violations == 0 {
			t.Errorf("%s: not flagged", name)
		}
		if c.hash == clean.hash {
			t.Errorf("%s: order hash equals the clean stream's", name)
		}
	}
	// Total-order disagreement that keeps every sender's own order intact
	// shows only in the hash.
	s := cleanStream(20)
	s[4], s[5] = s[5], s[4]
	s[4].groupSeq, s[5].groupSeq = s[5].groupSeq, s[4].groupSeq
	if c := feed(s); c.violations != 0 || c.hash == clean.hash {
		t.Errorf("cross-sender swap: violations %d, hash equal %v; want 0 and a different hash",
			c.violations, c.hash == clean.hash)
	}
}

func TestQuantilesByHand(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.Median != 3 || s.Q1 != 2 || s.Q3 != 4 || s.N != 5 {
		t.Errorf("summarize(1..5) = %+v, want median 3, quartiles 2 and 4", s)
	}
	if got := summarize([]float64{10, 20}).Median; got != 15 {
		t.Errorf("median of 10, 20 = %v, want 15", got)
	}
	if got := summarize(nil); got.Median != 0 || got.N != 0 {
		t.Errorf("summarize(nil) = %+v, want zeros", got)
	}
}

// A tail percentile needs ten samples beyond it; with fewer the highest
// supported percentile is reported in its place.
func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{n: 100000, want: 0.99},
		{n: 1000, want: 0.99},
		{n: 500, want: 0.98},
		{n: 100, want: 0.90},
		{n: 15, want: 0.5},
		{n: 0, want: 0.5},
	} {
		if got := supportedPercentile(c.n, 0.99); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("supportedPercentile(%d, 0.99) = %v, want %v", c.n, got, c.want)
		}
	}
	// 1000 samples of 1..1000 µs: median is sample 500, p99 is sample 990.
	ns := make([]uint32, 1000)
	for i := range ns {
		ns[len(ns)-1-i] = uint32(i+1) * 1000
	}
	p50, tail, pct := latencyStats(ns, 0.99)
	if p50 != 500 || tail != 990 || pct != 0.99 {
		t.Errorf("latencyStats(1..1000 µs) = %v, %v at %v; want 500, 990 at 0.99", p50, tail, pct)
	}
	if _, tail, pct := latencyStats(ns[:100], 0.99); math.Abs(pct-0.90) > 1e-12 || tail != 90 {
		t.Errorf("latencyStats of 100 samples: tail %v at %v, want 90 at 0.90", tail, pct)
	}
}

func TestJoinSpans(t *testing.T) {
	id := messageID(0, 64)
	sides := [2]*side{
		{sendSpans: []sendSpan{{msg: id, start: 10, end: 30}, {msg: messageID(0, 128), start: 50, end: 60}}},
		{recvSpans: []recvSpan{{msg: id, arrived: 100, done: 105}}},
	}
	spans := joinSpans(sides)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want the three of the one message seen at both ends", len(spans))
	}
	want := []span{
		{Name: spanMulticast, Msg: id, StartNs: 10, EndNs: 30},
		{Name: spanTransit, Msg: id, StartNs: 30, EndNs: 100, Parent: spanMulticast},
		{Name: spanRecv, Msg: id, StartNs: 100, EndNs: 105, Parent: spanTransit},
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Errorf("span %d = %+v, want %+v", i, spans[i], want[i])
		}
	}
	if got := spanMedianNs(spans, spanTransit); got != 70 {
		t.Errorf("median transit = %v, want 70", got)
	}
}

// BENCHMARK.json is what the driver reads; the tables in this package are
// what the program reports. They must name the same things.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, got, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, over the 200 allowed", w.name, len(w.why))
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, def := range want {
			better := "lower"
			if def.higher {
				better = "higher"
			}
			g := got[i]
			if g.Name != def.name || g.Unit != def.unit || g.Better != better {
				t.Errorf("%s %d: BENCHMARK.json has %s %s %s, the program %s %s %s",
					kind, i, g.Name, g.Unit, g.Better, def.name, def.unit, better)
			}
			if !nameRE.MatchString(def.name) || !unitRE.MatchString(def.unit) {
				t.Errorf("%s: name %q or unit %q outside the allowed characters", kind, def.name, def.unit)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != def.bound || def.bound <= 0 || def.bound > 0.25):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the program, both must be in (0, 0.25]", def.name, g.Bound, def.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", def.name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}

// A short real run: nothing fails, and everything the benchmark started is
// gone afterwards.
func TestSmokePingPong(t *testing.T) {
	baseline := runtime.NumGoroutine()
	w, ok := findWorkload("pingpong.agreed")
	if !ok {
		t.Fatal("pingpong.agreed is not a workload")
	}
	env := runEnv{seed: 1, sockDir: t.TempDir()}
	res, err := runOnStack(fullStack, w, env, runShape{setups: 2, warmup: 200 * time.Millisecond, window: 200 * time.Millisecond, windows: 5}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || !res.correct() {
		t.Errorf("ops_failed %d, problems %v", res.Failed, res.Problems)
	}
	if res.Attempted == 0 || res.crossed == 0 {
		t.Errorf("attempted %d, crossed %d: the load did not run", res.Attempted, res.crossed)
	}
	if res.OrderHash[0] != res.OrderHash[1] {
		t.Errorf("order hashes differ: %v", res.OrderHash)
	}
	if len(res.SetupS) != 2 {
		t.Errorf("%d set-up times, want 2", len(res.SetupS))
	}
	if len(res.spans) == 0 || res.counters == nil || res.counters.c[cRounds] == 0 {
		t.Errorf("traced run recorded %d spans and no token rounds", len(res.spans))
	}
	// Every daemon, node, transport and client is closed: their goroutines
	// end, give or take the runtime's own stragglers.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after shutdown, %d before:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}
