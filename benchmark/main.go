// Command benchmark is the repository's one performance benchmark: a
// closed-loop load on a three-daemon ring over UDP loopback, measured from
// a client of one daemon to a client of another. README.md beside this file
// says what it measures and why; BENCHMARK.json at the repository root
// names the workloads and metrics.
//
//	go run -C benchmark .                          every workload, untraced
//	go run -C benchmark . -workload sat.64.agreed  one workload
//	go run -C benchmark . -trace 1                 per-layer figures and out/trace.json
//	go run -C benchmark . -aa                      run everything twice and compare
//	go run -C benchmark . -list                    workload and metric names
//
// The last line of standard output is one JSON object; tables for people go
// to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// outDir holds what a run leaves behind: daemon sockets while it runs and
// trace.json afterwards. It is relative to the working directory, which
// `go run -C benchmark` makes this directory, and keeps socket paths short.
const outDir = "out"

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable outcome, printed as the last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "run only this workload (default: all)")
	seed := flag.Int64("seed", 1, "seed of the payload bytes")
	seconds := flag.Float64("seconds", 20, "seconds of measurement per workload")
	trace := flag.Int("trace", 0, "1: report the per-layer metrics and write out/trace.json; 0: report the end-to-end metrics")
	aa := flag.Bool("aa", false, "run the untraced set twice, interleaved, and fail if the two disagree by more than a metric's bound")
	list := flag.Bool("list", false, "print workload and metric names and exit")
	flag.Parse()

	if *list {
		printNames()
		return 0
	}
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-aa] [-list]")
		return 2
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q; -list prints the names\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	env := runEnv{seed: *seed, sockDir: outDir}
	measure := time.Duration(*seconds * float64(time.Second))
	printHost()

	var res result
	var err error
	switch {
	case *aa:
		res, err = runAA(selected, env, measure)
	case *trace == 1:
		res, err = runTraced(selected, env, measure)
	default:
		res, err = runUntraced(selected, env, measure)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func printNames() {
	for _, w := range workloads {
		fmt.Println(w.name)
	}
	for _, m := range endToEnd {
		fmt.Println(m.name)
	}
	for _, m := range perLayer {
		fmt.Println(m.name)
	}
}

func printHost() {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(os.Stderr, "host: GOMAXPROCS=%d nproc=%d %s commit=%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit)
}

// key names a metric in the result: bare when one workload ran, which is
// the shape the driver's contract asks for, and prefixed otherwise.
func key(selected []workload, w workload, metric string) string {
	if len(selected) == 1 {
		return metric
	}
	return w.name + "/" + metric
}

// An untraced run is cut into epochs. Every epoch builds a fresh stack,
// warms it up and measures one window on it; a reported figure is the median
// over the epochs. Between stacks of one run the ring settles into slightly
// different rhythms (on pingpong.agreed p50 differed by 15% between stacks
// and by 3% between windows on one stack), so sampling stacks, not only
// windows, is what steadies the median. Each epoch also times its set-ups.
const (
	epochsPerRun   = 10
	setupsPerEpoch = 5
	epochWarmup    = 300 * time.Millisecond
)

// untracedRun is one workload's end-to-end outcome.
type untracedRun struct {
	epochs       []*stackResult
	canaryBefore float64
	canaryAfter  float64
}

// values returns the end-to-end metrics: medians over the epochs.
func (u untracedRun) values() map[string]summary {
	var goodput, p50, tail, setup []float64
	for _, e := range u.epochs {
		goodput = append(goodput, e.goodput().Median)
		p50 = append(p50, e.p50().Median)
		tail = append(tail, e.tail().Median)
		setup = append(setup, e.SetupS...)
	}
	return map[string]summary{
		"goodput_msgs_per_s": summarize(goodput),
		"latency_p50_us":     summarize(p50),
		"latency_p95_us":     summarize(tail),
		"setup_s":            summarize(setup),
	}
}

func (u untracedRun) correct() bool {
	for _, e := range u.epochs {
		if !e.correct() {
			return false
		}
	}
	return true
}

// runOne measures one workload end to end, between two canaries.
func runOne(w workload, env runEnv, measure time.Duration) (untracedRun, error) {
	u := untracedRun{canaryBefore: canary()}
	shape := runShape{setups: setupsPerEpoch, warmup: epochWarmup, window: measure / epochsPerRun, windows: 1}
	for range epochsPerRun {
		res, err := runOnStack(fullStack, w, env, shape, false)
		if err != nil {
			return u, fmt.Errorf("%s: %w", w.name, err)
		}
		u.epochs = append(u.epochs, res)
	}
	u.canaryAfter = canary()
	return u, nil
}

func (u untracedRun) report(w workload) {
	fmt.Fprintf(os.Stderr, "\n%s  (%s)\n", w.name, w.why)
	vals := u.values()
	for _, m := range endToEnd {
		s := vals[m.name]
		fmt.Fprintf(os.Stderr, "  %-20s %14.4f %-6s q1 %.4f  q3 %.4f  n %d\n", m.name, s.Median, m.unit, s.Q1, s.Q3, s.N)
	}
	var attempted, failed uint64
	samples, tail, agree := 0, 1.0, true
	for _, e := range u.epochs {
		attempted += e.Attempted
		failed += e.Failed
		agree = agree && e.OrderHash[0] == e.OrderHash[1]
		for _, win := range e.Windows {
			samples += win.Samples
			tail = min(tail, win.Tail)
		}
	}
	fmt.Fprintf(os.Stderr, "  latency samples %d; tail percentile reported %.4f\n", samples, tail)
	fmt.Fprintf(os.Stderr, "  ops_attempted %d  ops_failed %d  failed_share %.6f  order hashes of the two clients equal in every epoch: %v\n",
		attempted, failed, ratio(float64(failed), float64(attempted)), agree)
	state := "steady"
	if unsteady(u.canaryBefore, u.canaryAfter) {
		state = "unsteady"
	}
	fmt.Fprintf(os.Stderr, "  host.canary_ms %.3f before, %.3f after: %s\n", u.canaryBefore, u.canaryAfter, state)
	for i, e := range u.epochs {
		for _, p := range e.Problems {
			fmt.Fprintf(os.Stderr, "  PROBLEM in epoch %d: %s\n", i, p)
		}
	}
}

func runUntraced(selected []workload, env runEnv, measure time.Duration) (result, error) {
	out := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range selected {
		u, err := runOne(w, env, measure)
		if err != nil {
			return out, err
		}
		u.report(w)
		out.add(selected, w, u)
	}
	return out, nil
}

func (out *result) add(selected []workload, w workload, u untracedRun) {
	out.Correct = out.Correct && u.correct()
	for _, e := range u.epochs {
		out.Attempted += e.Attempted
		out.Failed += e.Failed
	}
	vals := u.values()
	for _, m := range endToEnd {
		out.Metrics[key(selected, w, m.name)] = metricValue{Value: vals[m.name].Median, Unit: m.unit}
	}
}

// runAA runs every selected workload twice, alternating sets, and compares
// the two. A workload whose canaries disagreed is run once more.
func runAA(selected []workload, env runEnv, measure time.Duration) (result, error) {
	out := result{Correct: true, Metrics: map[string]metricValue{}}
	fmt.Fprintf(os.Stderr, "\nA/A: each workload twice, set 1 then set 2\n")
	for _, w := range selected {
		var sets [2]untracedRun
		for i := range sets {
			for attempt := 0; ; attempt++ {
				u, err := runOne(w, env, measure)
				if err != nil {
					return out, err
				}
				sets[i] = u
				u.report(w)
				if attempt > 0 || !unsteady(u.canaryBefore, u.canaryAfter) {
					break
				}
				fmt.Fprintf(os.Stderr, "  unsteady: running %s again\n", w.name)
			}
			out.Correct = out.Correct && sets[i].correct()
		}
		out.add(selected, w, sets[0])
		a, b := sets[0].values(), sets[1].values()
		for _, m := range endToEnd {
			x, y := a[m.name].Median, b[m.name].Median
			diff := ratio(y-x, x)
			verdict := "ok"
			if math.Abs(diff) > m.bound {
				verdict = "DISAGREE"
				out.Correct = false
			}
			fmt.Fprintf(os.Stderr, "  A/A %-20s %-20s %14.4f %14.4f  %+7.2f%%  bound %.0f%%  %s\n",
				w.name, m.name, x, y, 100*diff, 100*m.bound, verdict)
		}
	}
	return out, nil
}
