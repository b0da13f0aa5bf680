package main

import (
	"fmt"
	"time"
)

// runShape is how one closed-loop run on one stack is cut up.
type runShape struct {
	setups  int // set-ups timed; all but the last are torn down again
	warmup  time.Duration
	window  time.Duration
	windows int
}

// tailPercentile is the tail the benchmark reports. It was the 99th until
// measurement showed that on pingpong.agreed the 99th sits on the cliff
// between the fast mode and a 4 ms slow mode that holds about one message
// in a hundred, so it swung by half between runs of the same code; the
// 95th is steady on every workload. README.md has the numbers.
const tailPercentile = 0.95

// windowResult is one window's figures.
type windowResult struct {
	Goodput float64
	P50us   float64
	Tailus  float64
	Tail    float64 // tailPercentile unless the window had too few samples
	Samples int
}

// stackResult is the outcome of one closed-loop run on one stack.
type stackResult struct {
	Stack   string
	SetupS  []float64
	Windows []windowResult

	Attempted uint64
	Failed    uint64    // send errors + undelivered messages + correctness violations
	OrderHash [2]string // at A and at B; must be equal
	Problems  []string

	// Set on traced runs only.
	counters *counterDelta
	spans    []span
	crossed  uint64 // cross-daemon deliveries in the windows
}

func (r *stackResult) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

// metric returns the median over the windows of one window figure.
func (r *stackResult) metric(f func(windowResult) float64) summary {
	vals := make([]float64, len(r.Windows))
	for i, w := range r.Windows {
		vals[i] = f(w)
	}
	return summarize(vals)
}

func (r *stackResult) goodput() summary {
	return r.metric(func(w windowResult) float64 { return w.Goodput })
}
func (r *stackResult) p50() summary { return r.metric(func(w windowResult) float64 { return w.P50us }) }
func (r *stackResult) tail() summary {
	return r.metric(func(w windowResult) float64 { return w.Tailus })
}

// setUp builds spec and attaches a load to it, timing the whole of it:
// from nothing to a ring that formed, clients that joined and saw each
// other, and one message carried in each direction.
func setUp(spec stackSpec, w workload, env runEnv, windows int, tag string, trace bool) (*load, time.Duration, error) {
	t0 := time.Now()
	st, err := startStack(spec, w, env.sockDir, tag, env.seed)
	if err != nil {
		return nil, 0, err
	}
	l, err := newLoad(st, w, windows, env.seed, trace)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", spec.name, err)
	}
	return l, time.Since(t0), nil
}

// runEnv is what every run of one invocation shares.
type runEnv struct {
	seed    int64
	sockDir string
}

// runOnStack drives workload w's load shape on spec: set up (several times
// if asked, for a steadier setup_s), warm up, measure the windows, drain,
// check, tear down.
func runOnStack(spec stackSpec, w workload, env runEnv, sh runShape, trace bool) (*stackResult, error) {
	res := &stackResult{Stack: spec.name}
	var l *load
	for i := 0; i < sh.setups; i++ {
		if l != nil {
			if err := l.shutdown(); err != nil {
				return nil, fmt.Errorf("%s: tearing down set-up %d: %w", spec.name, i, err)
			}
		}
		var took time.Duration
		var err error
		l, took, err = setUp(spec, w, env, sh.windows, fmt.Sprintf("%s.%d", spec.name, i), trace)
		if err != nil {
			return nil, err
		}
		res.SetupS = append(res.SetupS, took.Seconds())
	}

	l.start()
	time.Sleep(sh.warmup)
	var before counterSample
	if trace {
		before = sampleCounters(l.st)
	}
	took := l.measure(sh.window, sh.windows)
	if trace {
		res.counters = sampleCounters(l.st).since(before)
	}
	undelivered := l.drain()
	if trace {
		res.counters.addServing(l.st)
	}
	if err := l.shutdown(); err != nil {
		res.Problems = append(res.Problems, fmt.Sprintf("teardown: %v", err))
	}

	for i := 0; i < sh.windows; i++ {
		var lat []uint32
		for _, s := range l.sides {
			lat = append(lat, s.lat[i]...)
			res.Attempted += s.attempted[i]
		}
		p50, tailus, tail := latencyStats(lat, tailPercentile)
		res.Windows = append(res.Windows, windowResult{
			Goodput: float64(len(lat)) / took[i].Seconds(),
			P50us:   p50, Tailus: tailus, Tail: tail, Samples: len(lat),
		})
		res.crossed += uint64(len(lat))
	}
	for i, s := range l.sides {
		if s.sendErr != nil {
			res.Failed++
			res.Problems = append(res.Problems, fmt.Sprintf("side %d send: %v", i, s.sendErr))
		}
		if s.bad != "" {
			res.Failed++
			res.Problems = append(res.Problems, fmt.Sprintf("side %d: unexpected %s", i, s.bad))
		}
		if s.chk.violations > 0 {
			res.Failed += s.chk.violations
			res.Problems = append(res.Problems, fmt.Sprintf("side %d: %s", i, s.chk.first))
		}
		res.OrderHash[i] = fmt.Sprintf("%016x", s.chk.hash)
	}
	if res.OrderHash[0] != res.OrderHash[1] {
		res.Failed++
		res.Problems = append(res.Problems, "the two clients delivered in different orders (order hashes differ)")
	}
	if undelivered > 0 {
		res.Failed += undelivered
		res.Problems = append(res.Problems,
			fmt.Sprintf("%d messages did not reach the other client within %s", undelivered, drainTimeout))
	}
	if trace {
		res.spans = joinSpans(l.sides)
	}
	return res, nil
}
