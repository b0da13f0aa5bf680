package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"accelring"
)

// Per-layer metrics: figures of single layers, named after this
// repository's packages. They carry no regression bound; README.md says
// which end-to-end metric each is expected to move on which workload.
var perLayer = []metricDef{
	{name: "process.allocs_per_msg", unit: "count"},
	{name: "process.gc_pause_share", unit: "ratio"},
	{name: "process.cpu_us_per_msg", unit: "us"},
	{name: "client.multicast_ns", unit: "ns"},
	{name: "client.allocs_per_multicast", unit: "count"},
	{name: "ipc.frame_ns_64b", unit: "ns"},
	{name: "ipc.frame_ns_1350b", unit: "ns"},
	{name: "ipc.allocs_per_frame_64b", unit: "count"},
	{name: "ipc.allocs_per_frame_1350b", unit: "count"},
	{name: "serving.ns_per_msg", unit: "ns"},
	{name: "serving.latency_p50_us", unit: "us"},
	{name: "fanout.publish_ns_1", unit: "ns"},
	{name: "fanout.publish_ns_64", unit: "ns"},
	{name: "fanout.publish_ns_1024", unit: "ns"},
	{name: "fanout.allocs_per_publish_1", unit: "count"},
	{name: "fanout.allocs_per_publish_64", unit: "count"},
	{name: "fanout.allocs_per_publish_1024", unit: "count"},
	{name: "fanout.queue_highwater", unit: "count"},
	{name: "fanout.shed", unit: "count"},
	{name: "core.ns_per_msg", unit: "ns"},
	{name: "core.msgs_per_round", unit: "count", higher: true},
	{name: "core.token_rotation_p50_us", unit: "us"},
	{name: "core.token_rotation_mean_us", unit: "us"},
	{name: "core.retransmits_per_kmsg", unit: "count"},
	{name: "core.post_token_share", unit: "ratio", higher: true},
	{name: "core.flow_throttled_rounds", unit: "count"},
	{name: "ringpaxos.ns_per_msg", unit: "ns"},
	{name: "ringpaxos.msgs_sent_per_decided", unit: "count"},
	{name: "ringpaxos.decide_round_p50_us", unit: "us"},
	{name: "ringpaxos.decide_rounds_mean", unit: "count"},
	{name: "wire.data_codec_ns_64b", unit: "ns"},
	{name: "wire.data_codec_ns_1350b", unit: "ns"},
	{name: "wire.token_codec_ns", unit: "ns"},
	{name: "wire.allocs_per_codec", unit: "count"},
	{name: "udp.ns_per_msg", unit: "ns"},
	{name: "udp.syscalls_per_msg", unit: "count"},
	{name: "udp.send_batch_mean", unit: "count", higher: true},
	{name: "udp.recv_batch_mean", unit: "count", higher: true},
	{name: "udp.sock_drops", unit: "count"},
	{name: "udp.pool_miss_share", unit: "ratio"},
	{name: "multiring.merge_ns_per_unit", unit: "ns"},
	{name: "multiring.envelope_codec_ns", unit: "ns"},
	{name: "arm.lib.mem.ns_per_msg", unit: "ns"},
	{name: "arm.lib.udp.ns_per_msg", unit: "ns"},
	{name: "arm.full.ns_per_msg", unit: "ns"},
	{name: "arm.lib.mem.cpu_us_per_msg", unit: "us"},
	{name: "arm.lib.udp.cpu_us_per_msg", unit: "us"},
	{name: "serving.cpu_us_per_msg", unit: "us"},
	{name: "budget.residual_cpu_us_per_msg", unit: "us"},
	{name: "arm.lib.mem.latency_p50_us", unit: "us"},
	{name: "arm.lib.udp.latency_p50_us", unit: "us"},
	{name: "arm.full.latency_p50_us", unit: "us"},
	{name: "budget.residual_latency_p50_us", unit: "us"},
	{name: "trace.overhead_share", unit: "ratio"},
}

// A traced invocation spends its measuring time on six closed-loop runs of
// the workload's load shape: the full stack untraced and traced (a fifth
// of the time each), and four shorter stacks, the arms (a tenth each).
const (
	fullShare = 5
	armShare  = 10
)

// armShape cuts one of those runs into a warm-up and five windows; the arm's
// figure is the median window.
func armShape(measure time.Duration) runShape {
	const windows = 5
	return runShape{setups: 1, warmup: measure / windows, window: measure / windows, windows: windows}
}

// nsPerMsg is the wall time a stack spent per ordered message.
func nsPerMsg(r *stackResult) float64 { return ratio(1e9, r.goodput().Median) }

// cpuPerMsg is the CPU time, user plus system, the whole process spent per
// ordered message during a traced run's windows.
func cpuPerMsg(r *stackResult) float64 {
	return ratio(r.counters.c[cCPUNs]/1e3, float64(r.crossed))
}

// traceOne produces every per-layer metric for one workload.
func traceOne(w workload, env runEnv, measure time.Duration) (map[string]float64, []*stackResult, error) {
	accel, paxos := w, w
	accel.engine, paxos.engine = accelring.EngineAccelRing, accelring.EngineRingPaxos
	plan := []struct {
		spec  stackSpec
		w     workload
		share time.Duration
		trace bool
	}{
		{fullStack, w, fullShare, false},
		{fullStack, w, fullShare, true},
		{armLibMem, accel, armShare, true},
		{armLibMem, paxos, armShare, true},
		{armLibUDP, w, armShare, true},
		{armDaemonOne, w, armShare, true},
	}
	runs := make([]*stackResult, len(plan))
	for i, a := range plan {
		r, err := runOnStack(a.spec, a.w, env, armShape(measure/a.share), a.trace)
		if err != nil {
			return nil, nil, fmt.Errorf("%s on %s: %w", a.w.name, a.spec.name, err)
		}
		runs[i] = r
	}
	plain, full, memAccel, memPaxos, libUDP, serving := runs[0], runs[1], runs[2], runs[3], runs[4], runs[5]
	libMem := memAccel
	if w.engine == accelring.EngineRingPaxos {
		libMem = memPaxos
	}

	m := map[string]float64{}
	c, msgs := full.counters, float64(full.crossed)
	m["process.allocs_per_msg"] = ratio(c.c[cMallocs], msgs)
	m["process.gc_pause_share"] = ratio(c.c[cGCPauseNs], float64(c.wall.Nanoseconds()))
	m["process.cpu_us_per_msg"] = cpuPerMsg(full)
	m["client.multicast_ns"] = spanMedianNs(full.spans, spanMulticast)
	m["fanout.queue_highwater"] = c.queueHighwater
	m["fanout.shed"] = c.shed
	m["core.msgs_per_round"] = ratio(c.c[cMsgsSent], c.c[cRounds])
	m["core.token_rotation_p50_us"] = c.rotationP50us
	m["core.token_rotation_mean_us"] = ratio(float64(c.wall.Microseconds()), c.c[cRounds])
	m["core.retransmits_per_kmsg"] = ratio(1000*c.c[cRetransmits], c.c[cMsgsSent])
	m["core.post_token_share"] = ratio(c.c[cMsgsPostToken], c.c[cMsgsSent])
	m["core.flow_throttled_rounds"] = c.c[cFlowThrottled]
	m["udp.syscalls_per_msg"] = ratio(c.c[cSendSyscalls]+c.c[cRecvSyscalls], msgs)
	m["udp.send_batch_mean"] = ratio(c.c[cSendBatchSum], c.c[cSendBatchCount])
	m["udp.recv_batch_mean"] = ratio(c.c[cRecvBatchSum], c.c[cRecvBatchCount])
	m["udp.sock_drops"] = c.c[cSockDrops]
	m["udp.pool_miss_share"] = ratio(c.c[cPoolMisses], c.c[cPoolHits]+c.c[cPoolMisses])

	px := memPaxos.counters
	m["ringpaxos.ns_per_msg"] = nsPerMsg(memPaxos)
	m["ringpaxos.msgs_sent_per_decided"] = ratio(px.c[cDatagramsOut], px.c[cDecided])
	m["ringpaxos.decide_round_p50_us"] = px.rotationP50us
	m["ringpaxos.decide_rounds_mean"] = ratio(px.c[cDecideRoundsSum], px.c[cDecideRoundsCount])

	// The arms, and the increments between them.
	m["core.ns_per_msg"] = nsPerMsg(memAccel)
	m["arm.lib.mem.ns_per_msg"] = nsPerMsg(libMem)
	m["arm.lib.udp.ns_per_msg"] = nsPerMsg(libUDP)
	m["udp.ns_per_msg"] = nsPerMsg(libUDP) - nsPerMsg(libMem)
	m["serving.ns_per_msg"] = nsPerMsg(serving)
	m["arm.full.ns_per_msg"] = nsPerMsg(plain)
	// The budget is kept in CPU time, which adds up across layers however
	// the two cores overlap them (wall time per message does not: the one
	// daemon of arm.daemon.single serves both clients in series, the full
	// stack's two in parallel). The residual is what the full stack burns
	// beyond the library over UDP plus the serving tier alone.
	m["arm.lib.mem.cpu_us_per_msg"] = cpuPerMsg(libMem)
	m["arm.lib.udp.cpu_us_per_msg"] = cpuPerMsg(libUDP)
	m["serving.cpu_us_per_msg"] = cpuPerMsg(serving)
	m["budget.residual_cpu_us_per_msg"] = cpuPerMsg(full) - cpuPerMsg(libUDP) - cpuPerMsg(serving)
	m["arm.lib.mem.latency_p50_us"] = libMem.p50().Median
	m["arm.lib.udp.latency_p50_us"] = libUDP.p50().Median
	m["serving.latency_p50_us"] = serving.p50().Median
	m["arm.full.latency_p50_us"] = plain.p50().Median
	m["budget.residual_latency_p50_us"] = plain.p50().Median - libUDP.p50().Median - serving.p50().Median
	m["trace.overhead_share"] = ratio(plain.goodput().Median-full.goodput().Median, plain.goodput().Median)

	if err := directCalls(m, env.sockDir, w.payload); err != nil {
		return nil, nil, err
	}
	return m, runs, nil
}

// directCalls fills in the figures measured by calling a layer's public
// functions directly, with the rest of the process idle.
func directCalls(m map[string]float64, sockDir string, payload int) error {
	for _, size := range []int{64, 1350} {
		ns, allocs, err := ipcBench(sockDir, size)
		if err != nil {
			return fmt.Errorf("ipc bench: %w", err)
		}
		m[fmt.Sprintf("ipc.frame_ns_%db", size)] = ns
		m[fmt.Sprintf("ipc.allocs_per_frame_%db", size)] = allocs
		dataNs, tokenNs, codecAllocs, err := wireBench(size)
		if err != nil {
			return fmt.Errorf("wire bench: %w", err)
		}
		m[fmt.Sprintf("wire.data_codec_ns_%db", size)] = dataNs
		m["wire.token_codec_ns"] = tokenNs
		m["wire.allocs_per_codec"] = codecAllocs
	}
	allocs, err := clientAllocs(sockDir, payload)
	if err != nil {
		return fmt.Errorf("client bench: %w", err)
	}
	m["client.allocs_per_multicast"] = allocs
	for _, subs := range []int{1, 64, 1024} {
		ns, allocs := fanoutBench(subs)
		m[fmt.Sprintf("fanout.publish_ns_%d", subs)] = ns
		m[fmt.Sprintf("fanout.allocs_per_publish_%d", subs)] = allocs
	}
	mergeNs, envelopeNs, err := multiringBench()
	if err != nil {
		return fmt.Errorf("multiring bench: %w", err)
	}
	m["multiring.merge_ns_per_unit"] = mergeNs
	m["multiring.envelope_codec_ns"] = envelopeNs
	return nil
}

func runTraced(selected []workload, env runEnv, measure time.Duration) (result, error) {
	out := result{Correct: true, Metrics: map[string]metricValue{}}
	var spans []span
	for _, w := range selected {
		m, runs, err := traceOne(w, env, measure)
		if err != nil {
			return out, err
		}
		fmt.Fprintf(os.Stderr, "\n%s, per layer\n", w.name)
		for _, def := range perLayer {
			v, ok := m[def.name]
			if !ok {
				return out, fmt.Errorf("%s: metric %s was not measured", w.name, def.name)
			}
			out.Metrics[key(selected, w, def.name)] = metricValue{Value: v, Unit: def.unit}
			fmt.Fprintf(os.Stderr, "  %-34s %16.4f %s\n", def.name, v, def.unit)
		}
		printBudget(m)
		for _, r := range runs {
			out.Correct = out.Correct && r.correct()
			out.Attempted += r.Attempted
			out.Failed += r.Failed
			for _, p := range r.Problems {
				fmt.Fprintf(os.Stderr, "  PROBLEM on %s: %s\n", r.Stack, p)
			}
			spans = append(spans, r.spans...)
		}
	}
	path := filepath.Join(outDir, "trace.json")
	if err := writeTrace(path, spans); err != nil {
		return out, err
	}
	fmt.Fprintf(os.Stderr, "\n%d spans written to %s\n", len(spans), path)
	return out, nil
}

// printBudget shows the stack arms as a sum: the library over memory, what
// UDP adds, the serving tier alone, and the residual against the full stack.
func printBudget(m map[string]float64) {
	fmt.Fprintf(os.Stderr, "  budget                          cpu us/msg     p50 us\n")
	row := func(label string, cpu, us float64) {
		fmt.Fprintf(os.Stderr, "    %-28s %10.2f %10.1f\n", label, cpu, us)
	}
	row("arm.lib.mem", m["arm.lib.mem.cpu_us_per_msg"], m["arm.lib.mem.latency_p50_us"])
	row("+ udp (lib.udp - lib.mem)", m["arm.lib.udp.cpu_us_per_msg"]-m["arm.lib.mem.cpu_us_per_msg"],
		m["arm.lib.udp.latency_p50_us"]-m["arm.lib.mem.latency_p50_us"])
	row("+ arm.daemon.single", m["serving.cpu_us_per_msg"], m["serving.latency_p50_us"])
	row("+ residual", m["budget.residual_cpu_us_per_msg"], m["budget.residual_latency_p50_us"])
	row("= full", m["process.cpu_us_per_msg"], m["arm.full.latency_p50_us"])
}
