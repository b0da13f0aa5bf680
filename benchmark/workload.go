package main

import "accelring"

// workload is one closed-loop load shape on the full stack.
type workload struct {
	name string
	why  string
	// outstanding is how many of its own messages each client keeps in
	// flight. With pingpong set there is one message in the whole system,
	// passed back and forth.
	outstanding int
	pingpong    bool
	payload     int // bytes handed to Multicast
	service     accelring.Service
	engine      accelring.EngineKind
}

// The whys are repeated in BENCHMARK.json and explained at length in
// README.md.
var workloads = []workload{
	{
		name: "pingpong.agreed", outstanding: 1, pingpong: true, payload: 1350,
		service: accelring.Agreed, engine: accelring.EngineAccelRing,
		why: "one message in the whole system: latency with no queueing, so only token-hop time and the fixed hand-offs show",
	},
	{
		name: "sat.1350.agreed", outstanding: 64, payload: 1350,
		service: accelring.Agreed, engine: accelring.EngineAccelRing,
		why: "the paper's operating point: one datagram per message, so wire codec, udpnet batching and buffer pools do most of the work",
	},
	{
		name: "sat.1350.safe", outstanding: 64, payload: 1350,
		service: accelring.Safe, engine: accelring.EngineAccelRing,
		why: "same layers, but delivery waits for token aru stability: catches a change that speeds Agreed at Safe's cost",
	},
	{
		name: "sat.64.agreed", outstanding: 64, payload: 64,
		service: accelring.Agreed, engine: accelring.EngineAccelRing,
		why: "per-message cost without per-byte cost: packing fills datagrams, so ipc, daemon, fanout and client do most of the work",
	},
	{
		name: "sat.1350.ringpaxos", outstanding: 64, payload: 1350,
		service: accelring.Agreed, engine: accelring.EngineRingPaxos,
		why: "the second engine on the identical path: shared-code changes must not regress it silently",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef describes one reported metric.
type metricDef struct {
	name   string
	unit   string
	higher bool    // higher is better
	bound  float64 // share of the baseline by which it may worsen; end-to-end only
}

// End-to-end metrics: what a user of the system sees. failed_share from
// the issue is not among them because it is 0 on every healthy run and the
// driver's contract forbids metrics that are; the result's attempted and
// failed counts carry it instead.
var endToEnd = []metricDef{
	{name: "goodput_msgs_per_s", unit: "msg/s", higher: true, bound: 0.25},
	{name: "latency_p50_us", unit: "us", bound: 0.25},
	{name: "latency_p95_us", unit: "us", bound: 0.25},
	{name: "setup_s", unit: "s", bound: 0.25},
}
