package bench

import (
	"fmt"
	"time"

	"accelring/internal/core"
	"accelring/internal/flowctl"
	"accelring/internal/netsim"
	"accelring/internal/wire"
)

// Ablation is a named experiment probing one of the protocol's design
// choices outside the paper's headline figures.
type Ablation struct {
	// ID is the experiment identifier, e.g. "accel-window".
	ID string
	// Title describes the experiment.
	Title string
	// Question is the design question the ablation answers.
	Question string
	// Run executes the experiment at the given scale.
	Run func(sc Scale) ([]Point, error)
}

// Ablations returns the ablation experiments.
func Ablations() []Ablation {
	return []Ablation{
		{
			ID:    "accel-window",
			Title: "Accelerated window sweep, daemon profile, 10GbE, 2.5 Gbps agreed",
			Question: "How much post-token sending is enough? Window 0 is the original " +
				"protocol; the paper tunes the window per deployment and warns that " +
				"too much overlap can exhaust buffers.",
			Run: runAccelWindowSweep,
		},
		{
			ID:    "priority-method",
			Title: "Priority switching methods, spread profile, 10GbE, safe delivery",
			Question: "The aggressive method (prototypes) processes the token at the " +
				"earliest safe moment; the conservative method (Spread) waits for a " +
				"post-token message. What does each cost across load levels?",
			Run: runPriorityComparison,
		},
		{
			ID:    "jumbo-frames",
			Title: "Jumbo frames (9000B MTU) vs standard 1500B MTU, 8850B payloads, 10GbE",
			Question: "The paper avoids requiring jumbo frames but notes they 'may " +
				"improve performance further': with large datagrams, how much does " +
				"eliminating kernel fragmentation (7 frames -> 1 per datagram) buy?",
			Run: runJumboComparison,
		},
		{
			ID:    "arrivals",
			Title: "CBR vs Poisson arrivals, spread profile, 10GbE, agreed delivery",
			Question: "The paper's clients inject at fixed rates; how does the " +
				"latency profile change under bursty (Poisson) arrivals at the " +
				"same mean load?",
			Run: runArrivalComparison,
		},
		{
			ID:    "ring-size",
			Title: "Ring size scaling, library profile, 10GbE, 2 Gbps agreed",
			Question: "Token rings serialize sending permission: how do latency and " +
				"the accelerated protocol's advantage scale with participant count?",
			Run: runRingSizeSweep,
		},
	}
}

// AblationByID returns the ablation with the given ID.
func AblationByID(id string) (Ablation, bool) {
	for _, a := range Ablations() {
		if a.ID == id {
			return a, true
		}
	}
	return Ablation{}, false
}

func runAccelWindowSweep(sc Scale) ([]Point, error) {
	var out []Point
	for _, window := range []int{0, 1, 2, 5, 10, 20, 40, 60} {
		flow := flowctl.Default()
		flow.AcceleratedWindow = window
		cfg := netsim.Config{
			Network:     netsim.Net10G,
			Profile:     netsim.ProfileDaemon,
			Engine:      core.Config{Protocol: core.ProtocolAcceleratedRing, Flow: flow},
			PayloadSize: 1350,
			OfferedMbps: 2500,
			Service:     wire.ServiceAgreed,
			Warmup:      sc.Warmup,
			Measure:     sc.Measure,
		}
		res, _, err := netsim.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: accel window %d: %w", window, err)
		}
		out = append(out, Point{Series: fmt.Sprintf("window=%d", window), Result: res})
	}
	return out, nil
}

func runPriorityComparison(sc Scale) ([]Point, error) {
	var out []Point
	for _, method := range []core.PriorityMethod{core.PriorityAggressive, core.PriorityConservative} {
		for _, offered := range []float64{500, 1000, 1500, 2000} {
			cfg := netsim.Config{
				Network: netsim.Net10G,
				Profile: netsim.ProfileSpread,
				Engine: core.Config{
					Protocol: core.ProtocolAcceleratedRing,
					Priority: method,
				},
				PayloadSize: 1350,
				OfferedMbps: offered,
				Service:     wire.ServiceSafe,
				Warmup:      sc.Warmup,
				Measure:     sc.Measure,
			}
			res, _, err := netsim.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: priority %s at %.0f: %w", method, offered, err)
			}
			out = append(out, Point{Series: method.String(), Result: res})
		}
	}
	return out, nil
}

func runRingSizeSweep(sc Scale) ([]Point, error) {
	var out []Point
	for _, nodes := range []int{2, 4, 8, 16, 24} {
		for _, proto := range []core.Protocol{core.ProtocolOriginalRing, core.ProtocolAcceleratedRing} {
			cfg := netsim.Config{
				Nodes:       nodes,
				Network:     netsim.Net10G,
				Profile:     netsim.ProfileLibrary,
				Engine:      core.Config{Protocol: proto},
				PayloadSize: 1350,
				OfferedMbps: 2000,
				Service:     wire.ServiceAgreed,
				Warmup:      sc.Warmup,
				Measure:     sc.Measure,
			}
			res, _, err := netsim.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: ring size %d: %w", nodes, err)
			}
			out = append(out, Point{
				Series: fmt.Sprintf("n=%d/%s", nodes, protoNames[proto]),
				Result: res,
			})
		}
	}
	return out, nil
}

func runJumboComparison(sc Scale) ([]Point, error) {
	var out []Point
	for _, prof := range allProfiles {
		for _, jumbo := range []bool{false, true} {
			network := netsim.Net10G
			if jumbo {
				network = network.Jumbo()
			}
			for _, offered := range []float64{4000, 5000, 6000, 7000, 8000} {
				cfg := netsim.Config{
					Network:     network,
					Profile:     prof,
					Engine:      core.Config{Protocol: core.ProtocolAcceleratedRing},
					PayloadSize: 8850,
					OfferedMbps: offered,
					Service:     wire.ServiceAgreed,
					Warmup:      sc.Warmup,
					Measure:     sc.Measure,
				}
				res, _, err := netsim.Run(cfg)
				if err != nil {
					return nil, fmt.Errorf("bench: jumbo %v at %.0f: %w", jumbo, offered, err)
				}
				out = append(out, Point{Series: prof.Name + "/" + network.Name, Result: res})
				if !res.Stable {
					break
				}
			}
		}
	}
	return out, nil
}

func runArrivalComparison(sc Scale) ([]Point, error) {
	var out []Point
	for _, arrivals := range []netsim.Arrivals{netsim.ArrivalCBR, netsim.ArrivalPoisson} {
		name := "cbr"
		if arrivals == netsim.ArrivalPoisson {
			name = "poisson"
		}
		for _, offered := range []float64{500, 1000, 1500, 2000} {
			cfg := netsim.Config{
				Network:     netsim.Net10G,
				Profile:     netsim.ProfileSpread,
				Engine:      core.Config{Protocol: core.ProtocolAcceleratedRing},
				PayloadSize: 1350,
				OfferedMbps: offered,
				Service:     wire.ServiceAgreed,
				Arrivals:    arrivals,
				Seed:        42,
				Warmup:      sc.Warmup,
				Measure:     sc.Measure,
			}
			res, _, err := netsim.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: arrivals %s at %.0f: %w", name, offered, err)
			}
			out = append(out, Point{Series: name, Result: res})
		}
	}
	return out, nil
}

// AblationScale is the default scale for ablations (they have many cells).
var AblationScale = Scale{Warmup: 100 * time.Millisecond, Measure: 250 * time.Millisecond}
