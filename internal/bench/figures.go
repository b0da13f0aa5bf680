package bench

import (
	"accelring/internal/core"
	"accelring/internal/netsim"
	"accelring/internal/wire"
)

// Sweep grids (aggregate clean-payload Mbps).
var (
	grid1G       = []float64{100, 200, 300, 400, 500, 600, 700, 800, 850, 900, 950}
	grid10G      = []float64{100, 250, 500, 750, 1000, 1250, 1500, 1750, 2000, 2500, 3000, 3500, 4000, 4500, 5000, 5500}
	grid10GLarge = []float64{500, 1000, 1500, 2000, 2500, 3000, 3500, 4000, 4500, 5000, 5500, 6000, 6500, 7000, 7500, 8000}
	grid10GLow   = []float64{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
)

var allProfiles = []netsim.Profile{netsim.ProfileLibrary, netsim.ProfileDaemon, netsim.ProfileSpread}

// variant is one of the two protocols the paper compares, named as its
// series labels name it.
type variant struct {
	name string
	cfg  core.Config
}

// variants lists the original Ring protocol first, then the accelerated.
var variants = []variant{
	{"original", core.OriginalRing(core.Config{})},
	{"accelerated", core.Config{}},
}

// protocolSeries builds one series per implementation × protocol.
func protocolSeries(network netsim.Network, payload int, svc wire.Service, grid []float64) []Series {
	var out []Series
	for _, prof := range allProfiles {
		for _, v := range variants {
			out = append(out, Series{
				Label:       prof.Name + "/" + v.name,
				Profile:     prof,
				Engine:      v.cfg,
				PayloadSize: payload,
				Service:     svc,
				Network:     network,
				Offered:     grid,
			})
		}
	}
	return out
}

// payloadSeries builds accelerated-protocol series per implementation ×
// payload size (the large-datagram comparison of Figures 4 and 6).
func payloadSeries(network netsim.Network, svc wire.Service) []Series {
	var out []Series
	for _, prof := range allProfiles {
		for _, payload := range []int{1350, 8850} {
			grid := grid10G
			if payload == 8850 {
				grid = grid10GLarge
			}
			out = append(out, Series{
				Label:       fmt8(prof.Name, payload),
				Profile:     prof,
				PayloadSize: payload,
				Service:     svc,
				Network:     network,
				Offered:     grid,
			})
		}
	}
	return out
}

func fmt8(name string, payload int) string {
	if payload == 8850 {
		return name + "/8850B"
	}
	return name + "/1350B"
}

// Figures returns the definitions of all seven figures of the paper's
// evaluation, in order.
func Figures() []Figure {
	return []Figure{
		{
			ID:    "figure1",
			Title: "Fig. 1: Agreed delivery latency vs. throughput, 1-gigabit network",
			PaperClaim: "Original Ring knees near 500-600 Mbps with >1 ms latency; " +
				"Accelerated reaches 800+ Mbps at ~720 us and >920 Mbps max " +
				"(simultaneous ~60% throughput and ~45% latency improvement). " +
				"Spread/original shows distinctly higher latency than the prototypes; " +
				"the gap disappears under acceleration.",
			Series: protocolSeries(netsim.Net1G, 1350, wire.ServiceAgreed, grid1G),
		},
		{
			ID:    "figure2",
			Title: "Fig. 2: Safe delivery latency vs. throughput, 1-gigabit network",
			PaperClaim: "Original supports up to ~600 Mbps at 3.7-4.7 ms; Accelerated " +
				"supports 800 Mbps at ~2 ms (>30% throughput and >45% latency " +
				"improvement) and exceeds 900 Mbps in all implementations.",
			Series: protocolSeries(netsim.Net1G, 1350, wire.ServiceSafe, grid1G),
		},
		{
			ID:    "figure3",
			Title: "Fig. 3: Agreed delivery latency vs. throughput, 10-gigabit network",
			PaperClaim: "Implementation overhead dominates: library > daemon > Spread in " +
				"max throughput (4.6 / 3.2-3.3 / 2.1-2.3 Gbps). Spread: original ~1 Gbps " +
				"at 385 us vs accelerated 1.2 Gbps at ~310 us (+20%/-20%). Daemon: " +
				"original 2 Gbps at ~390 us vs accelerated 2.8 Gbps at ~265 us (+40%/-30%).",
			Series: protocolSeries(netsim.Net10G, 1350, wire.ServiceAgreed, grid10G),
		},
		{
			ID:    "figure4",
			Title: "Fig. 4: Throughput vs agreed latency, 1350 vs 8850 byte messages, 10-gigabit network",
			PaperClaim: "8850-byte payloads amortize processing: Spread 2.1 -> 5.3 Gbps " +
				"(+150%), daemon 3.2 -> 6 Gbps (+87%), library 4.6 -> 7.3 Gbps (+58%); " +
				"the biggest relative gain goes to the most processing-heavy implementation.",
			Series: payloadSeries(netsim.Net10G, wire.ServiceAgreed),
		},
		{
			ID:    "figure5",
			Title: "Fig. 5: Safe delivery latency vs. throughput, 10-gigabit network",
			PaperClaim: "Same ordering as Agreed with higher latencies and slightly higher " +
				"max throughputs (delivery off the critical path). Spread: 1.1 Gbps at 930 us " +
				"(original) vs 25% lower latency accelerated; daemon: 2.5 Gbps/1.5 ms original " +
				"vs 3.1 Gbps/980 us accelerated (+25%/-35%).",
			Series: protocolSeries(netsim.Net10G, 1350, wire.ServiceSafe, grid10G),
		},
		{
			ID:         "figure6",
			Title:      "Fig. 6: Throughput vs safe latency, 1350 vs 8850 byte messages, 10-gigabit network",
			PaperClaim: "Improvements from large payloads mirror Figure 4 for Safe delivery.",
			Series:     payloadSeries(netsim.Net10G, wire.ServiceSafe),
		},
		{
			ID:    "figure7",
			Title: "Fig. 7: Safe delivery latency for low throughputs, 10-gigabit network",
			PaperClaim: "At very low load the original protocol beats the accelerated one " +
				"for Safe delivery (raising the aru costs the accelerated protocol up to an " +
				"extra round): at 100 Mbps Spread original ~520 us vs accelerated ~620 us " +
				"(~20% worse); the curves cross by 400-500 Mbps (4-5% of capacity) and the " +
				"accelerated protocol wins beyond.",
			Series: protocolSeries(netsim.Net10G, 1350, wire.ServiceSafe, grid10GLow),
		},
	}
}

// FigureByID returns the figure with the given ID.
func FigureByID(id string) (Figure, bool) {
	for _, f := range Figures() {
		if f.ID == id {
			return f, true
		}
	}
	return Figure{}, false
}
