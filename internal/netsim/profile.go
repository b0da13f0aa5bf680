// Package netsim runs the real protocol engines over a modeled data-center
// network: NICs that serialize at line rate, a store-and-forward switch
// with bounded per-port output buffers, and single-threaded protocol CPUs
// with per-message processing costs. It is a cost model, not a simulator
// of its own: the switch is internal/enginetest's Fault hook and each
// node's NIC and CPU its CPU hook, so engines run exactly as in the cluster
// tests. It stands in for the paper's 8-server 1-gigabit / 10-gigabit
// testbed (see DESIGN.md §3 for the substitution argument) and regenerates
// the latency-vs-throughput profiles of the paper's figures.
package netsim

import "time"

// Profile models the per-message CPU costs and header overhead of one of
// the paper's three implementations: the library-based prototype, the
// daemon-based prototype, and the full Spread toolkit. The relative
// ordering (library cheapest, Spread most expensive, with client IPC and
// group-name-analysis delivery costs dominating Spread's profile) follows
// Section IV of the paper; absolute values are calibrated so that maximum
// throughputs land in the ranges the paper reports.
type Profile struct {
	// Name identifies the profile in benchmark output.
	Name string
	// HeaderBytes is the protocol header size added to each payload on
	// the wire. Spread's large headers (descriptive group and sender
	// names) are the reason its "clean payload" saturation point sits
	// below the line rate.
	HeaderBytes int
	// DataRecvCost is the CPU time to receive and process one data
	// message (socket read, decode, buffer insertion).
	DataRecvCost time.Duration
	// TokenCost is the CPU time to process a received token, excluding
	// the per-message send costs of the round.
	TokenCost time.Duration
	// SendCost is the CPU time to prepare and hand one multicast to the
	// NIC.
	SendCost time.Duration
	// DeliverCost is the CPU time to deliver one message to local
	// clients. For Spread this includes group-name analysis and the IPC
	// write, and it is what puts delivery on the critical path of the
	// original protocol (Section IV-A1).
	DeliverCost time.Duration
	// SubmitCost is the CPU time to accept one client submission (IPC
	// read and enqueue).
	SubmitCost time.Duration
	// RecvPerFrag is the CPU cost per network frame of a received
	// datagram (interrupt and reassembly work): a 9000-byte datagram on a
	// 1500-byte MTU pays it seven times, on a jumbo-frame network once.
	// This is what the paper's "jumbo frames may improve performance
	// further" remark is about.
	RecvPerFrag time.Duration
	// RecvPerKB, DeliverPerKB and SendPerKB add size-dependent CPU cost
	// (copies, checksums, IPC writes) per kilobyte of payload. They are
	// what keeps the large-datagram experiments (Section IV-A3) from
	// scaling past the paper's maxima: bigger messages amortize the fixed
	// per-message costs but still pay for every byte touched.
	RecvPerKB    time.Duration
	DeliverPerKB time.Duration
	SendPerKB    time.Duration
	// IPCDelay is the one-way client↔daemon latency added outside the
	// daemon's CPU (scheduling and socket wakeups). It is charged once on
	// submission and once on delivery for daemon-based profiles.
	IPCDelay time.Duration
}

// The three implementation profiles evaluated in the paper.
var (
	// ProfileLibrary models the library-based prototype: the application
	// links the protocol directly, so there is no client communication
	// at all.
	ProfileLibrary = Profile{
		Name:         "library",
		HeaderBytes:  52,
		DataRecvCost: 700 * time.Nanosecond,
		TokenCost:    2000 * time.Nanosecond,
		SendCost:     900 * time.Nanosecond,
		DeliverCost:  400 * time.Nanosecond,
		SubmitCost:   300 * time.Nanosecond,
		RecvPerFrag:  200 * time.Nanosecond,
		RecvPerKB:    600 * time.Nanosecond,
		DeliverPerKB: 400 * time.Nanosecond,
		SendPerKB:    250 * time.Nanosecond,
		IPCDelay:     0,
	}

	// ProfileDaemon models the daemon-based prototype: clients connect
	// over IPC sockets, but the daemon supports only a single group and
	// none of Spread's heavyweight features.
	ProfileDaemon = Profile{
		Name:         "daemon",
		HeaderBytes:  76,
		DataRecvCost: 1000 * time.Nanosecond,
		TokenCost:    2200 * time.Nanosecond,
		SendCost:     1000 * time.Nanosecond,
		DeliverCost:  900 * time.Nanosecond,
		SubmitCost:   800 * time.Nanosecond,
		RecvPerFrag:  200 * time.Nanosecond,
		RecvPerKB:    650 * time.Nanosecond,
		DeliverPerKB: 450 * time.Nanosecond,
		SendPerKB:    250 * time.Nanosecond,
		IPCDelay:     12 * time.Microsecond,
	}

	// ProfileSpread models the full Spread toolkit: large headers for
	// descriptive group/sender names, expensive delivery (group-name
	// analysis, per-client routing) and heavier client handling.
	ProfileSpread = Profile{
		Name:         "spread",
		HeaderBytes:  122,
		DataRecvCost: 1600 * time.Nanosecond,
		TokenCost:    2600 * time.Nanosecond,
		SendCost:     1200 * time.Nanosecond,
		DeliverCost:  2100 * time.Nanosecond,
		SubmitCost:   1300 * time.Nanosecond,
		RecvPerFrag:  250 * time.Nanosecond,
		RecvPerKB:    600 * time.Nanosecond,
		DeliverPerKB: 500 * time.Nanosecond,
		SendPerKB:    300 * time.Nanosecond,
		IPCDelay:     16 * time.Microsecond,
	}
)

// Network models the wire: line rate, per-hop forwarding latency and the
// switch's per-output-port buffering.
type Network struct {
	// Name identifies the network in benchmark output.
	Name string
	// RateBps is the line rate in bits per second.
	RateBps float64
	// PropDelay is the one-hop latency: NIC to switch to NIC, including
	// the switch's forwarding latency.
	PropDelay time.Duration
	// SwitchPortBuf is the switch's output buffer per port, in bytes.
	// Drop-tail beyond it. This buffering is what absorbs the accelerated
	// protocol's controlled sending overlap.
	SwitchPortBuf int
	// SockBufData and SockBufToken are the receive socket buffers, in
	// bytes; packets arriving while they are full are lost.
	SockBufData  int
	SockBufToken int
	// FrameOverhead is the per-packet wire overhead in bytes (Ethernet
	// preamble, header, CRC, inter-frame gap, IP and UDP headers).
	FrameOverhead int
	// MTU is the largest UDP datagram carried in one simulated packet.
	// Larger datagrams are fragmented into MTU-sized frames by the kernel
	// (Section IV-A3 runs with 9000-byte datagrams on a 1500-byte MTU
	// network); the simulator charges wire time per fragment but a single
	// receive cost, and losing any fragment loses the datagram.
	MTU int
}

// Jumbo returns a copy of the network with a 9000-byte MTU (jumbo
// frames), the configuration the paper declines to require but notes may
// improve performance further (Section IV-B).
func (n Network) Jumbo() Network {
	n.Name += "+jumbo"
	n.MTU = 9000
	return n
}

// The two testbed networks of the paper's evaluation.
var (
	// Net1G models the 1-gigabit Catalyst 2960 testbed.
	Net1G = Network{
		Name:          "1GbE",
		RateBps:       1e9,
		PropDelay:     45 * time.Microsecond,
		SwitchPortBuf: 512 * 1024,
		SockBufData:   4 * 1024 * 1024,
		SockBufToken:  256 * 1024,
		FrameOverhead: 66,
		MTU:           1500,
	}

	// Net10G models the 10-gigabit Arista 7100T testbed: ten times the
	// throughput, but far less than ten times lower latency (the trade-off
	// shift the paper is built around).
	Net10G = Network{
		Name:          "10GbE",
		RateBps:       10e9,
		PropDelay:     20 * time.Microsecond,
		SwitchPortBuf: 1024 * 1024,
		SockBufData:   8 * 1024 * 1024,
		SockBufToken:  256 * 1024,
		FrameOverhead: 66,
		MTU:           1500,
	}
)
