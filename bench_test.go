package accelring

// Benchmarks regenerating the paper's evaluation figures on the
// discrete-event simulator (one benchmark per figure — see DESIGN.md §4
// for the experiment index), plus micro-benchmarks of the protocol's hot
// paths. Run them all with:
//
//	go test -bench=. -benchmem
//
// Each figure benchmark runs its full sweep at the quick scale and reports
// headline metrics (maximum stable throughput per implementation and the
// accelerated-vs-original ratios); cmd/ringbench prints the full tables.
//
// NOTE: the quick scale's short measurement windows overstate maxima near
// saturation (a briefly-keeping-up ring counts as stable), which can
// compress the reported speedups — e.g. on the 1GbE figures both protocols
// may touch the grid top. EXPERIMENTS.md compares the paper against the
// full-scale sweeps (cmd/ringbench without -quick), which do not have this
// artifact.

import (
	"testing"
	"time"

	"accelring/internal/bench"
	"accelring/internal/core"
	"accelring/internal/engine"
	"accelring/internal/msgbuf"
	"accelring/internal/wire"
)

// runFigure executes one figure's sweep and reports summary metrics.
func runFigure(b *testing.B, id string, report func(b *testing.B, pts []bench.Point)) {
	b.Helper()
	fig, ok := bench.FigureByID(id)
	if !ok {
		b.Fatalf("unknown figure %q", id)
	}
	for i := 0; i < b.N; i++ {
		pts, err := bench.RunFigure(fig, bench.QuickScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			report(b, pts)
		}
	}
}

// reportProtocolFigure reports max stable throughput per series and the
// accelerated/original throughput ratio per implementation.
func reportProtocolFigure(b *testing.B, pts []bench.Point) {
	for _, impl := range []string{"library", "daemon", "spread"} {
		orig := bench.MaxStableMbps(pts, impl+"/original")
		accel := bench.MaxStableMbps(pts, impl+"/accelerated")
		b.ReportMetric(orig, impl+"-orig-mbps")
		b.ReportMetric(accel, impl+"-accel-mbps")
		if orig > 0 {
			b.ReportMetric(accel/orig, impl+"-speedup")
		}
	}
}

// reportPayloadFigure reports max stable throughput per payload size.
func reportPayloadFigure(b *testing.B, pts []bench.Point) {
	for _, impl := range []string{"library", "daemon", "spread"} {
		small := bench.MaxStableMbps(pts, impl+"/1350B")
		large := bench.MaxStableMbps(pts, impl+"/8850B")
		b.ReportMetric(small, impl+"-1350B-mbps")
		b.ReportMetric(large, impl+"-8850B-mbps")
		if small > 0 {
			b.ReportMetric(large/small, impl+"-gain")
		}
	}
}

// BenchmarkFigure1 regenerates Fig. 1: Agreed latency vs. throughput, 1GbE.
func BenchmarkFigure1(b *testing.B) {
	runFigure(b, "figure1", reportProtocolFigure)
}

// BenchmarkFigure2 regenerates Fig. 2: Safe latency vs. throughput, 1GbE.
func BenchmarkFigure2(b *testing.B) {
	runFigure(b, "figure2", reportProtocolFigure)
}

// BenchmarkFigure3 regenerates Fig. 3: Agreed latency vs. throughput, 10GbE.
func BenchmarkFigure3(b *testing.B) {
	runFigure(b, "figure3", reportProtocolFigure)
}

// BenchmarkFigure4 regenerates Fig. 4: 1350B vs 8850B payloads, Agreed, 10GbE.
func BenchmarkFigure4(b *testing.B) {
	runFigure(b, "figure4", reportPayloadFigure)
}

// BenchmarkFigure5 regenerates Fig. 5: Safe latency vs. throughput, 10GbE.
func BenchmarkFigure5(b *testing.B) {
	runFigure(b, "figure5", reportProtocolFigure)
}

// BenchmarkFigure6 regenerates Fig. 6: 1350B vs 8850B payloads, Safe, 10GbE.
func BenchmarkFigure6(b *testing.B) {
	runFigure(b, "figure6", reportPayloadFigure)
}

// BenchmarkFigure7 regenerates Fig. 7: Safe latency at low throughput,
// 10GbE — the regime where the original protocol beats the accelerated one
// until the crossover.
func BenchmarkFigure7(b *testing.B) {
	runFigure(b, "figure7", func(b *testing.B, pts []bench.Point) {
		lowO, okO := bench.LatencyAt(pts, "spread/original", 100)
		lowA, okA := bench.LatencyAt(pts, "spread/accelerated", 100)
		highO, okHO := bench.LatencyAt(pts, "spread/original", 1000)
		highA, okHA := bench.LatencyAt(pts, "spread/accelerated", 1000)
		if okO && okA {
			b.ReportMetric(float64(lowO)/float64(time.Microsecond), "orig-100mbps-us")
			b.ReportMetric(float64(lowA)/float64(time.Microsecond), "accel-100mbps-us")
		}
		if okHO && okHA {
			b.ReportMetric(float64(highO)/float64(time.Microsecond), "orig-1000mbps-us")
			b.ReportMetric(float64(highA)/float64(time.Microsecond), "accel-1000mbps-us")
		}
	})
}

// --- Ablation benchmarks: the design choices DESIGN.md calls out.

func runAblation(b *testing.B, id string, report func(*testing.B, []bench.Point)) {
	b.Helper()
	a, ok := bench.AblationByID(id)
	if !ok {
		b.Fatalf("unknown ablation %q", id)
	}
	for i := 0; i < b.N; i++ {
		pts, err := a.Run(bench.QuickScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			report(b, pts)
		}
	}
}

// BenchmarkAblationAccelWindow sweeps the accelerated window at fixed load:
// window 0 is the original protocol's sending pattern; the latency drop as
// the window opens is the protocol's whole point.
func BenchmarkAblationAccelWindow(b *testing.B) {
	runAblation(b, "accel-window", func(b *testing.B, pts []bench.Point) {
		for _, p := range pts {
			b.ReportMetric(float64(p.AvgLatency)/float64(time.Microsecond), p.Series+"-us")
		}
	})
}

// BenchmarkAblationPriorityMethod compares the aggressive and conservative
// token-priority methods (Section III-C).
func BenchmarkAblationPriorityMethod(b *testing.B) {
	runAblation(b, "priority-method", func(b *testing.B, pts []bench.Point) {
		for _, p := range pts {
			if p.OfferedMbps == 2000 {
				b.ReportMetric(float64(p.AvgLatency)/float64(time.Microsecond), p.Series+"-2g-us")
			}
		}
	})
}

// BenchmarkAblationRingSize scales the ring from 2 to 24 participants.
func BenchmarkAblationRingSize(b *testing.B) {
	runAblation(b, "ring-size", func(b *testing.B, pts []bench.Point) {
		for _, p := range pts {
			b.ReportMetric(float64(p.AvgLatency)/float64(time.Microsecond), p.Series+"-us")
		}
	})
}

// --- Micro-benchmarks: protocol hot paths.

func BenchmarkWireEncodeData(b *testing.B) {
	m := &wire.DataMessage{
		RingID:  wire.RingID{Rep: 1, Seq: 4},
		Seq:     12345,
		PID:     3,
		Round:   99,
		Service: wire.ServiceAgreed,
		Payload: make([]byte, 1350),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Encode(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireDecodeData(b *testing.B) {
	m := &wire.DataMessage{
		RingID:  wire.RingID{Rep: 1, Seq: 4},
		Seq:     12345,
		PID:     3,
		Round:   99,
		Service: wire.ServiceAgreed,
		Payload: make([]byte, 1350),
	}
	pkt, err := wire.Encode(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.DecodeData(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireTokenRoundtrip(b *testing.B) {
	tok := &wire.Token{
		RingID: wire.RingID{Rep: 1, Seq: 4}, TokenSeq: 77, Round: 400,
		Seq: 100000, ARU: 99990, FCC: 120, RTR: []wire.Seq{99991, 99995},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt, err := wire.Encode(tok)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wire.DecodeToken(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireAppendData is the steady-state encode path as the runtime
// loop actually runs it: appending into a reused scratch buffer. Expected
// to report 0 allocs/op; the allocation gates in internal/wire enforce it.
func BenchmarkWireAppendData(b *testing.B) {
	m := &wire.DataMessage{
		RingID:  wire.RingID{Rep: 1, Seq: 4},
		Seq:     12345,
		PID:     3,
		Round:   99,
		Service: wire.ServiceAgreed,
		Payload: make([]byte, 1350),
	}
	scratch := make([]byte, 0, m.EncodedSize())
	b.SetBytes(int64(m.EncodedSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt, err := wire.AppendData(scratch[:0], m)
		if err != nil {
			b.Fatal(err)
		}
		scratch = pkt[:0]
	}
}

// BenchmarkWireAppendToken is the token forward path with a reused scratch.
func BenchmarkWireAppendToken(b *testing.B) {
	tok := &wire.Token{
		RingID: wire.RingID{Rep: 1, Seq: 4}, TokenSeq: 77, Round: 400,
		Seq: 100000, ARU: 99990, FCC: 120, RTR: []wire.Seq{99991, 99995},
	}
	scratch := make([]byte, 0, tok.EncodedSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt, err := wire.AppendToken(scratch[:0], tok)
		if err != nil {
			b.Fatal(err)
		}
		scratch = pkt[:0]
	}
}

// BenchmarkWireDecodeInto is the steady-state decode pair with reused
// destinations: the data payload aliases the packet, the token reuses its
// RTR capacity.
func BenchmarkWireDecodeInto(b *testing.B) {
	dataPkt, err := wire.Encode(&wire.DataMessage{
		RingID: wire.RingID{Rep: 1, Seq: 4}, Seq: 12345, PID: 3, Round: 99,
		Service: wire.ServiceAgreed, Payload: make([]byte, 1350),
	})
	if err != nil {
		b.Fatal(err)
	}
	tokPkt, err := wire.Encode(&wire.Token{
		RingID: wire.RingID{Rep: 1, Seq: 4}, TokenSeq: 77, Round: 400,
		Seq: 100000, ARU: 99990, FCC: 120, RTR: []wire.Seq{99991, 99995},
	})
	if err != nil {
		b.Fatal(err)
	}
	var m wire.DataMessage
	var tok wire.Token
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wire.DecodeDataInto(&m, dataPkt); err != nil {
			b.Fatal(err)
		}
		if err := wire.DecodeTokenInto(&tok, tokPkt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineTokenRound measures one full engine token round: 8 new
// messages sequenced, the token updated and forwarded, deliveries drained.
func BenchmarkEngineTokenRound(b *testing.B) {
	eng, err := core.New(core.Config{MyID: 2})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Start([]wire.ParticipantID{1, 2, 3}); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1350)
	ringID := eng.Snapshot().Ring.ID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8; j++ {
			if _, err := eng.Submit(payload, wire.ServiceAgreed); err != nil {
				b.Fatal(err)
			}
		}
		seq := wire.Seq(i * 8)
		tok := &wire.Token{
			RingID: ringID, TokenSeq: uint64(i + 1), Round: wire.Round(i),
			Seq: seq, ARU: seq,
		}
		if actions := eng.Step(engine.Input{Frame: tok}); len(actions) == 0 {
			b.Fatal("token produced no actions")
		}
	}
}

// BenchmarkEngineDataHandling measures the receive path: insert + deliver.
func BenchmarkEngineDataHandling(b *testing.B) {
	eng, err := core.New(core.Config{MyID: 2})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Start([]wire.ParticipantID{1, 2, 3}); err != nil {
		b.Fatal(err)
	}
	ringID := eng.Snapshot().Ring.ID
	payload := make([]byte, 1350)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &wire.DataMessage{
			RingID: ringID, Seq: wire.Seq(i + 1), PID: 1, Round: 1,
			Service: wire.ServiceAgreed, Payload: payload,
		}
		eng.Step(engine.Input{Frame: m})
	}
}

func BenchmarkMsgbufInsertDeliver(b *testing.B) {
	buf := msgbuf.New(0)
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &wire.DataMessage{Seq: wire.Seq(i + 1), PID: 1, Service: wire.ServiceAgreed, Payload: payload}
		buf.Insert(m)
		if d := buf.NextDeliverable(0); d != nil {
			buf.Advance(d.Seq)
		}
		if i%1024 == 0 {
			buf.DiscardStable(wire.Seq(i))
		}
	}
}

// BenchmarkPackingSmallMessages measures Spread-style message packing on
// real small messages over the in-memory transport: 64-byte payloads with
// packing off vs packed into 1350-byte protocol packets.
func BenchmarkPackingSmallMessages(b *testing.B) {
	for _, tc := range []struct {
		name      string
		threshold int
	}{{"unpacked", 0}, {"packed1350", 1350}} {
		b.Run(tc.name, func(b *testing.B) {
			network := NewMemoryNetwork(1)
			network.SetLatency(20 * time.Microsecond)
			members := []ParticipantID{1, 2, 3}
			nodes := make([]*Node, 0, 3)
			for _, id := range members {
				n, err := Start(Options{
					ID: id, Transport: network.Endpoint(id), Members: members,
					PackThreshold: tc.threshold,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer n.Close()
				nodes = append(nodes, n)
			}
			payload := make([]byte, 64)
			b.SetBytes(64)
			b.ReportAllocs()
			b.ResetTimer()
			done := make(chan struct{})
			for i, node := range nodes {
				events := node.Events()
				last := i == len(nodes)-1
				go func() {
					got := 0
					for ev := range events {
						if _, ok := ev.(Message); ok {
							got++
							if got == b.N {
								if last {
									close(done)
								}
								return
							}
						}
					}
				}()
			}
			for i := 0; i < b.N; i++ {
				for {
					if err := nodes[0].Submit(payload, Agreed); err == nil {
						break
					}
					time.Sleep(time.Millisecond)
				}
			}
			<-done
		})
	}
}

// BenchmarkEndToEndMemnet measures real (wall-clock) end-to-end ordered
// delivery over the in-memory transport: 3 nodes, agreed delivery.
func BenchmarkEndToEndMemnet(b *testing.B) {
	network := NewMemoryNetwork(1)
	network.SetLatency(20 * time.Microsecond)
	members := []ParticipantID{1, 2, 3}
	nodes := make([]*Node, 0, 3)
	for _, id := range members {
		n, err := Start(Options{ID: id, Transport: network.Endpoint(id), Members: members})
		if err != nil {
			b.Fatal(err)
		}
		defer n.Close()
		nodes = append(nodes, n)
	}
	payload := make([]byte, 1350)
	b.SetBytes(1350)
	b.ReportAllocs()
	b.ResetTimer()
	// Every node must drain its events or the protocol loop blocks.
	done := make(chan struct{})
	for i, node := range nodes {
		events := node.Events()
		last := i == len(nodes)-1
		go func() {
			got := 0
			for ev := range events {
				if _, ok := ev.(Message); ok {
					got++
					if got == b.N {
						if last {
							close(done)
						}
						return
					}
				}
			}
		}()
	}
	for i := 0; i < b.N; i++ {
		for {
			if err := nodes[0].Submit(payload, Agreed); err == nil {
				break
			}
			time.Sleep(time.Millisecond) // backlog full: let the ring drain
		}
	}
	<-done
}
