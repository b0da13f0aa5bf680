// Command ringperf benchmarks the library-based deployment on a real
// transport, mirroring the paper's library-prototype measurements: it runs
// a ring of in-process nodes over UDP loopback sockets (or the in-memory
// transport), injects fixed-size messages at a target aggregate rate, and
// reports achieved throughput and delivery latency.
//
//	ringperf -nodes 4 -rate 200 -size 1350 -duration 5s -protocol accelerated
//	ringperf -transport mem -rate 500 -service safe
//	ringperf -engine ringpaxos -rate 100    # Ring Paxos comparison baseline
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"accelring"
	"accelring/internal/bench"
	"accelring/internal/metrics"
)

func main() {
	os.Exit(run())
}

func run() int {
	nodes := flag.Int("nodes", 4, "ring size")
	rate := flag.Float64("rate", 100, "aggregate offered load in Mbps of payload")
	size := flag.Int("size", 1350, "payload size in bytes (>= 16)")
	duration := flag.Duration("duration", 5*time.Second, "measurement duration")
	protoFlag := flag.String("protocol", "accelerated", "accelerated or original")
	engineFlag := flag.String("engine", "", "ordering engine: accelring (default) or ringpaxos")
	serviceFlag := flag.String("service", "agreed", "agreed or safe")
	transportFlag := flag.String("transport", "udp", "udp (loopback sockets) or mem (in-memory)")
	pack := flag.Int("pack", 0, "message packing threshold (0 disables)")
	metricsJSON := flag.String("metrics-json", "", "directory to write a BENCH_ringperf.json report into (summary point plus per-node metrics snapshots)")
	series := flag.String("series", "", "series label override for the report point (default transport/protocol/service)")
	flag.Parse()

	logger := log.New(os.Stderr, "ringperf: ", log.LstdFlags)
	if *size < 16 {
		logger.Print("-size must be >= 16")
		return 2
	}
	protocol := accelring.AcceleratedRing
	if *protoFlag == "original" {
		protocol = accelring.OriginalRing
	} else if *protoFlag != "accelerated" {
		logger.Printf("unknown -protocol %q", *protoFlag)
		return 2
	}
	service := accelring.Agreed
	if *serviceFlag == "safe" {
		service = accelring.Safe
	} else if *serviceFlag != "agreed" {
		logger.Printf("unknown -service %q", *serviceFlag)
		return 2
	}
	engine, err := accelring.ParseEngine(*engineFlag)
	if err != nil {
		logger.Print(err)
		return 2
	}

	members := make([]accelring.ParticipantID, *nodes)
	for i := range members {
		members[i] = accelring.ParticipantID(i + 1)
	}
	transports, err := buildTransports(*transportFlag, members)
	if err != nil {
		logger.Print(err)
		return 1
	}
	ring := make([]*accelring.Node, 0, *nodes)
	for i, id := range members {
		node, err := accelring.Start(accelring.Options{
			ID:            id,
			Transport:     transports[i],
			Members:       members,
			Protocol:      protocol,
			Engine:        engine,
			PackThreshold: *pack,
		})
		if err != nil {
			logger.Print(err)
			return 1
		}
		defer node.Close()
		ring = append(ring, node)
	}

	// Receivers: every node samples latency of every delivery.
	var (
		mu       sync.Mutex
		lat      metrics.Sample
		received atomic.Uint64
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, node := range ring {
		events := node.Events()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case ev, ok := <-events:
					if !ok {
						return
					}
					m, isMsg := ev.(accelring.Message)
					if !isMsg || len(m.Payload) < 8 {
						continue
					}
					received.Add(1)
					sent := int64(binary.BigEndian.Uint64(m.Payload))
					d := time.Duration(time.Now().UnixNano() - sent)
					mu.Lock()
					lat.Add(d)
					mu.Unlock()
				case <-stop:
					return
				}
			}
		}()
	}

	// Senders: each node injects its share of the aggregate rate.
	perNodeMsgs := *rate * 1e6 / 8 / float64(*size) / float64(*nodes)
	interval := time.Duration(float64(time.Second) / perNodeMsgs)
	logger.Printf("%d nodes (%s/%s over %s), %.0f Mbps aggregate = %.0f msg/s/node",
		*nodes, *protoFlag, *serviceFlag, *transportFlag, *rate, perNodeMsgs)

	// Allocation accounting: difference heap and pool counters across the
	// measurement window to report allocs per message and pool recycling.
	poolBefore := accelring.BufferPoolStats()
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)

	start := time.Now()
	var sent atomic.Uint64
	var sendWg sync.WaitGroup
	for _, node := range ring {
		sendWg.Add(1)
		go func() {
			defer sendWg.Done()
			payload := make([]byte, *size)
			ticker := time.NewTicker(interval)
			defer ticker.Stop()
			for time.Since(start) < *duration {
				<-ticker.C
				binary.BigEndian.PutUint64(payload, uint64(time.Now().UnixNano()))
				if err := node.Submit(payload, service); err != nil {
					logger.Printf("submit at %s: %v", node.ID(), err)
					return
				}
				sent.Add(1)
			}
		}()
	}
	sendWg.Wait()
	time.Sleep(300 * time.Millisecond) // drain in-flight deliveries
	close(stop)
	wg.Wait()

	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	poolAfter := accelring.BufferPoolStats()
	poolDelta := accelring.PoolSnapshot{
		Hits:     poolAfter.Hits - poolBefore.Hits,
		Misses:   poolAfter.Misses - poolBefore.Misses,
		Puts:     poolAfter.Puts - poolBefore.Puts,
		Discards: poolAfter.Discards - poolBefore.Discards,
	}
	allocsPerMsg := 0.0
	if n := sent.Load(); n > 0 {
		allocsPerMsg = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(n)
	}

	elapsed := time.Since(start).Seconds()
	wantDeliveries := sent.Load() * uint64(*nodes)
	achieved := float64(sent.Load()) * float64(*size) * 8 / 1e6 / elapsed
	fmt.Printf("sent %d messages; %d deliveries (%.1f%% of expected)\n",
		sent.Load(), received.Load(), 100*float64(received.Load())/float64(wantDeliveries))
	fmt.Printf("achieved %.1f Mbps aggregate payload\n", achieved)
	fmt.Printf("allocs/msg %.1f | bufpool hits %d misses %d puts %d discards %d\n",
		allocsPerMsg, poolDelta.Hits, poolDelta.Misses, poolDelta.Puts, poolDelta.Discards)
	mu.Lock()
	defer mu.Unlock()
	if lat.Count() > 0 {
		fmt.Printf("latency: mean=%v p50=%v p99=%v max=%v (n=%d)\n",
			lat.Mean(), lat.Percentile(50), lat.Percentile(99), lat.Max(), lat.Count())
	}
	if *metricsJSON != "" {
		label := *series
		if label == "" {
			label = fmt.Sprintf("%s/%s/%s", *transportFlag, *protoFlag, *serviceFlag)
			if engine == accelring.EngineRingPaxos {
				label = fmt.Sprintf("%s/%s/%s", *transportFlag, engine, *serviceFlag)
			}
		}
		path, point, err := writeMetricsReport(*metricsJSON, label, ring, *rate, achieved, &lat, sent.Load(), elapsed, poolDelta, allocsPerMsg)
		if err != nil {
			logger.Print(err)
			return 1
		}
		if point.RecvSyscalls+point.SendSyscalls > 0 {
			fmt.Printf("syscalls/msg %.3f (recv %d + send %d syscalls; batch mean recv=%.1f send=%.1f)\n",
				point.SyscallsPerMsg, point.RecvSyscalls, point.SendSyscalls,
				point.RecvBatchMean, point.SendBatchMean)
		}
		fmt.Printf("metrics report: %s\n", path)
	}
	return 0
}

// metricsReport is the on-disk report shape: the shared bench schema plus
// every node's full metrics snapshot.
type metricsReport struct {
	bench.JSONReport
	NodeMetrics []accelring.MetricsSnapshot `json:"node_metrics"`
}

// writeMetricsReport writes dir/BENCH_ringperf.json: one summary point
// (series label) in the shared bench schema plus every node's full metrics
// snapshot.
func writeMetricsReport(dir, label string, ring []*accelring.Node, offered, achieved float64, lat *metrics.Sample, sent uint64, elapsed float64, pool accelring.PoolSnapshot, allocsPerMsg float64) (string, bench.JSONPoint, error) {
	point := bench.JSONPoint{
		Series:       label,
		OfferedMbps:  offered,
		AchievedMbps: achieved,
		Stable:       achieved >= 0.97*offered,
		AvgLatencyUs: float64(lat.Mean()) / float64(time.Microsecond),
		P50LatencyUs: float64(lat.Percentile(50)) / float64(time.Microsecond),
		P99LatencyUs: float64(lat.Percentile(99)) / float64(time.Microsecond),
		Samples:      lat.Count(),
		Nodes:        len(ring),
		PoolHits:     pool.Hits,
		PoolMisses:   pool.Misses,
		PoolPuts:     pool.Puts,
		PoolDiscards: pool.Discards,
		AllocsPerMsg: allocsPerMsg,
	}
	snaps := make([]accelring.MetricsSnapshot, 0, len(ring))
	var rotationNs, rotations int64
	var datagrams, recvBatchSum, sendBatchSum, recvBatchCnt, sendBatchCnt uint64
	for _, node := range ring {
		snap, err := node.Metrics()
		if err != nil {
			return "", point, fmt.Errorf("metrics at %s: %w", node.ID(), err)
		}
		snaps = append(snaps, snap)
		point.TokensHandled += snap.Engine.TokensProcessed
		point.Retransmits += snap.Engine.MsgsRetransmitted
		point.PostTokenMsgs += snap.Engine.MsgsPostToken
		point.AccelFlushes += snap.Engine.AccelFlushes
		point.RTRDeferredRounds += snap.Engine.RTRDeferredRounds
		point.FlowThrottledRounds += snap.Engine.FlowThrottledRounds
		if snap.Transport != nil {
			point.SockDrops += snap.Transport.RecvQueueDrops
			point.RecvSyscalls += snap.Transport.RecvSyscalls
			point.SendSyscalls += snap.Transport.SendSyscalls
			datagrams += snap.Transport.DatagramsIn + snap.Transport.DatagramsOut
			recvBatchSum += snap.Transport.RecvBatch.Sum
			recvBatchCnt += snap.Transport.RecvBatch.Count
			sendBatchSum += snap.Transport.SendBatch.Sum
			sendBatchCnt += snap.Transport.SendBatch.Count
			if m := snap.Transport.RecvBatch.Max; m > point.RecvBatchMax {
				point.RecvBatchMax = m
			}
			if m := snap.Transport.SendBatch.Max; m > point.SendBatchMax {
				point.SendBatchMax = m
			}
		}
		if c := int64(snap.Runtime.TokenRotation.Count); c > 0 {
			rotationNs += snap.Runtime.TokenRotation.MeanNs * c
			rotations += c
		}
	}
	if rotations > 0 {
		point.TokenRotationUs = float64(rotationNs) / float64(rotations) / 1e3
	}
	if rounds := float64(point.TokensHandled) / float64(len(ring)); rounds > 0 {
		point.MsgsPerRound = float64(sent) / rounds
	}
	if datagrams > 0 {
		point.SyscallsPerMsg = float64(point.RecvSyscalls+point.SendSyscalls) / float64(datagrams)
	}
	if elapsed > 0 {
		point.MsgsPerSec = float64(sent) / elapsed
	}
	if recvBatchCnt > 0 {
		point.RecvBatchMean = float64(recvBatchSum) / float64(recvBatchCnt)
	}
	if sendBatchCnt > 0 {
		point.SendBatchMean = float64(sendBatchSum) / float64(sendBatchCnt)
	}

	rep := metricsReport{
		JSONReport: bench.JSONReport{
			Benchmark:     "ringperf",
			Title:         "library-based deployment on a real transport",
			GeneratedUnix: time.Now().Unix(),
			Points:        []bench.JSONPoint{point},
		},
		NodeMetrics: snaps,
	}
	path := filepath.Join(dir, "BENCH_ringperf.json")
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", point, err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", point, err
	}
	return path, point, nil
}

// buildTransports creates one transport per member on the chosen backend.
func buildTransports(kind string, members []accelring.ParticipantID) ([]accelring.Transport, error) {
	switch kind {
	case "mem":
		network := accelring.NewMemoryNetwork(time.Now().UnixNano())
		out := make([]accelring.Transport, len(members))
		for i, id := range members {
			out[i] = network.Endpoint(id)
		}
		return out, nil
	case "udp":
		peers := make(map[accelring.ParticipantID]accelring.Peer, len(members))
		for _, id := range members {
			dp, err := freePort()
			if err != nil {
				return nil, err
			}
			tp, err := freePort()
			if err != nil {
				return nil, err
			}
			peers[id] = accelring.Peer{Host: "127.0.0.1", DataPort: dp, TokenPort: tp}
		}
		out := make([]accelring.Transport, len(members))
		for i, id := range members {
			tr, err := accelring.NewUDPTransport(accelring.UDPOptions{ID: id, Peers: peers})
			if err != nil {
				return nil, err
			}
			out[i] = tr
		}
		return out, nil
	default:
		return nil, fmt.Errorf("unknown -transport %q (udp or mem)", kind)
	}
}

func freePort() (int, error) {
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	return c.LocalAddr().(*net.UDPAddr).Port, nil
}
