// Command ringperf benchmarks the library-based deployment on a real
// transport, mirroring the paper's library-prototype measurements: it runs
// a ring of in-process nodes over UDP loopback sockets (or the in-memory
// transport), injects fixed-size messages at a target aggregate rate, and
// prints the rate it actually submitted, achieved throughput over the send
// window, delivery latency, allocations and socket calls per message. It is
// an interactive open-loop tool and writes no file; tracked performance
// figures come from `go run -C benchmark .`.
//
//	ringperf -nodes 4 -rate 200 -size 1350 -duration 5s -protocol accelerated
//	ringperf -transport mem -rate 500 -service safe
//	ringperf -engine ringpaxos -rate 100    # Ring Paxos comparison baseline
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"accelring"
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
	sendWindow := time.Since(start)
	time.Sleep(300 * time.Millisecond) // drain in-flight deliveries
	close(stop)
	wg.Wait()

	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	poolAfter := accelring.BufferPoolStats()
	allocsPerMsg := 0.0
	if n := sent.Load(); n > 0 {
		allocsPerMsg = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(n)
	}

	sum := summarize(sent.Load(), received.Load(), *nodes, *size, sendWindow)
	fmt.Printf("sent %d messages; %d deliveries (%.1f%% of expected)\n",
		sent.Load(), received.Load(), sum.deliveredPct)
	fmt.Printf("submitted %.0f of %.0f msg/s/node target\n", sum.submittedPerNode, perNodeMsgs)
	fmt.Printf("achieved %.1f Mbps aggregate payload\n", sum.achievedMbps)
	fmt.Printf("allocs/msg %.1f | bufpool hits %d misses %d puts %d discards %d\n",
		allocsPerMsg, poolAfter.Hits-poolBefore.Hits, poolAfter.Misses-poolBefore.Misses,
		poolAfter.Puts-poolBefore.Puts, poolAfter.Discards-poolBefore.Discards)
	mu.Lock()
	defer mu.Unlock()
	if lat.Count() > 0 {
		fmt.Printf("latency: mean=%v p50=%v p99=%v max=%v (n=%d)\n",
			lat.Mean(), lat.Percentile(50), lat.Percentile(99), lat.Max(), lat.Count())
	}
	if err := printSyscalls(ring); err != nil {
		logger.Print(err)
		return 1
	}
	return 0
}

// summary is the arithmetic behind the report lines.
type summary struct {
	achievedMbps     float64
	submittedPerNode float64 // msg/s each node actually submitted
	deliveredPct     float64
}

// summarize derives the rates over the send window — the time the senders
// were submitting, not the drain that follows it — and the delivery share
// from the counts taken after the drain (every node delivers every message).
func summarize(sent, received uint64, nodes, size int, sendWindow time.Duration) summary {
	var s summary
	if secs := sendWindow.Seconds(); secs > 0 && nodes > 0 {
		s.achievedMbps = float64(sent) * float64(size) * 8 / 1e6 / secs
		s.submittedPerNode = float64(sent) / float64(nodes) / secs
	}
	if want := sent * uint64(nodes); want > 0 {
		s.deliveredPct = 100 * float64(received) / float64(want)
	}
	return s
}

// printSyscalls sums every node's transport counters into the dataplane
// line: socket calls per datagram moved and the mean batch per call.
// Transports that make no syscalls (mem) print nothing.
func printSyscalls(ring []*accelring.Node) error {
	var recvSys, sendSys, datagrams, recvSum, recvCnt, sendSum, sendCnt uint64
	for _, node := range ring {
		snap, err := node.Metrics()
		if err != nil {
			return fmt.Errorf("metrics at %s: %w", node.ID(), err)
		}
		t := snap.Transport
		if t == nil {
			continue
		}
		recvSys += t.RecvSyscalls
		sendSys += t.SendSyscalls
		datagrams += t.DatagramsIn + t.DatagramsOut
		recvSum += t.RecvBatch.Sum
		recvCnt += t.RecvBatch.Count
		sendSum += t.SendBatch.Sum
		sendCnt += t.SendBatch.Count
	}
	if recvSys+sendSys == 0 {
		return nil
	}
	fmt.Printf("syscalls/msg %.3f (recv %d + send %d syscalls; batch mean recv=%.1f send=%.1f)\n",
		ratio(recvSys+sendSys, datagrams), recvSys, sendSys, ratio(recvSum, recvCnt), ratio(sendSum, sendCnt))
	return nil
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
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
