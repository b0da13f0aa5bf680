// Command ringload is a load generator and latency probe for a running
// ringd deployment: it connects to a local daemon, joins a benchmark
// group, injects fixed-size messages at a target rate, and reports
// delivered throughput and latency percentiles for messages it originated
// (timestamps ride in the payload, so any number of ringload instances can
// run against the same group from different daemons — this mirrors the
// paper's benchmark clients).
//
// Example, 8 daemons each with one sender at 100 Mbps aggregate / 8:
//
//	ringload -socket /tmp/ringd.sock -name probe1 -rate 1157 -size 1350 -duration 10s -service agreed
//
// With -mock-clients N it instead benchmarks the daemon's client fan-out
// tier at serving scale: it self-hosts a single-node ring plus daemon,
// connects N raw IPC subscribers spread across -mock-groups groups (each
// interested in an -interest fraction), optionally forces some of them
// -slow-factor× too slow, floods the groups at -rate, and reports
// delivered throughput, healthy-client delivery ratio and shed counts
// (-require-healthy turns the ratio into the exit status):
//
//	ringload -mock-clients 10000 -mock-groups 64 -interest 0.25 \
//	    -slow-clients 1 -slow-factor 100 -fanout-policy shed \
//	    -rate 2000 -duration 10s
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"accelring/internal/client"
	"accelring/internal/metrics"
	"accelring/internal/wire"
)

func main() {
	os.Exit(run())
}

func run() int {
	socket := flag.String("socket", "/tmp/ringd.sock", "daemon Unix socket")
	name := flag.String("name", "ringload", "client name (unique per daemon)")
	group := flag.String("group", "bench", "benchmark group")
	rate := flag.Float64("rate", 1000, "messages per second to inject")
	size := flag.Int("size", 1350, "payload size in bytes (>= 16)")
	duration := flag.Duration("duration", 10*time.Second, "measurement duration")
	serviceFlag := flag.String("service", "agreed", "delivery service: fifo, causal, agreed or safe")
	recvOnly := flag.Bool("recv-only", false, "only receive and count; inject nothing")
	mockClients := flag.Int("mock-clients", 0, "fan-out mode: number of mock subscriber clients (0 = classic load mode)")
	mockGroups := flag.Int("mock-groups", 16, "fan-out mode: number of groups")
	interest := flag.Float64("interest", 0.25, "fan-out mode: fraction of groups each mock client subscribes to")
	slowClients := flag.Int("slow-clients", 0, "fan-out mode: how many mock clients read too slowly")
	slowFactor := flag.Int("slow-factor", 100, "fan-out mode: how many times too slow the slow clients read")
	fanoutPolicy := flag.String("fanout-policy", "shed", "fan-out mode: backpressure policy (disconnect, shed, block)")
	fanoutQueue := flag.Int("fanout-queue", 0, "fan-out mode: per-client delivery queue depth (0 = default)")
	requireHealthy := flag.Float64("require-healthy", 0, "fan-out mode: fail unless the healthy delivery ratio reaches this (e.g. 0.99)")
	connectWait := flag.Duration("connect-wait", 0, "retry the initial daemon connection with capped backoff for this long (daemon may still be starting)")
	reconnect := flag.Bool("reconnect", false, "survive daemon restarts: auto-reconnect with session resume instead of exiting on connection loss")
	requireRecovery := flag.Bool("require-recovery", false, "fail unless the connection survived at least one daemon outage and delivered traffic afterwards (implies -reconnect)")
	flag.Parse()
	if *requireRecovery {
		*reconnect = true
	}

	logger := log.New(os.Stderr, "ringload: ", log.LstdFlags)
	if *mockClients > 0 {
		return runFanout(logger, fanoutOpts{
			clients:        *mockClients,
			groups:         *mockGroups,
			interest:       *interest,
			slowClients:    *slowClients,
			slowFactor:     *slowFactor,
			policy:         *fanoutPolicy,
			queue:          *fanoutQueue,
			rate:           *rate,
			size:           *size,
			duration:       *duration,
			requireHealthy: *requireHealthy,
		})
	}
	if *size < 16 {
		logger.Print("-size must be at least 16")
		return 2
	}
	var service wire.Service
	switch *serviceFlag {
	case "fifo":
		service = wire.ServiceFIFO
	case "causal":
		service = wire.ServiceCausal
	case "agreed":
		service = wire.ServiceAgreed
	case "safe":
		service = wire.ServiceSafe
	default:
		logger.Printf("unknown -service %q", *serviceFlag)
		return 2
	}

	conn, err := client.Dial("unix", *socket, *name, client.Options{
		ConnectWait: *connectWait,
		Reconnect:   *reconnect,
	})
	if err != nil {
		logger.Print(err)
		return 1
	}
	defer conn.Close()
	if err := conn.Join(*group); err != nil {
		logger.Print(err)
		return 1
	}
	logger.Printf("connected as %s, group %q, %.0f msg/s × %dB for %v",
		conn.PrivateName(), *group, *rate, *size, *duration)

	var lat metrics.Sample
	hist := metrics.NewHistogram(100*time.Microsecond, 10)
	received := 0
	recvBytes := 0
	gaps := 0
	sawReconnect := false
	recoveredTraffic := false
	done := make(chan struct{})

	go func() {
		defer close(done)
		for ev := range conn.Events() {
			switch m := ev.(type) {
			case client.Message:
				received++
				recvBytes += len(m.Payload)
				if sawReconnect {
					recoveredTraffic = true
				}
				if m.Sender == conn.PrivateName() && len(m.Payload) >= 8 {
					sent := int64(binary.BigEndian.Uint64(m.Payload))
					d := time.Duration(time.Now().UnixNano() - sent)
					lat.Add(d)
					hist.Observe(d)
				}
			case client.Disconnected:
				logger.Printf("disconnected: %v", m.Err)
			case client.Reconnected:
				sawReconnect = true
				logger.Printf("reconnected after %d attempts (session resumed: %v)", m.Attempts, m.Resumed)
			case client.Gap:
				gaps++
				if m.Group != "" {
					logger.Printf("gap: %d messages of group %q lost", m.Missed, m.Group)
				} else {
					logger.Print("gap: stream continuity lost (fresh session or unknown loss)")
				}
			case client.Draining:
				logger.Print("daemon draining")
			}
		}
	}()

	start := time.Now()
	if !*recvOnly {
		payload := make([]byte, *size)
		interval := time.Duration(float64(time.Second) / *rate)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for time.Since(start) < *duration {
			<-ticker.C
			binary.BigEndian.PutUint64(payload, uint64(time.Now().UnixNano()))
			if err := conn.Multicast(service, payload, *group); err != nil {
				if errors.Is(err, client.ErrReconnecting) {
					continue // daemon outage in progress; the supervisor is redialing
				}
				logger.Printf("multicast: %v", err)
				return 1
			}
		}
	} else {
		time.Sleep(*duration)
	}
	// Allow in-flight deliveries to drain.
	time.Sleep(500 * time.Millisecond)
	conn.Close()
	<-done

	elapsed := time.Since(start).Seconds()
	fmt.Printf("received %d messages (%.1f Mbps payload) in %.1fs\n",
		received, float64(recvBytes)*8/1e6/elapsed, elapsed)
	if *reconnect {
		fmt.Printf("reconnects %d resumes %d gaps %d\n", conn.Reconnects(), conn.Resumes(), gaps)
	}
	if *requireRecovery {
		if !sawReconnect || !recoveredTraffic {
			logger.Printf("recovery check FAILED: reconnected=%v traffic after reconnect=%v",
				sawReconnect, recoveredTraffic)
			return 1
		}
		logger.Print("recovery check passed")
	}
	if lat.Count() > 0 {
		fmt.Printf("self-latency: n=%d mean=%v p50=%v p99=%v max=%v\n",
			lat.Count(), lat.Mean(), lat.Percentile(50), lat.Percentile(99), lat.Max())
		fmt.Println("latency histogram:")
		for _, b := range hist.Snapshot().Buckets {
			switch {
			case b.Count == 0:
			case b.UpperNs == 0:
				fmt.Printf("  %10s  %d\n", "overflow", b.Count)
			default:
				fmt.Printf("  <%9v  %d\n", time.Duration(b.UpperNs), b.Count)
			}
		}
	}
	return 0
}
