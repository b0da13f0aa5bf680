package daemon

import (
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"accelring"
	"accelring/internal/client"
	"accelring/internal/fanout"
	"accelring/internal/wire"
)

// chaosDaemon starts a fresh single-node ring plus daemon on the given
// socket path — used repeatedly on the same path to model a daemon being
// killed and restarted by a supervisor.
func chaosDaemon(t *testing.T, sock string) *Daemon {
	t.Helper()
	node, err := accelring.Start(accelring.Options{
		ID:               1,
		Transport:        accelring.NewMemoryNetwork(29).Endpoint(1),
		Members:          []accelring.ParticipantID{1},
		TokenLossTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("node: %v", err)
	}
	ln, err := net.Listen("unix", sock)
	if err != nil {
		node.Close()
		t.Fatalf("listen: %v", err)
	}
	d, err := New(Config{Node: node, Listener: ln, Fanout: fanout.Config{HistoryDepth: 64}, ResumeWindow: 2 * time.Second})
	if err != nil {
		node.Close()
		t.Fatalf("daemon: %v", err)
	}
	return d
}

const chaosEnd = ^uint64(0)

type chaosResult struct {
	name       string
	reconnects int
	messages   int
	gotEnd     bool
	violations []string
}

// chaosSubscriber consumes one managed client's event stream until the
// END marker, checking the two delivery invariants the resilient serving
// tier promises:
//
//   - no duplicates, ever: the publisher's payload counter must be
//     strictly increasing across the whole stream, including across
//     daemon restarts;
//   - no silent gaps: within an epoch (between reported continuity
//     events — Reconnected, or a typed Gap) consecutive payloads must be
//     exactly contiguous. A hole is only acceptable when the client
//     reported the discontinuity first.
func chaosSubscriber(c *client.Conn, name string, out chan<- chaosResult) {
	res := chaosResult{name: name}
	var last uint64  // highest payload seen overall
	newEpoch := true // next message may start anywhere (boundary reported)
	var prev uint64  // previous payload within this epoch
	deadline := time.After(60 * time.Second)
	for !res.gotEnd {
		var ev client.Event
		var ok bool
		select {
		case ev, ok = <-c.Events():
			if !ok {
				res.violations = append(res.violations, "events closed before END")
				out <- res
				return
			}
		case <-deadline:
			res.violations = append(res.violations, "timed out before END")
			out <- res
			return
		}
		switch e := ev.(type) {
		case client.Message:
			if len(e.Payload) != 8 {
				continue
			}
			p := binary.BigEndian.Uint64(e.Payload)
			if p == chaosEnd {
				res.gotEnd = true
				break
			}
			res.messages++
			if res.messages > 1 && p <= last {
				res.violations = append(res.violations,
					fmt.Sprintf("duplicate or reordered payload %d after %d", p, last))
			}
			if !newEpoch && p != prev+1 {
				res.violations = append(res.violations,
					fmt.Sprintf("unreported gap: payload %d after %d", p, prev))
			}
			last, prev, newEpoch = p, p, false
		case client.Reconnected:
			res.reconnects++
			newEpoch = true
		case client.Gap:
			// Reported loss — the next payload may jump.
			newEpoch = true
		case client.Disconnected, client.View, client.Draining:
		}
	}
	out <- res
}

// TestChaosKillRestartSoak abruptly kills and restarts the daemon under a
// fleet of managed clients while a publisher keeps injecting a counter
// stream. Every client must survive every outage via auto-reconnect, and
// every delivered stream must be duplicate-free with all discontinuities
// reported as typed events.
func TestChaosKillRestartSoak(t *testing.T) {
	clients, cycles := 24, 2
	if testing.Short() {
		clients, cycles = 8, 1
	}
	sock := filepath.Join(t.TempDir(), "chaos.sock")
	d := chaosDaemon(t, sock)
	defer func() { d.Close() }()

	opts := client.Options{
		Reconnect:  true,
		BackoffMin: 10 * time.Millisecond,
		BackoffMax: 150 * time.Millisecond,
	}
	results := make(chan chaosResult, clients)
	for i := 0; i < clients; i++ {
		name := fmt.Sprintf("sub%d", i)
		c, err := client.Dial("unix", sock, name, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer c.Close()
		if err := c.Join("g"); err != nil {
			t.Fatalf("%s join: %v", name, err)
		}
		go chaosSubscriber(c, name, results)
	}

	pub, err := client.Dial("unix", sock, "pub", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	go func() { // drain the publisher's own events
		for range pub.Events() {
		}
	}()

	// The publisher advances the counter only on an accepted send; a send
	// the daemon accepted but never ordered (killed in between) is a
	// legitimate hole that every subscriber experiences at its own epoch
	// boundary.
	var counter uint64
	stopPub := make(chan struct{})
	var pubWG sync.WaitGroup
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		payload := make([]byte, 8)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopPub:
				return
			case <-tick.C:
			}
			select {
			case <-stopPub:
				return
			default:
			}
			binary.BigEndian.PutUint64(payload, counter+1)
			if err := pub.Multicast(wire.ServiceAgreed, payload, "g"); err == nil {
				counter++
			}
		}
	}()

	for cycle := 0; cycle < cycles; cycle++ {
		time.Sleep(400 * time.Millisecond) // stable traffic
		d.Close()                          // abrupt kill: no drain, no goodbye
		os.Remove(sock)
		time.Sleep(200 * time.Millisecond) // outage: clients churn in backoff
		d = chaosDaemon(t, sock)
	}
	time.Sleep(500 * time.Millisecond) // let the fleet re-establish

	// Broadcast the END marker repeatedly until every subscriber reports:
	// a straggler that reconnects late must still see it.
	endPayload := make([]byte, 8)
	binary.BigEndian.PutUint64(endPayload, chaosEnd)
	endTick := time.NewTicker(50 * time.Millisecond)
	defer endTick.Stop()
	got := 0
	all := make([]chaosResult, 0, clients)
	deadline := time.After(90 * time.Second)
	for got < clients {
		select {
		case r := <-results:
			all = append(all, r)
			got++
		case <-endTick.C:
			pub.Multicast(wire.ServiceAgreed, endPayload, "g")
		case <-deadline:
			t.Fatalf("only %d/%d subscribers finished", got, clients)
		}
	}
	close(stopPub)
	pubWG.Wait()

	totalReconnects, totalMsgs := 0, 0
	for _, r := range all {
		if !r.gotEnd {
			t.Errorf("%s: never saw END (%d msgs, %d reconnects): %v",
				r.name, r.messages, r.reconnects, r.violations)
			continue
		}
		if r.reconnects < 1 {
			t.Errorf("%s: no reconnects across %d kill cycles", r.name, cycles)
		}
		for _, v := range r.violations {
			t.Errorf("%s: %s", r.name, v)
		}
		totalReconnects += r.reconnects
		totalMsgs += r.messages
	}
	if pub.Reconnects() < uint64(cycles) {
		t.Errorf("publisher reconnects %d, want >= %d", pub.Reconnects(), cycles)
	}
	t.Logf("soak: %d clients, %d cycles, %d total msgs delivered, %d reconnects, %d published",
		clients, cycles, totalMsgs, totalReconnects, counter)
}
