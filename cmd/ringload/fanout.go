package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"accelring"
	"accelring/internal/client"
	"accelring/internal/daemon"
	"accelring/internal/fanout"
	"accelring/internal/ipc"
	"accelring/internal/wire"
)

// fanoutOpts configures the mock-client fan-out mode: a self-hosted
// single-node ring plus daemon, with -mock-clients raw IPC subscribers
// exercising the daemon's delivery tier at serving scale.
type fanoutOpts struct {
	clients     int
	groups      int
	interest    float64
	slowClients int
	slowFactor  int
	policy      string
	queue       int
	rate        float64
	size        int
	duration    time.Duration

	requireHealthy float64
}

// fanoutResult is what one scenario measured.
type fanoutResult struct {
	sent            int
	expected        uint64
	delivered       uint64
	deliveredPerSec float64
	// healthyRatio is delivered/expected over the non-slow subscribers:
	// 1.0 means the stragglers cost the healthy audience nothing.
	healthyRatio float64
	shed         uint64
	disconnects  uint64
	maxBacklog   int
}

func runFanout(logger *log.Logger, o fanoutOpts) int {
	if o.interest <= 0 || o.interest > 1 {
		logger.Printf("bad -interest %v (want 0 < f <= 1)", o.interest)
		return 2
	}
	if o.groups < 1 {
		logger.Printf("bad -mock-groups %d (want >= 1)", o.groups)
		return 2
	}
	// Every mock client is one socket on each side, plus headroom.
	raiseFDLimit(logger, uint64(2*o.clients+512))

	res, err := fanoutScenario(logger, o)
	if err != nil {
		logger.Printf("scenario clients=%d interest=%.2f: %v", o.clients, o.interest, err)
		return 1
	}
	fmt.Printf("clients=%d groups=%d interest=%.2f policy=%s: sent %d, delivered %d/%d (%.0f msg/s), healthy %.3f, shed %d, disconnects %d, maxBacklog %d\n",
		o.clients, o.groups, o.interest, o.policy, res.sent,
		res.delivered, res.expected, res.deliveredPerSec, res.healthyRatio,
		res.shed, res.disconnects, res.maxBacklog)
	if res.healthyRatio < o.requireHealthy {
		logger.Printf("healthy ratio %.3f below required %.3f", res.healthyRatio, o.requireHealthy)
		return 1
	}
	return 0
}

// mockClient is one raw IPC subscriber: unlike the client library it has
// no buffered event channel, so a slow reader exerts real backpressure.
type mockClient struct {
	conn      net.Conn
	private   string
	interests []int // group indices
	slowPause time.Duration

	delivered atomic.Uint64
}

func (m *mockClient) readLoop(wg *sync.WaitGroup) {
	defer wg.Done()
	rd := ipc.NewReader(m.conn)
	for {
		typ, _, err := rd.Next()
		if err != nil {
			return
		}
		if typ == ipc.EvtMessage {
			m.delivered.Add(1)
			if m.slowPause > 0 {
				time.Sleep(m.slowPause)
			}
		}
	}
}

func fanoutScenario(logger *log.Logger, o fanoutOpts) (fanoutResult, error) {
	policy, err := fanout.ParsePolicy(o.policy)
	if err != nil {
		return fanoutResult{}, err
	}

	// Self-hosted single-node ring and daemon. Clients normally attach
	// over a temp Unix socket, the production transport; at serving scale
	// the paired socket fds (one per side per client, all in this one
	// process) outgrow RLIMIT_NOFILE, so beyond the fd budget the
	// scenario switches to in-memory pipes, which cost no fds and carry
	// the same synchronous backpressure.
	net0 := accelring.NewMemoryNetwork(1)
	node, err := accelring.Start(accelring.Options{
		ID:        1,
		Transport: net0.Endpoint(1),
		Members:   []accelring.ParticipantID{1},
	})
	if err != nil {
		return fanoutResult{}, err
	}
	var ln net.Listener
	var dial func() (net.Conn, error)
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err == nil && uint64(2*o.clients+512) > lim.Cur {
		pl := newPipeListener()
		ln = pl
		dial = pl.Dial
		logger.Printf("%d clients need ~%d fds but the limit is %d; using in-memory pipe transport",
			o.clients, 2*o.clients+512, lim.Cur)
	} else {
		dir, err := os.MkdirTemp("", "ringload-fanout")
		if err != nil {
			node.Close()
			return fanoutResult{}, err
		}
		defer os.RemoveAll(dir)
		sock := filepath.Join(dir, "d.sock")
		ln, err = net.Listen("unix", sock)
		if err != nil {
			node.Close()
			return fanoutResult{}, err
		}
		dial = func() (net.Conn, error) {
			// Retry transient dial failures under accept-queue pressure.
			var conn net.Conn
			var err error
			for attempt := 0; attempt < 50; attempt++ {
				conn, err = net.Dial("unix", sock)
				if err == nil {
					return conn, nil
				}
				time.Sleep(time.Duration(10+attempt) * time.Millisecond)
			}
			return nil, err
		}
	}
	d, err := daemon.New(daemon.Config{
		Node:     node,
		Listener: ln,
		Fanout:   fanout.Config{QueueDepth: o.queue, Policy: policy},
	})
	if err != nil {
		node.Close()
		return fanoutResult{}, err
	}
	defer d.Close()

	// Interest assignment: client i subscribes to k of the G groups,
	// rotated by i so each group carries ~N·k/G subscribers.
	k := int(o.interest*float64(o.groups) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > o.groups {
		k = o.groups
	}
	groupName := func(g int) string { return fmt.Sprintf("fan%04d", g) }

	// The slow clients' pause is slowFactor× their expected per-message
	// inter-arrival time, making them slowFactor× too slow to keep up.
	perClientRate := o.rate * float64(k) / float64(o.groups)
	var slowPause time.Duration
	if o.slowFactor > 1 && perClientRate > 0 {
		slowPause = time.Duration(float64(time.Second) * float64(o.slowFactor) / perClientRate)
		if slowPause > time.Second {
			slowPause = time.Second
		}
	}

	logger.Printf("connecting %d mock clients (%d groups, %d interests each, %d slow ×%d, policy %s, queue %d)",
		o.clients, o.groups, k, o.slowClients, o.slowFactor, policy, o.queue)
	clients := make([]*mockClient, o.clients)
	var connectWg sync.WaitGroup
	connectErr := make(chan error, 1)
	sem := make(chan struct{}, 256) // bounded connect concurrency
	for i := 0; i < o.clients; i++ {
		connectWg.Add(1)
		go func(i int) {
			defer connectWg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			m, err := connectMock(dial, i, o.groups, k)
			if err != nil {
				select {
				case connectErr <- fmt.Errorf("mock client %d: %w", i, err):
				default:
				}
				return
			}
			if i < o.slowClients {
				m.slowPause = slowPause
			}
			clients[i] = m
		}(i)
	}
	connectWg.Wait()
	select {
	case err := <-connectErr:
		return fanoutResult{}, err
	default:
	}
	var readWg sync.WaitGroup
	for _, m := range clients {
		readWg.Add(1)
		go m.readLoop(&readWg)
	}

	// Wait until the daemon has registered every subscription before
	// opening the publisher's tap.
	pubConn, err := dial()
	if err != nil {
		return fanoutResult{}, err
	}
	pub, err := client.New(pubConn, "publisher")
	if err != nil {
		return fanoutResult{}, err
	}
	defer pub.Close()
	wantSubs := o.clients * k
	for deadline := time.Now().Add(30 * time.Second); ; {
		snap, err := pub.Stats()
		if err != nil {
			return fanoutResult{}, err
		}
		if snap.Subscriptions >= wantSubs {
			break
		}
		if !time.Now().Before(deadline) {
			return fanoutResult{}, fmt.Errorf("subscriptions stuck at %d/%d", snap.Subscriptions, wantSubs)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Publish round-robin across groups at the target rate, batching
	// ticks when the interval would outrun the timer.
	payload := make([]byte, o.size)
	batch := 1
	interval := time.Duration(float64(time.Second) / o.rate)
	for interval < time.Millisecond {
		batch *= 2
		interval *= 2
	}
	sentPerGroup := make([]int, o.groups)
	sent := 0
	start := time.Now()
	ticker := time.NewTicker(interval)
	for time.Since(start) < o.duration {
		<-ticker.C
		for b := 0; b < batch; b++ {
			g := sent % o.groups
			if err := pub.Multicast(wire.ServiceAgreed, payload, groupName(g)); err != nil {
				ticker.Stop()
				return fanoutResult{}, fmt.Errorf("multicast: %v", err)
			}
			sentPerGroup[g]++
			sent++
		}
	}
	ticker.Stop()
	elapsed := time.Since(start)

	// Let deliveries drain: totals settle or the drain window closes
	// (slow clients under the block policy may never settle by design).
	sum := func() uint64 {
		var total uint64
		for _, m := range clients {
			if m != nil {
				total += m.delivered.Load()
			}
		}
		return total
	}
	last := sum()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		time.Sleep(300 * time.Millisecond)
		cur := sum()
		if cur == last {
			break
		}
		last = cur
	}

	snap, err := pub.Stats()
	if err != nil {
		return fanoutResult{}, err
	}
	var nodeSnap accelring.MetricsSnapshot
	maxBacklog := 0
	if err := json.Unmarshal(snap.Node, &nodeSnap); err == nil && nodeSnap.Fanout != nil {
		maxBacklog = nodeSnap.Fanout.MaxBacklog
	}

	// Per-client expectation from the actual assignment — exact, not a
	// fraction-of-total approximation.
	var expected, delivered, healthyExp, healthyDel uint64
	for i, m := range clients {
		if m == nil {
			continue
		}
		var exp uint64
		for _, g := range m.interests {
			exp += uint64(sentPerGroup[g])
		}
		del := m.delivered.Load()
		expected += exp
		delivered += del
		if i >= o.slowClients {
			healthyExp += exp
			healthyDel += del
		}
	}
	healthyRatio := 1.0
	if healthyExp > 0 {
		healthyRatio = float64(healthyDel) / float64(healthyExp)
	}

	for _, m := range clients {
		if m != nil {
			m.conn.Close()
		}
	}
	readWg.Wait()

	return fanoutResult{
		sent:            sent,
		expected:        expected,
		delivered:       delivered,
		deliveredPerSec: float64(delivered) / elapsed.Seconds(),
		healthyRatio:    healthyRatio,
		shed:            snap.Shed,
		disconnects:     snap.Disconnects,
		maxBacklog:      maxBacklog,
	}, nil
}

// connectMock attaches one raw IPC client and subscribes it to its k
// interest groups (rotated by index). The handshake carries a deadline so
// a wedged daemon surfaces as an error instead of a silent hang.
func connectMock(dial func() (net.Conn, error), idx, groups, k int) (*mockClient, error) {
	conn, err := dial()
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if err := ipc.WriteFrame(conn, ipc.CmdConnect, ipc.PutString(nil, fmt.Sprintf("m%d", idx))); err != nil {
		conn.Close()
		return nil, err
	}
	typ, body, err := ipc.ReadFrame(conn)
	if err != nil || typ != ipc.EvtWelcome {
		conn.Close()
		return nil, fmt.Errorf("welcome: typ=%d err=%v", typ, err)
	}
	conn.SetDeadline(time.Time{})
	private, _, err := ipc.GetString(body)
	if err != nil {
		conn.Close()
		return nil, err
	}
	m := &mockClient{conn: conn, private: private, interests: make([]int, 0, k)}
	for j := 0; j < k; j++ {
		g := (idx + j) % groups
		if err := ipc.WriteFrame(conn, ipc.CmdSubscribe, ipc.PutString(nil, fmt.Sprintf("fan%04d", g))); err != nil {
			conn.Close()
			return nil, err
		}
		m.interests = append(m.interests, g)
	}
	return m, nil
}

// pipeListener is an in-process net.Listener over net.Pipe: Dial hands
// one pipe end to Accept and returns the other. Connections cost no file
// descriptors, so mock-client counts can exceed RLIMIT_NOFILE; the pipe
// is synchronous, so a stalled reader blocks the daemon's writer exactly
// like a full socket buffer.
type pipeListener struct {
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{ch: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) Dial() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.ch <- server:
		return client, nil
	case <-l.done:
		client.Close()
		server.Close()
		return nil, net.ErrClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// raiseFDLimit lifts RLIMIT_NOFILE toward need; tens of thousands of mock
// clients are tens of thousands of sockets on each side.
func raiseFDLimit(logger *log.Logger, need uint64) {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil || lim.Cur >= need {
		return
	}
	want := need
	if want > lim.Max {
		want = lim.Max
	}
	lim.Cur = want
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		logger.Printf("cannot raise fd limit to %d: %v (continuing)", want, err)
	} else if want < need {
		logger.Printf("fd limit capped at hard max %d (wanted %d); large scenarios fall back to pipes", want, need)
	}
}
