package daemon

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accelring"
	"accelring/internal/client"
	"accelring/internal/fanout"
	"accelring/internal/ipc"
	"accelring/internal/wire"
)

// rawClient speaks the IPC protocol directly over a net.Conn, with no
// receive goroutine: unlike the client library (which always drains into a
// large buffer, absorbing backpressure), a rawClient that stops reading
// exerts real backpressure on the daemon — exactly what the slow-client
// policies are about.
type rawClient struct {
	t       *testing.T
	conn    net.Conn
	private string
}

func rawConnect(t *testing.T, sock, name string) *rawClient {
	t.Helper()
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatalf("raw dial %s: %v", sock, err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := ipc.WriteFrame(conn, ipc.CmdConnect, ipc.PutString(nil, name)); err != nil {
		t.Fatalf("raw connect frame: %v", err)
	}
	typ, body, err := ipc.ReadFrame(conn)
	if err != nil || typ != ipc.EvtWelcome {
		t.Fatalf("raw welcome: typ=%d err=%v", typ, err)
	}
	private, _, err := ipc.GetString(body)
	if err != nil {
		t.Fatalf("raw welcome body: %v", err)
	}
	return &rawClient{t: t, conn: conn, private: private}
}

func (r *rawClient) subscribe(group string) {
	r.t.Helper()
	if err := ipc.WriteFrame(r.conn, ipc.CmdSubscribe, ipc.PutString(nil, group)); err != nil {
		r.t.Fatalf("raw subscribe: %v", err)
	}
}

// readFrames reads up to n frames, returning early on any error.
func (r *rawClient) readFrames(n int) (int, error) {
	for i := 0; i < n; i++ {
		if _, _, err := ipc.ReadFrame(r.conn); err != nil {
			return i, err
		}
	}
	return n, nil
}

// waitSubscriptions polls the daemon's stats through an observer client
// until the named client's subscription count reaches want. Subscribe is
// fire-and-forget, so tests need this barrier before publishing.
func waitSubscriptions(t *testing.T, via *client.Conn, member string, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		snap, err := via.Stats()
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		if snap.Clients[member].Subscriptions == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s never reached %d subscriptions", member, want)
}

// countMessages drains messages until max are seen or the window elapses,
// without failing the test — for asserting that delivery stalls.
func countMessages(c *client.Conn, window time.Duration, max int) int {
	timer := time.After(window)
	n := 0
	for n < max {
		select {
		case ev, ok := <-c.Events():
			if !ok {
				return n
			}
			if _, isMsg := ev.(client.Message); isMsg {
				n++
			}
		case <-timer:
			return n
		}
	}
	return n
}

// TestShedPolicyIsolatesSlowClient: under PolicyShed a subscriber that
// stops reading has its overflow dropped — bounded backlog, shed counter
// ticking, nobody disconnected — while the healthy subscribers keep
// receiving their groups' streams. Subscriber i subscribes to interests
// consecutive groups starting at group i (rotated by index); subscriber 0
// never reads. The serving-scale row is the daemon at a thousand raw
// subscribers; the daemon reports per-client stats only up to
// statsClientCap sessions, so delivery is counted on the client side.
func TestShedPolicyIsolatesSlowClient(t *testing.T) {
	servingScale := 1000
	if testing.Short() {
		servingScale = 128
	}
	for _, tc := range []struct {
		name                           string
		subscribers, groups, interests int
		sent                           int
		minHealthy                     float64 // healthy delivered / expected
	}{
		{name: "one-group", subscribers: 2, groups: 1, interests: 1, sent: 400, minHealthy: 1},
		{name: "serving-scale", subscribers: servingScale, groups: 64, interests: 16, sent: 1024, minHealthy: 0.95},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const depth = 64
			c := startDaemonsWith(t, 1, accelring.NewMemoryNetwork(21),
				fanout.Config{QueueDepth: depth, Policy: fanout.PolicyShed})
			group := func(g int) string { return fmt.Sprintf("feed%02d", g) }

			// The publisher taps every group and paces the flood on its own
			// deliveries: an unpaced burst can overrun even healthy queues on
			// a slow box, and the shed policy would rightly shed them too.
			pub := c.connect(0, "pub")
			for g := 0; g < tc.groups; g++ {
				if err := pub.Subscribe(group(g)); err != nil {
					t.Fatal(err)
				}
			}
			// Registered before the connections, so it runs after their
			// cleanups have closed them and the readers have returned.
			var readers sync.WaitGroup
			t.Cleanup(readers.Wait)
			subs := make([]*rawClient, tc.subscribers)
			for i := range subs {
				subs[i] = rawConnect(t, c.socks[0], fmt.Sprintf("s%d", i))
				for j := 0; j < tc.interests; j++ {
					subs[i].subscribe(group((i + j) % tc.groups))
				}
			}
			waitTotalSubscriptions(t, pub, tc.subscribers*tc.interests+tc.groups)

			// From here on subs[0] never reads: its socket buffer fills, its
			// writer wedges, its queue fills, and the tier starts shedding.
			delivered := make([]atomic.Uint64, tc.subscribers)
			for i := 1; i < tc.subscribers; i++ {
				readers.Add(1)
				go func(i int) {
					defer readers.Done()
					rd := ipc.NewReader(subs[i].conn)
					for {
						typ, _, err := rd.Next()
						if err != nil {
							return
						}
						if typ == ipc.EvtMessage {
							delivered[i].Add(1)
						}
					}
				}(i)
			}

			payload := bytes.Repeat([]byte("x"), 2048)
			sentTo := make([]uint64, tc.groups)
			for m := 0; m < tc.sent; m++ {
				g := m % tc.groups
				if err := pub.Multicast(wire.ServiceAgreed, payload, group(g)); err != nil {
					t.Fatal(err)
				}
				sentTo[g]++
				collectMessages(t, pub, 1)
			}

			var expected uint64
			for i := 1; i < tc.subscribers; i++ {
				for j := 0; j < tc.interests; j++ {
					expected += sentTo[(i+j)%tc.groups]
				}
			}
			healthy := func() uint64 {
				var n uint64
				for i := 1; i < tc.subscribers; i++ {
					n += delivered[i].Load()
				}
				return n
			}
			// Let the healthy readers drain: they catch up, or stop moving
			// for a second.
			got := healthy()
			for idle := 0; got < expected && idle < 50; idle++ {
				time.Sleep(20 * time.Millisecond)
				if cur := healthy(); cur != got {
					got, idle = cur, 0
				}
			}
			if ratio := float64(got) / float64(expected); ratio < tc.minHealthy {
				t.Fatalf("healthy subscribers got %d of %d messages (%.3f), want >= %.2f", got, expected, ratio, tc.minHealthy)
			}

			// Every healthy copy shed is also missing from got, so shedding
			// beyond that is subs[0]'s.
			snap := c.daemons[0].Snapshot()
			t.Logf("healthy %d/%d, shed %d, max backlog %d", got, expected, snap.Shed, snap.MaxBacklog)
			if snap.Policy != "shed" {
				t.Fatalf("fanout policy = %q, want shed", snap.Policy)
			}
			if snap.Shed <= expected-got {
				t.Fatalf("slow subscriber never shed: %d shed, %d healthy copies missing", snap.Shed, expected-got)
			}
			if snap.Disconnects != 0 {
				t.Fatalf("shed policy disconnected %d clients", snap.Disconnects)
			}
			if snap.MaxBacklog > depth {
				t.Fatalf("backlog %d exceeds queue depth %d", snap.MaxBacklog, depth)
			}
		})
	}
}

// waitTotalSubscriptions polls the daemon's stats until its subscription
// total reaches want: past statsClientCap sessions the per-client counts
// waitSubscriptions reads are not reported.
func waitTotalSubscriptions(t *testing.T, via *client.Conn, want int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		snap, err := via.Stats()
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		if snap.Subscriptions == want {
			return
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("subscriptions stuck at %d of %d", snap.Subscriptions, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDisconnectPolicyDropsSlowClient: the default Spread-style policy
// severs a subscriber that exceeds its queue, keeping the rest of the
// daemon flowing.
func TestDisconnectPolicyDropsSlowClient(t *testing.T) {
	c := startDaemonsWith(t, 1, accelring.NewMemoryNetwork(23),
		fanout.Config{QueueDepth: 16, Policy: fanout.PolicyDisconnect})

	healthy := c.connect(0, "healthy")
	if err := healthy.Join("feed"); err != nil {
		t.Fatal(err)
	}
	waitView(t, healthy, "feed", 1)

	slow := rawConnect(t, c.socks[0], "slow")
	slow.subscribe("feed")
	waitSubscriptions(t, healthy, slow.private, 1)

	// Pace the flood on the healthy member's own deliveries so only the
	// non-reading subscriber accumulates backlog: with a 16-frame queue an
	// unpaced publisher would overflow the healthy client too.
	const sent = 400
	payload := bytes.Repeat([]byte("z"), 4096)
	for i := 0; i < sent; i++ {
		if err := healthy.Multicast(wire.ServiceAgreed, payload, "feed"); err != nil {
			t.Fatal(err)
		}
		collectMessages(t, healthy, 1)
	}

	// The slow client's connection must be severed by the daemon: reading
	// everything buffered eventually hits EOF, well before reading the
	// full stream.
	slow.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	n, err := slow.readFrames(sent)
	if err == nil {
		t.Fatal("slow client read the entire stream; expected the daemon to disconnect it")
	}
	t.Logf("slow client severed after %d frames: %v", n, err)

	deadline := time.Now().Add(10 * time.Second)
	for {
		snap, serr := healthy.Stats()
		if serr != nil {
			t.Fatal(serr)
		}
		if snap.Disconnects >= 1 && snap.Sessions == 1 {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("daemon never recorded the disconnect: %+v", snap)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The daemon stays fully functional after shedding the client.
	if err := healthy.Multicast(wire.ServiceAgreed, []byte("after"), "feed"); err != nil {
		t.Fatal(err)
	}
	msgs := collectMessages(t, healthy, 1)
	if string(msgs[0].Payload) != "after" {
		t.Fatalf("got %q after disconnect", msgs[0].Payload)
	}
}

// TestDisconnectDuringDeliveryBurst is the regression test for the stale
// routing-state hazard: a client disconnecting in the middle of a fan-out
// burst must neither corrupt routing for the survivors nor wedge the
// daemon. (The old implementation reused a routed map across fan-outs and
// could leave a stale entry when a session unregistered mid-burst; the
// tier's stamp-generation dedup owns that state under its own lock.)
// Run with -race: the daemon package is in CI's race job.
func TestDisconnectDuringDeliveryBurst(t *testing.T) {
	c := startDaemonsWith(t, 1, accelring.NewMemoryNetwork(24),
		fanout.Config{QueueDepth: 4096, Policy: fanout.PolicyShed})

	survivors := make([]*client.Conn, 3)
	for i := range survivors {
		survivors[i] = c.connect(0, fmt.Sprintf("sur%d", i))
		if err := survivors[i].Join("burst"); err != nil {
			t.Fatal(err)
		}
	}
	victim := c.connect(0, "victim")
	if err := victim.Join("burst"); err != nil {
		t.Fatal(err)
	}
	for _, s := range survivors {
		waitView(t, s, "burst", 4)
	}
	waitView(t, victim, "burst", 4)

	const sent = 300
	sendErr := make(chan error, 1)
	go func() {
		for i := 0; i < sent; i++ {
			if err := survivors[0].Multicast(wire.ServiceAgreed, []byte(fmt.Sprintf("m%d", i)), "burst"); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	// Yank the victim mid-burst.
	time.Sleep(5 * time.Millisecond)
	victim.Close()
	if err := <-sendErr; err != nil {
		t.Fatalf("publisher: %v", err)
	}

	// Every survivor still receives the complete burst, in one order.
	streams := make([][]client.Message, len(survivors))
	for i, s := range survivors {
		streams[i] = collectMessages(t, s, sent)
	}
	for i := 1; i < len(streams); i++ {
		for k := range streams[0] {
			if string(streams[i][k].Payload) != string(streams[0][k].Payload) {
				t.Fatalf("survivors 0 and %d disagree at %d: %q vs %q",
					i, k, streams[0][k].Payload, streams[i][k].Payload)
			}
		}
	}
	// The group converges to the survivors (collectMessages consumed the
	// view events, so check through stats) and the daemon keeps serving.
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap, err := survivors[0].Stats()
		if err != nil {
			t.Fatal(err)
		}
		if _, gone := snap.Clients[victim.PrivateName()]; !gone && snap.Sessions == len(survivors) {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("victim session never dropped: %+v", snap)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := survivors[1].Multicast(wire.ServiceAgreed, []byte("post"), "burst"); err != nil {
		t.Fatal(err)
	}
	for _, s := range survivors {
		msgs := collectMessages(t, s, 1)
		if string(msgs[0].Payload) != "post" {
			t.Fatalf("post-disconnect message = %q", msgs[0].Payload)
		}
	}
}

// TestSubscribeDeliversWithoutMembership: an explicit subscription taps a
// group's ordered stream without joining it — no membership views carry
// the subscriber, and unsubscribing stops delivery.
func TestSubscribeDeliversWithoutMembership(t *testing.T) {
	c := startDaemons(t, 2)
	member := c.connect(0, "member")
	observer := c.connect(0, "observer")
	remote := c.connect(1, "remote")

	if err := member.Join("topic"); err != nil {
		t.Fatal(err)
	}
	waitView(t, member, "topic", 1)
	if err := observer.Subscribe("topic"); err != nil {
		t.Fatal(err)
	}
	waitSubscriptions(t, member, observer.PrivateName(), 1)

	// A remote sender's message reaches member and observer identically.
	if err := remote.Multicast(wire.ServiceAgreed, []byte("one"), "topic"); err != nil {
		t.Fatal(err)
	}
	if got := collectMessages(t, member, 1); string(got[0].Payload) != "one" {
		t.Fatalf("member got %q", got[0].Payload)
	}
	got := collectMessages(t, observer, 1)
	if string(got[0].Payload) != "one" {
		t.Fatalf("observer got %q", got[0].Payload)
	}
	if got[0].Sender != remote.PrivateName() {
		t.Fatalf("observer saw sender %q", got[0].Sender)
	}

	// The observer never entered the group: the daemon still tracks one
	// group with one member, and no new view was emitted (the only view
	// the member ever saw is the single-member one consumed above).
	snap, err := member.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Groups != 1 {
		t.Fatalf("groups = %d, want 1", snap.Groups)
	}

	if err := observer.Unsubscribe("topic"); err != nil {
		t.Fatal(err)
	}
	waitSubscriptions(t, member, observer.PrivateName(), 0)
	if err := remote.Multicast(wire.ServiceAgreed, []byte("two"), "topic"); err != nil {
		t.Fatal(err)
	}
	if got := collectMessages(t, member, 1); string(got[0].Payload) != "two" {
		t.Fatalf("member got %q", got[0].Payload)
	}
	// The observer must not see the post-unsubscribe message.
	if n := countMessages(observer, 300*time.Millisecond, 1); n != 0 {
		t.Fatalf("observer received %d messages after unsubscribing", n)
	}
}
