package daemon

import (
	"encoding/json"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"accelring"
	"accelring/internal/client"
	"accelring/internal/fanout"
	"accelring/internal/wire"
)

// cluster is a test fixture: n daemons over one in-memory network, each
// listening on a Unix socket.
type cluster struct {
	t       *testing.T
	daemons []*Daemon
	socks   []string
}

func startDaemons(t *testing.T, n int) *cluster {
	t.Helper()
	return startDaemonsOn(t, n, accelring.NewMemoryNetwork(11))
}

// startDaemonsOn starts the cluster on a caller-prepared network, letting
// fault-injection tests configure loss, duplication and reordering.
func startDaemonsOn(t *testing.T, n int, net0 *accelring.MemoryNetwork) *cluster {
	t.Helper()
	return startDaemonsWith(t, n, net0, fanout.Config{})
}

// startDaemonsWith additionally configures the client delivery tier, for
// backpressure-policy tests, and lets tune change every node's options.
func startDaemonsWith(t *testing.T, n int, net0 *accelring.MemoryNetwork, fcfg fanout.Config, tune ...func(*accelring.Options)) *cluster {
	t.Helper()
	dir := t.TempDir()
	members := make([]accelring.ParticipantID, 0, n)
	for i := 1; i <= n; i++ {
		members = append(members, accelring.ParticipantID(i))
	}
	c := &cluster{t: t}
	for _, id := range members {
		opts := accelring.Options{
			ID:               id,
			Transport:        net0.Endpoint(id),
			Members:          members,
			TokenLossTimeout: 300 * time.Millisecond,
		}
		for _, f := range tune {
			f(&opts)
		}
		node, err := accelring.Start(opts)
		if err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
		sock := filepath.Join(dir, fmt.Sprintf("ringd-%d.sock", id))
		ln, err := net.Listen("unix", sock)
		if err != nil {
			t.Fatalf("listen %s: %v", sock, err)
		}
		d, err := New(Config{Node: node, Listener: ln, Fanout: fcfg})
		if err != nil {
			t.Fatalf("daemon %d: %v", id, err)
		}
		c.daemons = append(c.daemons, d)
		c.socks = append(c.socks, sock)
	}
	t.Cleanup(func() {
		for _, d := range c.daemons {
			d.Close()
		}
	})
	return c
}

func (c *cluster) connect(daemon int, name string) *client.Conn {
	c.t.Helper()
	conn, err := client.Connect("unix", c.socks[daemon], name)
	if err != nil {
		c.t.Fatalf("connect %s to daemon %d: %v", name, daemon, err)
	}
	c.t.Cleanup(func() { conn.Close() })
	return conn
}

// waitView blocks until the client sees a view of the group with the given
// member count.
func waitView(t *testing.T, c *client.Conn, group string, members int) client.View {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev, ok := <-c.Events():
			if !ok {
				t.Fatalf("%s: events closed waiting for view of %q", c.PrivateName(), group)
			}
			if v, isView := ev.(client.View); isView && v.Group == group && len(v.Members) == members {
				return v
			}
		case <-deadline:
			t.Fatalf("%s: no view of %q with %d members", c.PrivateName(), group, members)
		}
	}
}

// waitViews blocks until the client has seen, for every listed group, a
// view with the wanted member count (views of other groups are tolerated
// in any interleaving).
func waitViews(t *testing.T, c *client.Conn, want map[string]int) {
	t.Helper()
	got := make(map[string]int, len(want))
	satisfied := func() bool {
		for g, n := range want {
			if got[g] != n {
				return false
			}
		}
		return true
	}
	deadline := time.After(10 * time.Second)
	for !satisfied() {
		select {
		case ev, ok := <-c.Events():
			if !ok {
				t.Fatalf("%s: events closed waiting for views %v", c.PrivateName(), want)
			}
			if v, isView := ev.(client.View); isView {
				got[v.Group] = len(v.Members)
			}
		case <-deadline:
			t.Fatalf("%s: views %v never reached %v", c.PrivateName(), got, want)
		}
	}
}

// collectMessages gathers n ordered messages, skipping views.
func collectMessages(t *testing.T, c *client.Conn, n int) []client.Message {
	t.Helper()
	var out []client.Message
	deadline := time.After(15 * time.Second)
	for len(out) < n {
		select {
		case ev, ok := <-c.Events():
			if !ok {
				t.Fatalf("%s: events closed after %d/%d messages", c.PrivateName(), len(out), n)
			}
			if m, isMsg := ev.(client.Message); isMsg {
				out = append(out, m)
			}
		case <-deadline:
			t.Fatalf("%s: got %d/%d messages", c.PrivateName(), len(out), n)
		}
	}
	return out
}

func TestClientConnectAndPrivateName(t *testing.T) {
	c := startDaemons(t, 1)
	conn := c.connect(0, "alice")
	if want := "alice@0.0.0.1"; conn.PrivateName() != want {
		t.Fatalf("private name = %q, want %q", conn.PrivateName(), want)
	}
}

func TestGroupMessageTotalOrder(t *testing.T) {
	c := startDaemons(t, 3)
	a := c.connect(0, "alice")
	b := c.connect(1, "bob")
	d := c.connect(2, "carol")

	for _, conn := range []*client.Conn{a, b, d} {
		if err := conn.Join("room"); err != nil {
			t.Fatal(err)
		}
	}
	for _, conn := range []*client.Conn{a, b, d} {
		waitView(t, conn, "room", 3)
	}

	const perClient = 20
	for i := 0; i < perClient; i++ {
		for _, conn := range []*client.Conn{a, b, d} {
			if err := conn.Multicast(wire.ServiceAgreed,
				[]byte(fmt.Sprintf("%s-%d", conn.PrivateName(), i)), "room"); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := perClient * 3
	streams := [][]client.Message{
		collectMessages(t, a, want),
		collectMessages(t, b, want),
		collectMessages(t, d, want),
	}
	for i := 1; i < len(streams); i++ {
		for k := range streams[0] {
			if string(streams[i][k].Payload) != string(streams[0][k].Payload) {
				t.Fatalf("clients disagree at position %d: %q vs %q",
					k, streams[i][k].Payload, streams[0][k].Payload)
			}
		}
	}
}

func TestOpenGroupSemantics(t *testing.T) {
	c := startDaemons(t, 2)
	member := c.connect(0, "member")
	outsider := c.connect(1, "outsider")

	if err := member.Join("topic"); err != nil {
		t.Fatal(err)
	}
	waitView(t, member, "topic", 1)

	// The outsider sends without joining.
	if err := outsider.Multicast(wire.ServiceAgreed, []byte("hello from outside"), "topic"); err != nil {
		t.Fatal(err)
	}
	msgs := collectMessages(t, member, 1)
	if string(msgs[0].Payload) != "hello from outside" {
		t.Fatalf("got %q", msgs[0].Payload)
	}
	if msgs[0].Sender != outsider.PrivateName() {
		t.Fatalf("sender = %q, want %q", msgs[0].Sender, outsider.PrivateName())
	}
}

func TestMultiGroupMulticastDeliversOnce(t *testing.T) {
	c := startDaemons(t, 2)
	both := c.connect(0, "both")
	one := c.connect(1, "one")

	for _, g := range []string{"g1", "g2"} {
		if err := both.Join(g); err != nil {
			t.Fatal(err)
		}
	}
	if err := one.Join("g1"); err != nil {
		t.Fatal(err)
	}
	waitViews(t, both, map[string]int{"g1": 2, "g2": 1})
	waitViews(t, one, map[string]int{"g1": 2})

	// One message to both groups: "both" must receive it exactly once.
	if err := one.Multicast(wire.ServiceSafe, []byte("multi"), "g1", "g2"); err != nil {
		t.Fatal(err)
	}
	if err := one.Multicast(wire.ServiceAgreed, []byte("after"), "g1"); err != nil {
		t.Fatal(err)
	}
	msgs := collectMessages(t, both, 2)
	if string(msgs[0].Payload) != "multi" || string(msgs[1].Payload) != "after" {
		t.Fatalf("got %q then %q", msgs[0].Payload, msgs[1].Payload)
	}
	if len(msgs[0].Groups) != 2 {
		t.Fatalf("groups = %v", msgs[0].Groups)
	}
	if msgs[0].Service != wire.ServiceSafe {
		t.Fatalf("service = %v, want safe", msgs[0].Service)
	}
}

func TestLeaveUpdatesViews(t *testing.T) {
	c := startDaemons(t, 2)
	a := c.connect(0, "a")
	b := c.connect(1, "b")
	if err := a.Join("g"); err != nil {
		t.Fatal(err)
	}
	if err := b.Join("g"); err != nil {
		t.Fatal(err)
	}
	waitView(t, a, "g", 2)
	if err := b.Leave("g"); err != nil {
		t.Fatal(err)
	}
	v := waitView(t, a, "g", 1)
	if v.Members[0] != a.PrivateName() {
		t.Fatalf("remaining member = %v", v.Members)
	}
}

func TestDisconnectLeavesGroups(t *testing.T) {
	c := startDaemons(t, 2)
	a := c.connect(0, "a")
	b := c.connect(1, "b")
	if err := a.Join("g"); err != nil {
		t.Fatal(err)
	}
	if err := b.Join("g"); err != nil {
		t.Fatal(err)
	}
	waitView(t, a, "g", 2)
	b.Close()
	v := waitView(t, a, "g", 1)
	if v.Members[0] != a.PrivateName() {
		t.Fatalf("remaining member = %v", v.Members)
	}
}

func TestViewsAreOrderedWithMessages(t *testing.T) {
	// A member that joins after a message was ordered must not receive it;
	// one that joined before must. Total order of joins and messages makes
	// this deterministic cluster-wide.
	c := startDaemons(t, 2)
	early := c.connect(0, "early")
	late := c.connect(1, "late")

	if err := early.Join("g"); err != nil {
		t.Fatal(err)
	}
	waitView(t, early, "g", 1)
	if err := early.Multicast(wire.ServiceAgreed, []byte("before-late"), "g"); err != nil {
		t.Fatal(err)
	}
	msgs := collectMessages(t, early, 1)
	if string(msgs[0].Payload) != "before-late" {
		t.Fatalf("got %q", msgs[0].Payload)
	}
	if err := late.Join("g"); err != nil {
		t.Fatal(err)
	}
	waitView(t, late, "g", 2)
	if err := early.Multicast(wire.ServiceAgreed, []byte("after-late"), "g"); err != nil {
		t.Fatal(err)
	}
	lateMsgs := collectMessages(t, late, 1)
	if string(lateMsgs[0].Payload) != "after-late" {
		t.Fatalf("late client got %q, want only the post-join message", lateMsgs[0].Payload)
	}
}

func TestSameNameDifferentDaemons(t *testing.T) {
	c := startDaemons(t, 2)
	a := c.connect(0, "dup")
	b := c.connect(1, "dup")
	if a.PrivateName() == b.PrivateName() {
		t.Fatalf("private names collide: %q", a.PrivateName())
	}
}

// TestDaemonStatsSnapshot exercises the stats round trip: per-client
// submit/deliver counters over IPC, the fan-out tier's snapshot, plus the
// embedded node's metrics snapshot decodable from the raw JSON, which
// carries the ring only: the tier has one route, StatsSnapshot.Fanout.
func TestDaemonStatsSnapshot(t *testing.T) {
	c := startDaemons(t, 2)
	alice := c.connect(0, "alice")
	bob := c.connect(1, "bob")
	if err := alice.Join("chat"); err != nil {
		t.Fatal(err)
	}
	waitView(t, alice, "chat", 1)
	const sent = 3
	for i := 0; i < sent; i++ {
		if err := bob.Multicast(wire.ServiceAgreed, []byte("hello"), "chat"); err != nil {
			t.Fatal(err)
		}
	}
	collectMessages(t, alice, sent)

	// Alice's daemon: it delivered `sent` messages to alice locally.
	snap, err := alice.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Sessions != 1 || snap.Groups != 1 {
		t.Fatalf("daemon 0 stats: %+v, want 1 session / 1 group", snap)
	}
	cs, ok := snap.Clients[alice.PrivateName()]
	if !ok {
		t.Fatalf("no counters for %s in %+v", alice.PrivateName(), snap.Clients)
	}
	if cs.Msgs != sent || cs.Submits != 0 {
		t.Fatalf("alice counters = %+v, want %d msgs / 0 submits", cs, sent)
	}
	if snap.Fanout.Policy != "disconnect" || snap.Fanout.Subscriptions < 1 {
		t.Fatalf("daemon 0 fanout = %+v, want policy disconnect and >= 1 subscription", snap.Fanout)
	}
	var node accelring.MetricsSnapshot
	if err := json.Unmarshal(snap.Node, &node); err != nil {
		t.Fatalf("decoding node metrics: %v", err)
	}
	var nodeKeys map[string]json.RawMessage
	if err := json.Unmarshal(snap.Node, &nodeKeys); err != nil {
		t.Fatalf("decoding node metrics keys: %v", err)
	}
	if _, ok := nodeKeys["fanout"]; ok {
		t.Fatal("node metrics carry a fanout section; the tier reports only in StatsSnapshot.Fanout")
	}
	if node.Engine.TokensProcessed == 0 {
		t.Fatal("node metrics carry no engine counters")
	}
	if node.Runtime.EventsDelivered == 0 {
		t.Fatal("node metrics carry no runtime counters")
	}

	// Bob's daemon: bob submitted `sent` multicasts and, not being a
	// member of the group, received nothing.
	snap, err = bob.Stats()
	if err != nil {
		t.Fatal(err)
	}
	cs, ok = snap.Clients[bob.PrivateName()]
	if !ok {
		t.Fatalf("no counters for %s in %+v", bob.PrivateName(), snap.Clients)
	}
	if cs.Submits != sent || cs.Msgs != 0 {
		t.Fatalf("bob counters = %+v, want %d submits / 0 msgs", cs, sent)
	}

	// A second request keeps working (the stats channel does not wedge).
	if _, err := alice.Stats(); err != nil {
		t.Fatal(err)
	}
}
