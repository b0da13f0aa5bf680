package accelring

import (
	"fmt"
	"net"
	"testing"
	"time"
)

// freePorts grabs n distinct free UDP ports on localhost.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, 0, n)
	conns := make([]*net.UDPConn, 0, n)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for len(ports) < n {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatalf("allocating port: %v", err)
		}
		conns = append(conns, c)
		ports = append(ports, c.LocalAddr().(*net.UDPAddr).Port)
	}
	return ports
}

// startUDPCluster boots a static ring over real UDP sockets on loopback,
// using unicast emulation of multicast (reliable inside containers).
func startUDPCluster(t *testing.T, n int, multicastGroup string) []*Node {
	t.Helper()
	ports := freePorts(t, 2*n)
	peers := make(map[ParticipantID]Peer, n)
	members := make([]ParticipantID, 0, n)
	for i := 1; i <= n; i++ {
		id := ParticipantID(i)
		members = append(members, id)
		peers[id] = Peer{Host: "127.0.0.1", DataPort: ports[2*(i-1)], TokenPort: ports[2*(i-1)+1]}
	}
	nodes := make([]*Node, 0, n)
	for _, id := range members {
		tr, err := NewUDPTransport(UDPOptions{ID: id, Peers: peers, MulticastGroup: multicastGroup})
		if err != nil {
			t.Fatalf("NewUDPTransport(%s): %v", id, err)
		}
		node, err := Start(Options{
			ID:                 id,
			Transport:          tr,
			Members:            members,
			TokenLossTimeout:   300 * time.Millisecond,
			TokenRetransPeriod: 60 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("Start(%s): %v", id, err)
		}
		nodes = append(nodes, node)
	}
	t.Cleanup(func() {
		for _, node := range nodes {
			node.Close()
		}
	})
	return nodes
}

func TestUDPUnicastEmulationCluster(t *testing.T) {
	nodes := startUDPCluster(t, 3, "")
	const perNode = 20
	for i := 0; i < perNode; i++ {
		for _, node := range nodes {
			if err := node.Submit([]byte(fmt.Sprintf("%s-%d", node.ID(), i)), Agreed); err != nil {
				t.Fatalf("Submit: %v", err)
			}
		}
	}
	var streams [][]Message
	for _, node := range nodes {
		msgs, _ := collect(t, node, perNode*3, 20*time.Second)
		streams = append(streams, msgs)
	}
	for i := 1; i < len(streams); i++ {
		for k := range streams[0] {
			if string(streams[i][k].Payload) != string(streams[0][k].Payload) {
				t.Fatalf("UDP cluster order differs at %d", k)
			}
		}
	}
	// Every node reports its own dataplane, and a syscall carries at least
	// one datagram: equal on the portable dataplane, fewer syscalls where
	// recvmmsg/sendmmsg batch.
	for _, node := range nodes {
		snap, err := node.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		tr := snap.Transport
		if tr == nil {
			t.Fatalf("node %s: no transport snapshot", node.ID())
		}
		if tr.DatagramsIn == 0 || tr.DatagramsOut == 0 || tr.SendSyscalls == 0 || tr.RecvSyscalls == 0 {
			t.Fatalf("node %s: dataplane counters missing: %+v", node.ID(), *tr)
		}
		if tr.SendSyscalls+tr.RecvSyscalls > tr.DatagramsIn+tr.DatagramsOut {
			t.Fatalf("node %s: %d send + %d recv syscalls for %d in + %d out datagrams",
				node.ID(), tr.SendSyscalls, tr.RecvSyscalls, tr.DatagramsIn, tr.DatagramsOut)
		}
	}
}

func TestUDPSafeDelivery(t *testing.T) {
	nodes := startUDPCluster(t, 2, "")
	if err := nodes[1].Submit([]byte("stable"), Safe); err != nil {
		t.Fatal(err)
	}
	for _, node := range nodes {
		msgs, _ := collect(t, node, 1, 10*time.Second)
		if string(msgs[0].Payload) != "stable" || msgs[0].Service != Safe {
			t.Fatalf("node %s got %+v", node.ID(), msgs[0])
		}
	}
}

// TestUDPRealMulticast exercises the IP-multicast path. Multicast may be
// unavailable in containerized CI networks, so the test skips (rather than
// fails) if no delivery happens in time.
func TestUDPRealMulticast(t *testing.T) {
	nodes := startUDPCluster(t, 2, "239.192.77.41:17411")
	if err := nodes[0].Submit([]byte("mc"), Agreed); err != nil {
		t.Fatal(err)
	}
	timer := time.NewTimer(5 * time.Second)
	defer timer.Stop()
	for {
		select {
		case ev, ok := <-nodes[1].Events():
			if !ok {
				t.Skip("multicast unavailable in this environment")
			}
			if m, isMsg := ev.(Message); isMsg {
				if string(m.Payload) != "mc" {
					t.Fatalf("got %q", m.Payload)
				}
				return
			}
		case <-timer.C:
			t.Skip("multicast unavailable in this environment (no delivery)")
		}
	}
}

func TestParsePeers(t *testing.T) {
	peers, err := ParsePeers("1=10.0.0.1,2=10.0.0.2:7421:7422, 3=hostc")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 3 {
		t.Fatalf("got %d peers", len(peers))
	}
	if p := peers[1]; p.Host != "10.0.0.1" ||
		p.DataPort != defaultDataPort || p.TokenPort != defaultTokenPort {
		t.Fatalf("peer 1 = %+v", p)
	}
	if p := peers[2]; p.Host != "10.0.0.2" ||
		p.DataPort != 7421 || p.TokenPort != 7422 {
		t.Fatalf("peer 2 = %+v", p)
	}
	if p := peers[3]; p.Host != "hostc" {
		t.Fatalf("peer 3 = %+v", p)
	}
}

func TestParsePeersErrors(t *testing.T) {
	cases := []string{
		"",
		"1",              // no =
		"x=host",         // bad id
		"1=host:1",       // partial ports
		"1=host:a:2",     // bad data port
		"1=host:1:b",     // bad token port
		"1=host:1:2:3",   // too many fields
		"0=host",         // zero id
		"1=a,1=b",        // repeated id
		"1=",             // empty host
		"1=host:-5:7",    // negative port
		"1=host:0:70000", // ports outside 1-65535
		"1=host:7:70000", // token port above 65535
	}
	for _, c := range cases {
		if _, err := ParsePeers(c); err == nil {
			t.Errorf("ParsePeers(%q) succeeded", c)
		}
	}
}
