package accelring

import (
	"fmt"
	"testing"
	"time"
)

// startEngineCluster boots n nodes of the given engine over one in-memory
// network with a static ring.
func startEngineCluster(t *testing.T, net *MemoryNetwork, n int, engine EngineKind) []*Node {
	t.Helper()
	members := make([]ParticipantID, 0, n)
	for i := 1; i <= n; i++ {
		members = append(members, ParticipantID(i))
	}
	nodes := make([]*Node, 0, n)
	for _, id := range members {
		node, err := Start(Options{
			ID:                 id,
			Transport:          net.Endpoint(id),
			Members:            members,
			Engine:             engine,
			TokenLossTimeout:   200 * time.Millisecond,
			TokenRetransPeriod: 40 * time.Millisecond,
			JoinPeriod:         20 * time.Millisecond,
			ConsensusTimeout:   100 * time.Millisecond,
			CommitTimeout:      100 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("Start(%d): %v", id, err)
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

func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want EngineKind
		err  bool
	}{
		{"", EngineAccelRing, false},
		{"accelring", EngineAccelRing, false},
		{"ringpaxos", EngineRingPaxos, false},
		{"paxos", "", true},
		{"AccelRing", "", true},
	} {
		got, err := ParseEngine(tc.in)
		if tc.err != (err != nil) || got != tc.want {
			t.Errorf("ParseEngine(%q) = %q, %v; want %q, err=%v", tc.in, got, err, tc.want, tc.err)
		}
	}
}

func TestRingPaxosRequiresStaticMembers(t *testing.T) {
	net := NewMemoryNetwork(1)
	if _, err := Start(Options{
		ID:        1,
		Transport: net.Endpoint(1),
		Engine:    EngineRingPaxos,
	}); err == nil {
		t.Fatal("Start with ringpaxos and no Members should fail")
	}
	if _, err := Start(Options{
		ID:        1,
		Transport: net.Endpoint(1),
		Engine:    "totem",
		Members:   []ParticipantID{1},
	}); err == nil {
		t.Fatal("Start with an unknown engine should fail")
	}
}

// TestRingPaxosClusterTotalOrder runs the Ring Paxos engine through the
// full production runtime — protocol goroutine, timers, memnet transport,
// events channel — and checks that every node observes the identical
// total order.
func TestRingPaxosClusterTotalOrder(t *testing.T) {
	net := NewMemoryNetwork(1)
	nodes := startEngineCluster(t, net, 3, EngineRingPaxos)

	const perNode = 40
	for i := 0; i < perNode; i++ {
		for _, node := range nodes {
			if err := node.Submit([]byte(fmt.Sprintf("%s-%d", node.ID(), i)), Agreed); err != nil {
				t.Fatalf("Submit: %v", err)
			}
		}
	}
	want := perNode * len(nodes)
	var streams [][]Message
	for _, node := range nodes {
		msgs, cfgs := collect(t, node, want, 10*time.Second)
		if len(cfgs) == 0 {
			t.Fatalf("node %s got no configuration event", node.ID())
		}
		streams = append(streams, msgs)
	}
	for i := 1; i < len(streams); i++ {
		for k := range streams[0] {
			if string(streams[i][k].Payload) != string(streams[0][k].Payload) {
				t.Fatalf("order differs at %d: %q vs %q", k,
					streams[i][k].Payload, streams[0][k].Payload)
			}
		}
	}

	var decides uint64
	for i, node := range nodes {
		snap, err := node.Metrics()
		if err != nil {
			t.Fatalf("Metrics: %v", err)
		}
		if snap.EngineName != string(EngineRingPaxos) || snap.Paxos == nil {
			t.Fatalf("Metrics engine section = %q/%v, want labeled paxos stats", snap.EngineName, snap.Paxos)
		}
		if i == 0 && snap.Paxos.Delivered == 0 {
			t.Fatalf("Paxos = %+v, want deliveries", snap.Paxos)
		}
		decides += snap.Paxos.QuorumDecides
	}
	if decides == 0 {
		t.Fatal("no node recorded a quorum decide")
	}
}

// TestAccelRingReportsNoPaxosStats pins the accelring side of the stats
// contract: no paxos section, engine labeled.
func TestAccelRingReportsNoPaxosStats(t *testing.T) {
	net := NewMemoryNetwork(1)
	nodes := startEngineCluster(t, net, 2, EngineAccelRing)
	snap, err := nodes[0].Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if snap.EngineName != string(EngineAccelRing) || snap.Paxos != nil {
		t.Fatalf("Metrics engine section = %q/%v", snap.EngineName, snap.Paxos)
	}
}
