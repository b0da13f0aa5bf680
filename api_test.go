package accelring

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"accelring/internal/core"
	"accelring/internal/faultplan"
	"accelring/internal/wire"
)

// startCluster boots n nodes over one in-memory network with a static ring.
func startCluster(t *testing.T, net *MemoryNetwork, n int, proto Protocol) []*Node {
	t.Helper()
	members := make([]ParticipantID, 0, n)
	for i := 1; i <= n; i++ {
		members = append(members, ParticipantID(i))
	}
	nodes := make([]*Node, 0, n)
	for _, id := range members {
		node, err := Start(Options{
			ID:               id,
			Transport:        net.Endpoint(id),
			Members:          members,
			Protocol:         proto,
			TokenLossTimeout: 200 * time.Millisecond,
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

// collect drains events from a node until want messages arrived or the
// deadline passed, returning messages and config changes separately.
func collect(t *testing.T, node *Node, want int, deadline time.Duration) ([]Message, []ConfigChange) {
	t.Helper()
	var msgs []Message
	var cfgs []ConfigChange
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	for len(msgs) < want {
		select {
		case ev, ok := <-node.Events():
			if !ok {
				t.Fatalf("node %s: events channel closed after %d/%d messages", node.ID(), len(msgs), want)
			}
			switch e := ev.(type) {
			case Message:
				msgs = append(msgs, e)
			case ConfigChange:
				cfgs = append(cfgs, e)
			}
		case <-timer.C:
			t.Fatalf("node %s: timed out with %d/%d messages", node.ID(), len(msgs), want)
		}
	}
	return msgs, cfgs
}

func TestLibraryClusterTotalOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		proto Protocol
	}{{"accelerated", AcceleratedRing}, {"original", OriginalRing}} {
		t.Run(tc.name, func(t *testing.T) {
			net := NewMemoryNetwork(1)
			nodes := startCluster(t, net, 3, tc.proto)

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
		})
	}
}

func TestSafeDeliveryOverMemoryNetwork(t *testing.T) {
	net := NewMemoryNetwork(2)
	nodes := startCluster(t, net, 4, AcceleratedRing)
	for i := 0; i < 10; i++ {
		if err := nodes[0].Submit([]byte(fmt.Sprintf("safe-%d", i)), Safe); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	for _, node := range nodes {
		msgs, _ := collect(t, node, 10, 10*time.Second)
		for i, m := range msgs {
			if m.Service != Safe {
				t.Fatalf("message %d delivered with service %v", i, m.Service)
			}
			if want := fmt.Sprintf("safe-%d", i); string(m.Payload) != want {
				t.Fatalf("message %d = %q, want %q", i, m.Payload, want)
			}
		}
	}
}

func TestClusterSurvivesPacketLoss(t *testing.T) {
	net := NewMemoryNetwork(3)
	net.ApplyFaults(&faultplan.Plan{Seed: 3, Links: []faultplan.LinkFault{{Loss: 0.05}}})
	nodes := startCluster(t, net, 3, AcceleratedRing)
	const perNode = 30
	for i := 0; i < perNode; i++ {
		for _, node := range nodes {
			if err := node.Submit([]byte(fmt.Sprintf("%s-%d", node.ID(), i)), Agreed); err != nil {
				t.Fatalf("Submit: %v", err)
			}
		}
	}
	for _, node := range nodes {
		msgs, _ := collect(t, node, perNode*3, 20*time.Second)
		if len(msgs) != perNode*3 {
			t.Fatalf("node %s delivered %d", node.ID(), len(msgs))
		}
	}
}

func TestDynamicMembershipFormsRing(t *testing.T) {
	net := NewMemoryNetwork(4)
	members := []ParticipantID{1, 2, 3}
	var nodes []*Node
	for _, id := range members {
		node, err := Start(Options{
			ID:               id,
			Transport:        net.Endpoint(id),
			TokenLossTimeout: 200 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
		t.Cleanup(func() { node.Close() })
	}
	// Wait for a 3-member configuration at node 1, then message flow.
	deadline := time.After(15 * time.Second)
	for {
		select {
		case ev := <-nodes[0].Events():
			if cc, ok := ev.(ConfigChange); ok && !cc.Transitional && len(cc.Config.Members) == 3 {
				goto formed
			}
		case <-deadline:
			t.Fatal("3-member ring never formed")
		}
	}
formed:
	if err := nodes[1].Submit([]byte("hello"), Agreed); err != nil {
		t.Fatal(err)
	}
	msgs, _ := collect(t, nodes[0], 1, 10*time.Second)
	if string(msgs[0].Payload) != "hello" || msgs[0].Sender != 2 {
		t.Fatalf("got %q from %s", msgs[0].Payload, msgs[0].Sender)
	}
}

func TestCrashedNodeRemovedFromMembership(t *testing.T) {
	net := NewMemoryNetwork(5)
	nodes := startCluster(t, net, 3, AcceleratedRing)
	// Let the ring settle, then kill node 3.
	if err := nodes[0].Submit([]byte("warm"), Agreed); err != nil {
		t.Fatal(err)
	}
	collect(t, nodes[0], 1, 5*time.Second)
	nodes[2].Close()

	// Node 1 must install a 2-member configuration and keep delivering.
	deadline := time.After(15 * time.Second)
	for {
		select {
		case ev, ok := <-nodes[0].Events():
			if !ok {
				t.Fatal("events closed")
			}
			if cc, ok := ev.(ConfigChange); ok && !cc.Transitional && len(cc.Config.Members) == 2 {
				goto reformed
			}
		case <-deadline:
			t.Fatal("2-member ring never formed after crash")
		}
	}
reformed:
	if err := nodes[1].Submit([]byte("after"), Safe); err != nil {
		t.Fatal(err)
	}
	msgs, _ := collect(t, nodes[0], 1, 10*time.Second)
	if string(msgs[0].Payload) != "after" {
		t.Fatalf("got %q", msgs[0].Payload)
	}
}

func TestStatsAndClose(t *testing.T) {
	net := NewMemoryNetwork(6)
	nodes := startCluster(t, net, 2, AcceleratedRing)
	if err := nodes[0].Submit([]byte("x"), Agreed); err != nil {
		t.Fatal(err)
	}
	collect(t, nodes[0], 1, 5*time.Second)
	snap, err := nodes[0].Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if st := snap.Engine; st.MsgsSent == 0 || st.Delivered == 0 {
		t.Fatalf("stats not counting: %+v", st)
	}
	if err := nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Submit([]byte("y"), Agreed); err != ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	if _, err := nodes[0].Metrics(); err != ErrClosed {
		t.Fatalf("Metrics after Close = %v, want ErrClosed", err)
	}
}

// TestSubmitAnswersSynchronously: Submit answers an invalid message, a
// closed node and a full backlog itself, before it queues anything, on both
// engines. The node's backlog bound is 4 and its ring never orders, so four
// accepted submissions fill it: the fifth is refused while they still wait
// for the loop, and again once the loop has stepped them. No refusal
// reaches the engine, so SubmitErrors stays zero.
func TestSubmitAnswersSynchronously(t *testing.T) {
	const maxPending = 4
	for _, kind := range []EngineKind{EngineAccelRing, EngineRingPaxos} {
		for _, tc := range []struct {
			name    string
			payload []byte
			service Service
			fill    int  // submissions accepted first
			close   bool // Close before the checked Submit
			want    string
		}{
			{"invalid service", []byte("x"), Service(0), 0, false, "invalid service"},
			{"oversized payload", make([]byte, wire.MaxPayload+1), Agreed, 0, false, "exceeds maximum"},
			{"closed", []byte("x"), Agreed, 0, true, ErrClosed.Error()},
			{"backlog full", []byte("x"), Agreed, maxPending, false, core.ErrBacklogFull.Error()},
		} {
			t.Run(string(kind)+"/"+tc.name, func(t *testing.T) {
				n := startTestNode(t, kind, &recordingTransport{}, maxPending)
				for i := 0; i < tc.fill; i++ {
					if err := n.Submit([]byte("fill"), Agreed); err != nil {
						t.Fatalf("fill %d: %v", i, err)
					}
				}
				if tc.close {
					n.Close()
				}
				check := func(when string) {
					t.Helper()
					err := n.Submit(tc.payload, tc.service)
					if err == nil || !strings.Contains(err.Error(), tc.want) {
						t.Fatalf("Submit %s = %v, want an error containing %q", when, err, tc.want)
					}
				}
				check("at once")
				if tc.close {
					return
				}
				waitSubmits(t, n, uint64(tc.fill))
				check("once the loop stepped the fill")
				m, err := n.Metrics()
				if err != nil {
					t.Fatal(err)
				}
				if m.Runtime.Submits != uint64(tc.fill) || m.Runtime.SubmitErrors != 0 {
					t.Fatalf("Submits/SubmitErrors = %d/%d, want %d/0",
						m.Runtime.Submits, m.Runtime.SubmitErrors, tc.fill)
				}
			})
		}
	}
}

func TestStartValidation(t *testing.T) {
	if _, err := Start(Options{ID: 1}); err == nil {
		t.Fatal("Start without transport succeeded")
	}
	net := NewMemoryNetwork(7)
	if _, err := Start(Options{ID: 0, Transport: net.Endpoint(1)}); err == nil {
		t.Fatal("Start with zero ID succeeded")
	}
	if _, err := Start(Options{ID: 1, Transport: net.Endpoint(1), Members: []ParticipantID{2, 3}}); err == nil {
		t.Fatal("Start with membership excluding self succeeded")
	}
	if _, err := Start(Options{ID: 1, Transport: net.Endpoint(1), Members: []ParticipantID{0, 1, 2}}); err == nil {
		t.Fatal("Start with member ID 0 succeeded")
	}
}

// TestStartRefusesNegativeTokenLoss: a negative token-loss timeout, which
// would derive negative protocol timers for either engine, is an error
// from Start rather than a ring that never orders.
func TestStartRefusesNegativeTokenLoss(t *testing.T) {
	for _, kind := range []EngineKind{EngineAccelRing, EngineRingPaxos} {
		net := NewMemoryNetwork(9)
		node, err := Start(Options{ID: 1, Transport: net.Endpoint(1), Members: []ParticipantID{1, 2, 3},
			Engine: kind, TokenLossTimeout: -time.Second})
		if err == nil {
			node.Close()
			t.Fatalf("%s: Start accepted TokenLossTimeout -1s", kind)
		}
		if !strings.Contains(err.Error(), "not positive") {
			t.Fatalf("%s: Start: %v, want an error about the timer", kind, err)
		}
	}
}

// TestStartRejectsInapplicableProtocol: Start refuses protocol settings it
// would otherwise have to ignore.
func TestStartRejectsInapplicableProtocol(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
		want string // in the error
	}{
		{"original with accelerated window", Options{Protocol: OriginalRing, Windows: Windows{Accelerated: 5}}, "accelerated window"},
		{"original on ringpaxos", Options{Protocol: OriginalRing, Engine: EngineRingPaxos}, "applies only"},
		{"unknown protocol", Options{Protocol: OriginalRing + 1}, "unknown protocol"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := NewMemoryNetwork(8)
			tc.opts.ID = 1
			tc.opts.Transport = net.Endpoint(1)
			tc.opts.Members = []ParticipantID{1}
			node, err := Start(tc.opts)
			if err == nil {
				node.Close()
				t.Fatal("Start accepted the options")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Start: %v, want an error about %q", err, tc.want)
			}
		})
	}
}
