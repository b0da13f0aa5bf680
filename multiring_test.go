package accelring

import (
	"fmt"
	"testing"
	"time"

	"accelring/internal/evscheck"
)

// startMultiCluster boots n multi-ring nodes, each a participant of rings
// independent memnet rings (one hub per shard), every ring on the given
// ordering engine. Skip leadership follows the library default: the lowest
// member ID leads.
func startMultiCluster(t *testing.T, n, rings int, seed int64, engine EngineKind) ([]*MultiNode, []*MemoryNetwork) {
	t.Helper()
	hubs := make([]*MemoryNetwork, rings)
	for r := range hubs {
		hubs[r] = NewMemoryNetwork(seed + int64(r))
	}
	members := make([]ParticipantID, 0, n)
	for i := 1; i <= n; i++ {
		members = append(members, ParticipantID(i))
	}
	nodes := make([]*MultiNode, 0, n)
	for _, id := range members {
		transports := make([]Transport, rings)
		for r := range transports {
			transports[r] = hubs[r].Endpoint(id)
		}
		mn, err := StartMulti(MultiOptions{
			Node: Options{
				ID:                 id,
				Members:            members,
				Engine:             engine,
				TokenLossTimeout:   200 * time.Millisecond,
				TokenRetransPeriod: 40 * time.Millisecond,
				JoinPeriod:         20 * time.Millisecond,
				ConsensusTimeout:   100 * time.Millisecond,
				CommitTimeout:      100 * time.Millisecond,
			},
			RingTransports: transports,
			SkipInterval:   time.Millisecond,
		})
		if err != nil {
			t.Fatalf("StartMulti(%d): %v", id, err)
		}
		nodes = append(nodes, mn)
	}
	t.Cleanup(func() {
		for _, mn := range nodes {
			mn.Close()
		}
	})
	return nodes, hubs
}

// collectMerged drains one node's merged stream until want messages
// arrived, returning them (config updates are counted separately).
func collectMerged(t *testing.T, mn *MultiNode, want int, deadline time.Duration) ([]ShardMessage, int) {
	t.Helper()
	var msgs []ShardMessage
	configs := 0
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	for len(msgs) < want {
		select {
		case ev, ok := <-mn.Events():
			if !ok {
				t.Fatalf("node %d: merged stream closed after %d/%d messages", mn.ID(), len(msgs), want)
			}
			switch e := ev.(type) {
			case ShardMessage:
				msgs = append(msgs, e)
			case ShardConfigChange:
				configs++
			}
		case <-timer.C:
			t.Fatalf("node %d: timed out with %d/%d merged messages", mn.ID(), len(msgs), want)
		}
	}
	return msgs, configs
}

// crossKey labels one merged message for the conformance log.
func crossKey(m ShardMessage) string {
	return fmt.Sprintf("%d:%d", m.Sender, m.SenderSeq)
}

// groupOnShard returns a group name hashing to the wanted shard.
func groupOnShard(t *testing.T, shard, rings int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		g := fmt.Sprintf("group-%d", i)
		if ShardOf(g, rings) == shard {
			return g
		}
	}
	t.Fatalf("no group found for shard %d/%d", shard, rings)
	return ""
}

// TestMultiRingTotalOrder is the tentpole's end-to-end check: three nodes
// on two rings, traffic on both shards plus cross-shard messages, and every
// node must emit the identical merged order — verified structurally and by
// the cross-ring conformance checker in converged mode. It runs once with
// every ring on each engine (TestMultiRingMixedEngines mixes one of each).
func TestMultiRingTotalOrder(t *testing.T) {
	for _, engine := range []EngineKind{EngineAccelRing, EngineRingPaxos} {
		t.Run(string(engine), func(t *testing.T) { testMultiRingTotalOrder(t, engine) })
	}
}

func testMultiRingTotalOrder(t *testing.T, engine EngineKind) {
	const n, rings, perNode = 3, 2, 20
	nodes, _ := startMultiCluster(t, n, rings, 7, engine)
	g0 := groupOnShard(t, 0, rings)
	g1 := groupOnShard(t, 1, rings)

	for i := 0; i < perNode; i++ {
		for _, mn := range nodes {
			g := g0
			if i%2 == 1 {
				g = g1
			}
			if err := mn.Submit([]string{g}, []byte(fmt.Sprintf("%d-%d", mn.ID(), i)), Agreed); err != nil {
				t.Fatalf("Submit: %v", err)
			}
		}
	}
	// Cross-shard messages: one copy per ring, one merged emission.
	for _, mn := range nodes {
		if err := mn.Submit([]string{g0, g1}, []byte(fmt.Sprintf("x-%d", mn.ID())), Agreed); err != nil {
			t.Fatalf("cross-shard Submit: %v", err)
		}
	}

	want := n*perNode + n
	streams := make([][]ShardMessage, n)
	for i, mn := range nodes {
		streams[i], _ = collectMerged(t, mn, want, 15*time.Second)
	}

	// Structural agreement: identical key sequence everywhere.
	for i := 1; i < n; i++ {
		for k := range streams[0] {
			if crossKey(streams[i][k]) != crossKey(streams[0][k]) {
				t.Fatalf("merged order differs at %d: %s vs %s",
					k, crossKey(streams[i][k]), crossKey(streams[0][k]))
			}
		}
	}
	// Routing agreement: single-shard messages landed on the hash's ring,
	// cross-shard messages report both shards.
	for _, m := range streams[0] {
		if m.Shards == 1 {
			if want := ShardOf(m.Groups[0], rings); m.Ring != want {
				t.Fatalf("message %s on ring %d, group %q hashes to %d",
					crossKey(m), m.Ring, m.Groups[0], want)
			}
		} else if m.Shards != rings {
			t.Fatalf("cross-shard message %s reports %d shards", crossKey(m), m.Shards)
		}
	}

	// The conformance checker's verdict, in strict mode: no partitions
	// happened and every stream was drained to the same length.
	cl := evscheck.CrossLog{}
	for i, msgs := range streams {
		nl := cl.Node(fmt.Sprint(nodes[i].ID()))
		for _, m := range msgs {
			nl.Deliver(crossKey(m), m.Ring, m.Turn, m.Shards)
		}
	}
	if vs := evscheck.CrossCheck(cl, evscheck.CrossOptions{Converged: true}); len(vs) != 0 {
		t.Fatalf("cross-ring conformance violations: %v", vs)
	}
}

// TestMultiRingUDP runs two nodes on two rings over real loopback UDP
// sockets — each ring gets its own port set — proving the per-ring
// transport binding works beyond memnet.
func TestMultiRingUDP(t *testing.T) {
	const n, rings, perNode = 2, 2, 10
	ports := freePorts(t, 2*n*rings)
	members := []ParticipantID{1, 2}

	nodes := make([]*MultiNode, 0, n)
	for _, id := range members {
		transports := make([]Transport, rings)
		for r := 0; r < rings; r++ {
			peers := make(map[ParticipantID]Peer, n)
			for pi, pid := range members {
				base := 2 * (rings*pi + r)
				peers[pid] = Peer{Host: "127.0.0.1", DataPort: ports[base], TokenPort: ports[base+1]}
			}
			tr, err := NewUDPTransport(UDPOptions{ID: id, Peers: peers})
			if err != nil {
				t.Fatalf("NewUDPTransport(node %d ring %d): %v", id, r, err)
			}
			transports[r] = tr
		}
		mn, err := StartMulti(MultiOptions{
			Node: Options{
				ID:                 id,
				Members:            members,
				TokenLossTimeout:   300 * time.Millisecond,
				TokenRetransPeriod: 60 * time.Millisecond,
			},
			RingTransports: transports,
			SkipInterval:   2 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("StartMulti(%d): %v", id, err)
		}
		nodes = append(nodes, mn)
	}
	t.Cleanup(func() {
		for _, mn := range nodes {
			mn.Close()
		}
	})

	g0 := groupOnShard(t, 0, rings)
	g1 := groupOnShard(t, 1, rings)
	for i := 0; i < perNode; i++ {
		for _, mn := range nodes {
			g := g0
			if i%2 == 1 {
				g = g1
			}
			if err := mn.Submit([]string{g}, []byte(fmt.Sprintf("%d-%d", mn.ID(), i)), Agreed); err != nil {
				t.Fatalf("Submit: %v", err)
			}
		}
	}
	want := n * perNode
	a, _ := collectMerged(t, nodes[0], want, 20*time.Second)
	b, _ := collectMerged(t, nodes[1], want, 20*time.Second)
	for k := range a {
		if crossKey(a[k]) != crossKey(b[k]) || a[k].Turn != b[k].Turn {
			t.Fatalf("UDP merged order differs at %d: %s@%d vs %s@%d",
				k, crossKey(a[k]), a[k].Turn, crossKey(b[k]), b[k].Turn)
		}
	}
}

// TestMultiRingMetricsIsolation is the metrics-aggregation regression test:
// with traffic pinned to shard 0 and skips disabled, ring 1's engine and
// runtime counters must stay untouched — per-ring registries cannot
// cross-contaminate — while the merged view sums the per-ring numbers and
// counts the process-global buffer pool exactly once.
func TestMultiRingMetricsIsolation(t *testing.T) {
	const n, rings, msgs = 2, 2, 15
	hubs := make([]*MemoryNetwork, rings)
	for r := range hubs {
		hubs[r] = NewMemoryNetwork(11 + int64(r))
	}
	members := []ParticipantID{1, 2}
	noSkips := false
	nodes := make([]*MultiNode, 0, n)
	for _, id := range members {
		transports := make([]Transport, rings)
		for r := range transports {
			transports[r] = hubs[r].Endpoint(id)
		}
		mn, err := StartMulti(MultiOptions{
			Node: Options{
				ID:                 id,
				Members:            members,
				TokenLossTimeout:   200 * time.Millisecond,
				TokenRetransPeriod: 40 * time.Millisecond,
			},
			RingTransports: transports,
			SkipSubmit:     &noSkips,
		})
		if err != nil {
			t.Fatalf("StartMulti(%d): %v", id, err)
		}
		nodes = append(nodes, mn)
	}
	t.Cleanup(func() {
		for _, mn := range nodes {
			mn.Close()
		}
	})

	g0 := groupOnShard(t, 0, rings)
	for i := 0; i < msgs; i++ {
		if err := nodes[0].SubmitShard(0, g0, []byte("iso"), Agreed); err != nil {
			t.Fatalf("SubmitShard: %v", err)
		}
	}

	// With skips disabled the merge stalls after the first emission, but
	// ring 0's engine keeps ordering; wait on its delivery counter — and
	// on the idle ring's first token reaching this node, which nothing
	// above orders before ring 0's deliveries.
	deadline := time.Now().Add(10 * time.Second)
	var snap MultiMetricsSnapshot
	for {
		var err error
		snap, err = nodes[1].Metrics()
		if err != nil {
			t.Fatalf("Metrics: %v", err)
		}
		if snap.Rings[0].Engine.Delivered >= msgs && snap.Rings[1].Engine.TokensProcessed > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring 0 delivered %d/%d, ring 1 processed %d tokens",
				snap.Rings[0].Engine.Delivered, msgs, snap.Rings[1].Engine.TokensProcessed)
		}
		time.Sleep(20 * time.Millisecond)
	}

	r0, r1 := snap.Rings[0], snap.Rings[1]
	if r1.Engine.Delivered != 0 || r1.Engine.MsgsSent != 0 || r1.Runtime.PacketsData != 0 || r1.Runtime.Submits != 0 {
		t.Fatalf("idle ring's counters moved: delivered=%d sent=%d data=%d submits=%d",
			r1.Engine.Delivered, r1.Engine.MsgsSent, r1.Runtime.PacketsData, r1.Runtime.Submits)
	}
	if r1.Engine.TokensProcessed == 0 {
		t.Fatal("idle ring's token never rotated — per-ring engines are not independent")
	}
	if snap.Merged.Engine.Delivered != r0.Engine.Delivered+r1.Engine.Delivered {
		t.Fatalf("merged Delivered = %d, want %d",
			snap.Merged.Engine.Delivered, r0.Engine.Delivered+r1.Engine.Delivered)
	}
	if snap.Merged.Engine.TokensProcessed != r0.Engine.TokensProcessed+r1.Engine.TokensProcessed {
		t.Fatal("merged TokensProcessed is not the per-ring sum")
	}
	// The buffer pool is process-global: the merged view must report it
	// once, not once per ring — its counters are shared, so a sum would
	// double every number.
	if snap.Merged.BufferPool != r0.BufferPool {
		t.Fatalf("merged BufferPool %+v != ring 0's %+v", snap.Merged.BufferPool, r0.BufferPool)
	}
	if snap.Router.Rings != rings {
		t.Fatalf("router snapshot reports %d rings", snap.Router.Rings)
	}
	if snap.Router.SkipsSubmitted != 0 {
		t.Fatalf("skips submitted with SkipSubmit disabled: %d", snap.Router.SkipsSubmitted)
	}
}

// TestMergeMetricsSnapshots pins the aggregation rules on synthetic inputs:
// counters add, the window gauge takes the max, transport sums, and the
// shared buffer pool is copied from the first snapshot rather than summed.
func TestMergeMetricsSnapshots(t *testing.T) {
	var a, b MetricsSnapshot
	a.Engine.Delivered, b.Engine.Delivered = 10, 32
	a.Engine.AccelWindow, b.Engine.AccelWindow = 3, 7
	a.Runtime.PacketsData, b.Runtime.PacketsData = 100, 200
	a.ErrorCount, b.ErrorCount = 1, 2
	a.Transport = &TransportSnapshot{DatagramsIn: 5}
	b.Transport = &TransportSnapshot{DatagramsIn: 6}
	a.BufferPool = PoolSnapshot{Hits: 50, Puts: 50}
	b.BufferPool = PoolSnapshot{Hits: 50, Puts: 50} // same global pool, seen twice

	m := MergeMetricsSnapshots(a, b)
	if m.Engine.Delivered != 42 {
		t.Fatalf("Delivered = %d, want 42", m.Engine.Delivered)
	}
	if m.Engine.AccelWindow != 7 {
		t.Fatalf("AccelWindow = %d, want max 7", m.Engine.AccelWindow)
	}
	if m.Runtime.PacketsData != 300 || m.ErrorCount != 3 {
		t.Fatalf("runtime/errors: %d, %d", m.Runtime.PacketsData, m.ErrorCount)
	}
	if m.Transport == nil || m.Transport.DatagramsIn != 11 {
		t.Fatalf("transport: %+v", m.Transport)
	}
	if m.BufferPool.Hits != 50 {
		t.Fatalf("BufferPool.Hits = %d: the global pool was summed per ring", m.BufferPool.Hits)
	}

	if out := MergeMetricsSnapshots(); out.Engine.Delivered != 0 || out.Transport != nil {
		t.Fatalf("empty merge: %+v", out)
	}
}
