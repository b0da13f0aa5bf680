package accelring

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"accelring/internal/evscheck"
	"accelring/internal/multiring"
)

// mixedTap records one node's per-ring unit streams (messages and skips,
// in ring delivery order, deep-copied) plus its merged stream. The unit
// streams are the input the merge layer is a pure function of — the
// permuted-arrival replay below re-runs them through a fresh merger.
type mixedTap struct {
	mu     sync.Mutex
	units  [][]ShardUnit
	merged []ShardMessage
}

func (c *mixedTap) onUnit(ring int, u ShardUnit) {
	cp := u
	cp.Payload = append([]byte(nil), u.Payload...)
	cp.Groups = append([]string(nil), u.Groups...)
	c.mu.Lock()
	c.units[ring] = append(c.units[ring], cp)
	c.mu.Unlock()
}

// TestMultiRingMixedEngines runs an accelring shard and a ringpaxos shard
// behind one Router: the two engines order their own shards with their
// own protocols, and the deterministic merge must still give every node
// the identical cross-shard total order — verified structurally, by the
// cross-ring conformance checker, and by replaying the recorded per-ring
// unit streams through a fresh merger under permuted arrival schedules.
func TestMultiRingMixedEngines(t *testing.T) {
	const (
		n       = 3
		rings   = 2
		perNode = 15
		seed    = 23
	)
	hubs := make([]*MemoryNetwork, rings)
	for r := range hubs {
		hubs[r] = NewMemoryNetwork(seed + int64(r))
	}
	members := make([]ParticipantID, 0, n)
	for i := 1; i <= n; i++ {
		members = append(members, ParticipantID(i))
	}
	taps := make([]*mixedTap, n)
	nodes := make([]*MultiNode, 0, n)
	for i, id := range members {
		taps[i] = &mixedTap{units: make([][]ShardUnit, rings)}
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
				JoinPeriod:         20 * time.Millisecond,
				ConsensusTimeout:   100 * time.Millisecond,
				CommitTimeout:      100 * time.Millisecond,
			},
			RingTransports: transports,
			Engines:        []EngineKind{EngineAccelRing, EngineRingPaxos},
			SkipInterval:   time.Millisecond,
			OnUnit:         taps[i].onUnit,
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

	g0 := groupOnShard(t, 0, rings) // accelring shard
	g1 := groupOnShard(t, 1, rings) // ringpaxos shard
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
	// Cross-shard messages span one shard of each engine.
	for _, mn := range nodes {
		if err := mn.Submit([]string{g0, g1}, []byte(fmt.Sprintf("x-%d", mn.ID())), Agreed); err != nil {
			t.Fatalf("cross-shard Submit: %v", err)
		}
	}

	want := n*perNode + n
	streams := make([][]ShardMessage, n)
	for i, mn := range nodes {
		streams[i], _ = collectMerged(t, mn, want, 15*time.Second)
		taps[i].mu.Lock()
		taps[i].merged = streams[i]
		taps[i].mu.Unlock()
	}

	// Structural agreement: identical (key, ring, turn) sequence on every
	// node, with the single-shard messages on the shard their group hashes
	// to.
	for i := 1; i < n; i++ {
		for k := range streams[0] {
			if crossKey(streams[i][k]) != crossKey(streams[0][k]) ||
				streams[i][k].Turn != streams[0][k].Turn {
				t.Fatalf("merged order differs at %d: %s@%d vs %s@%d", k,
					crossKey(streams[i][k]), streams[i][k].Turn,
					crossKey(streams[0][k]), streams[0][k].Turn)
			}
		}
	}
	for _, m := range streams[0] {
		if m.Shards == 1 {
			if want := ShardOf(m.Groups[0], rings); m.Ring != want {
				t.Fatalf("message %s on ring %d, group %q hashes to %d",
					crossKey(m), m.Ring, m.Groups[0], want)
			}
		}
	}

	// The conformance checker's verdict: the cross-ring axioms are
	// engine-agnostic and apply to the mixed deployment unchanged.
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

	// Per-ring engine labeling in the merged metrics view.
	snap, err := nodes[0].Metrics()
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if snap.Rings[0].EngineName != string(EngineAccelRing) || snap.Rings[0].Paxos != nil {
		t.Fatalf("ring 0 metrics: engine %q paxos %v, want plain accelring",
			snap.Rings[0].EngineName, snap.Rings[0].Paxos)
	}
	if snap.Rings[1].EngineName != string(EngineRingPaxos) || snap.Rings[1].Paxos == nil {
		t.Fatalf("ring 1 metrics: engine %q paxos %v, want labeled ringpaxos counters",
			snap.Rings[1].EngineName, snap.Rings[1].Paxos)
	}
	if snap.Rings[1].Paxos.Delivered == 0 {
		t.Fatal("ringpaxos shard reports no deliveries in its engine counters")
	}

	// Permuted-arrival merge determinism: the merged order must be a pure
	// function of the per-ring unit streams. Replay node 0's recorded
	// streams through a fresh merger under several arrival interleavings —
	// round-robin, ring-sequential, reverse, and seeded shuffles — and
	// require the exact observed (key, ring, turn) sequence every time.
	// Snapshot the streams: the tap keeps appending (skip units never
	// stop), so the per-ring slices must be copied under its lock.
	taps[0].mu.Lock()
	units := make([][]ShardUnit, rings)
	for r := range units {
		units[r] = append([]ShardUnit(nil), taps[0].units[r]...)
	}
	taps[0].mu.Unlock()
	lens := []int{len(units[0]), len(units[1])}
	for name, order := range arrivalSchedules(lens, seed, 3) {
		got := replayMerge(rings, units, order)
		if len(got) != len(streams[0]) {
			t.Fatalf("schedule %s: replay emitted %d messages, observed %d",
				name, len(got), len(streams[0]))
		}
		for k, m := range got {
			obs := streams[0][k]
			if m.Key.Sender != obs.Sender || m.Key.Seq != obs.SenderSeq ||
				m.Ring != obs.Ring || m.Turn != obs.Turn {
				t.Fatalf("schedule %s: replay diverges at %d: %d:%d@%d(ring %d) vs %s@%d(ring %d)",
					name, k, m.Key.Sender, m.Key.Seq, m.Turn, m.Ring,
					crossKey(obs), obs.Turn, obs.Ring)
			}
		}
	}
}

// replayMerge feeds the per-ring unit streams to a fresh merger in the
// given arrival interleaving and returns the emitted message units.
func replayMerge(rings int, streams [][]ShardUnit, order []int) []multiring.Merged {
	m := multiring.NewMerger(rings)
	var out []multiring.Merged
	cursor := make([]int, rings)
	for _, r := range order {
		m.Push(r, streams[r][cursor[r]])
		cursor[r]++
		for {
			d, ok := m.Next()
			if !ok {
				break
			}
			if !d.Skip {
				out = append(out, d)
			}
		}
	}
	return out
}

// arrivalSchedules builds named arrival interleavings of the given
// per-ring stream lengths; each preserves per-ring order (an interleaving
// only decides whose next unit arrives).
func arrivalSchedules(lens []int, seed int64, random int) map[string][]int {
	total := 0
	for _, n := range lens {
		total += n
	}
	rr := make([]int, 0, total)
	cursor := make([]int, len(lens))
	for len(rr) < total {
		for r, n := range lens {
			if cursor[r] < n {
				rr = append(rr, r)
				cursor[r]++
			}
		}
	}
	var seq, rev []int
	for r, n := range lens {
		for i := 0; i < n; i++ {
			seq = append(seq, r)
		}
	}
	for r := len(lens) - 1; r >= 0; r-- {
		for i := 0; i < lens[r]; i++ {
			rev = append(rev, r)
		}
	}
	out := map[string][]int{"round-robin": rr, "sequential": seq, "reverse": rev}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < random; i++ {
		s := append([]int(nil), rr...)
		rng.Shuffle(len(s), func(a, b int) { s[a], s[b] = s[b], s[a] })
		// A shuffle breaks per-ring order; rebuild it as a ring-id
		// multiset walk (the shuffle only permutes whose turn it is).
		out[fmt.Sprintf("shuffle-%d", i)] = s
	}
	return out
}
