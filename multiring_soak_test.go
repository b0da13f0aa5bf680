package accelring

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accelring/internal/evscheck"
	"accelring/internal/faultplan"
)

// multiRingConformance is the per-node conformance tap: it records every
// ring's exact unit stream (messages and skips, in ring delivery order) and
// configuration history via the router's OnUnit/OnConfig hooks, plus the
// merged delivery stream off the Events channel. Together they feed both
// checkers: per-ring EVS axioms and the cross-ring total order.
type multiRingConformance struct {
	mu      sync.Mutex
	name    string
	ringLog []*evscheck.NodeLog // one per ring, shared into per-ring Logs
	merged  []ShardMessage
	anon    []uint64 // per-ring counter keying zero-key (pseudo-skip) units
}

func newMultiRingConformance(name string, rings int) *multiRingConformance {
	c := &multiRingConformance{name: name, anon: make([]uint64, rings)}
	for i := 0; i < rings; i++ {
		c.ringLog = append(c.ringLog, &evscheck.NodeLog{})
	}
	return c
}

func (c *multiRingConformance) onUnit(ring int, u ShardUnit) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := fmt.Sprintf("u:%d:%d", u.Key.Sender, u.Key.Seq)
	if u.Key == (ShardUnit{}.Key) {
		c.anon[ring]++
		key = fmt.Sprintf("anon:%d", c.anon[ring])
	}
	c.ringLog[ring].Deliver(key, u.Key.Sender, u.Key.Seq, u.Service)
}

func (c *multiRingConformance) onConfig(ev ShardConfigChange) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ringLog[ev.Ring].Install(ev.ID, ev.Members, ev.Transitional)
}

// TestMultiRingChaosSoak is the seeded chaos soak of the acceptance
// criteria: three nodes on four rings, a deterministic partition/heal plan
// applied to exactly one ring's network, sustained traffic on every shard.
// During the fault window the healthy rings must keep delivering; after
// heal and quiescence, every ring's stream must satisfy the per-ring EVS
// axioms and the merged streams the cross-ring total-order axioms. Run
// under -race in CI; reproduce a failure with the same seed constants.
func TestMultiRingChaosSoak(t *testing.T) {
	const (
		seed     = 2016 // the paper's year; any seed must pass
		n        = 3
		rings    = 4
		hurtRing = 3
	)
	soak := 2500 * time.Millisecond
	if testing.Short() {
		soak = 1200 * time.Millisecond
	}

	hubs := make([]*MemoryNetwork, rings)
	for r := range hubs {
		hubs[r] = NewMemoryNetwork(seed + int64(r))
	}
	// The fault plan partitions and heals participants of one ring only;
	// the other rings never see a fault.
	plan := faultplan.Generate(seed, n, soak/2, faultplan.ClassPartition)
	hubs[hurtRing].ApplyFaults(&plan)

	members := make([]ParticipantID, 0, n)
	for i := 1; i <= n; i++ {
		members = append(members, ParticipantID(i))
	}
	taps := make([]*multiRingConformance, n)
	nodes := make([]*MultiNode, 0, n)
	for i, id := range members {
		taps[i] = newMultiRingConformance(fmt.Sprint(id), rings)
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
			SkipInterval:   time.Millisecond,
			OnUnit:         taps[i].onUnit,
			OnConfig:       taps[i].onConfig,
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

	groups := make([]string, rings)
	for r := range groups {
		groups[r] = groupOnShard(t, r, rings)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var submitted atomic.Int64
	for i, mn := range nodes {
		wg.Add(2)
		go func(tap *multiRingConformance, mn *MultiNode) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case ev, ok := <-mn.Events():
					if !ok {
						return
					}
					if m, isMsg := ev.(ShardMessage); isMsg {
						tap.mu.Lock()
						tap.merged = append(tap.merged, m)
						tap.mu.Unlock()
					}
				}
			}
		}(taps[i], mn)
		go func(mn *MultiNode, seed int) {
			defer wg.Done()
			for k := seed; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				// Round-robin the shards; a submit fails transiently while
				// the hurt ring reforms — back off and keep the load up.
				g := groups[k%rings]
				if err := mn.Submit([]string{g}, []byte(fmt.Sprintf("soak-%d-%d", mn.ID(), k)), Agreed); err != nil {
					time.Sleep(2 * time.Millisecond)
					continue
				}
				submitted.Add(1)
				time.Sleep(500 * time.Microsecond)
			}
		}(mn, i)
	}

	// Mid-fault progress check: while the plan is still partitioning the
	// hurt ring, the healthy rings' engines must keep ordering.
	time.Sleep(soak / 4)
	before, err := nodes[0].Metrics()
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	time.Sleep(soak / 4)
	after, err := nodes[0].Metrics()
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	for r := 0; r < rings; r++ {
		if r == hurtRing {
			continue
		}
		if after.Rings[r].Engine.Delivered <= before.Rings[r].Engine.Delivered {
			t.Errorf("healthy ring %d stalled during the fault window: %d -> %d deliveries",
				r, before.Rings[r].Engine.Delivered, after.Rings[r].Engine.Delivered)
		}
	}

	// Let the plan finish, heal the hurt ring, stop the load, and give the
	// cluster time to reform and drain in-flight traffic.
	time.Sleep(soak / 2)
	hubs[hurtRing].ApplyFaults(nil)
	time.Sleep(soak / 2)
	close(stop)
	wg.Wait()
	// Stop the routers before reading the tap logs: the merge goroutines
	// append to them. Close is idempotent, so the Cleanup re-Close is fine.
	for _, mn := range nodes {
		mn.Close()
	}

	if submitted.Load() == 0 {
		t.Fatal("soak submitted nothing")
	}

	// Per-ring EVS conformance: each ring's unit streams across the three
	// nodes form one ordinary single-ring history.
	for r := 0; r < rings; r++ {
		l := evscheck.Log{}
		for i := range taps {
			taps[i].mu.Lock()
			l[taps[i].name] = taps[i].ringLog[r]
			taps[i].mu.Unlock()
		}
		if vs := evscheck.Check(l, evscheck.Options{}); len(vs) != 0 {
			t.Fatalf("ring %d EVS violations (seed %d): %v", r, seed, vs)
		}
	}

	// Cross-ring conformance over the merged streams. The hurt ring's
	// partitions may have legitimately diverged the per-ring histories, so
	// the strict converged mode does not apply — the turn-conditioned
	// axioms must still hold.
	cl := evscheck.CrossLog{}
	total := 0
	for i := range taps {
		taps[i].mu.Lock()
		nl := cl.Node(taps[i].name)
		for _, m := range taps[i].merged {
			nl.Deliver(crossKey(m), m.Ring, m.Turn, m.Shards)
		}
		total += len(taps[i].merged)
		taps[i].mu.Unlock()
	}
	if total == 0 {
		t.Fatal("no merged deliveries during the soak")
	}
	if vs := evscheck.CrossCheck(cl, evscheck.CrossOptions{}); len(vs) != 0 {
		t.Fatalf("cross-ring violations (seed %d): %v", seed, vs)
	}
}
