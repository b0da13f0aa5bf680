package accelring

import (
	"time"

	"accelring/internal/wire"
)

// Liveness watchdog. The protocol loop is a single goroutine; if it
// wedges — most plausibly blocked handing an ordered event to an
// application that stopped draining Events, or stuck in a pathological
// transport call — every in-band health check (Submit, Stats, Metrics)
// hangs with it. The watchdog therefore never touches the loop: it
// samples the loop's atomic progress counters and the queues feeding it,
// and flags a stall when a full interval passes with pending work but no
// progress. An idle ring (no pending work) is never a stall.

// StallReport describes one stalled watchdog check.
type StallReport struct {
	// Ring is the shard index when a multi-ring shard watchdog flagged one
	// frozen ring, and -1 for a single node's own protocol loop.
	Ring int
	// Interval is the watchdog's check interval: no progress was observed
	// for at least this long.
	Interval time.Duration
	// PendingData, PendingToken and PendingTimers are the queue depths the
	// stalled loop owes work for: undrained data and token packets, and
	// timer expiries recorded but not consumed.
	PendingData   int
	PendingToken  int
	PendingTimers int
	// EventQueueFull reports that the Events channel was at capacity — the
	// classic wedge: the application stopped draining and the loop is
	// blocked mid-delivery.
	EventQueueFull bool
}

// progress sums the counters that advance whenever the protocol loop
// completes work of any kind. Strictly monotone; sampled lock-free.
func (m *nodeMetrics) progress() uint64 {
	sum := m.timerFires.Load() + m.submits.Load() +
		m.submitErrors.Load() + m.eventsDelivered.Load()
	for i := range m.pkts {
		sum += m.pkts[i].Load()
	}
	return sum
}

// pendingWork samples the work queued for the protocol loop without
// involving it.
func (n *Node) pendingWork() (data, token, timers int, evFull bool) {
	data = len(n.tr.Data())
	token = len(n.tr.Token())
	timers = n.timers.pendingFires()
	evFull = len(n.events) == cap(n.events)
	return
}

// watchdog runs until the node closes, checking every interval. A
// deliberately wedged loop is flagged within two intervals: the first
// tick records the (possibly still-advancing) progress sample, the next
// tick observes it frozen with work pending.
func (n *Node) watchdog(interval time.Duration, onStall func(StallReport)) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	last := n.nm.progress()
	for {
		select {
		case <-n.done:
			return
		case <-tick.C:
		}
		n.nm.watchdogChecks.Inc()
		cur := n.nm.progress()
		data, token, timers, evFull := n.pendingWork()
		if cur == last && (data > 0 || token > 0 || timers > 0 || evFull) {
			n.nm.watchdogStalls.Inc()
			if onStall != nil {
				onStall(StallReport{
					Ring:           -1,
					Interval:       interval,
					PendingData:    data,
					PendingToken:   token,
					PendingTimers:  timers,
					EventQueueFull: evFull,
				})
			}
		}
		last = cur
	}
}

// shardWatchdog is the multi-ring cross-check: each ring already runs its
// own single-node watchdog, but a ring can also freeze in ways that look
// idle from inside (token lost with failure detection disarmed, transport
// silently dead). Relative progress exposes it: if any ring kept making
// progress over an interval while another ring — previously progressing —
// froze, that shard is stalled relative to the deployment and the merged
// total order is held up behind its skip units.
//
// The per-ring progress probe depends on the engine. A steady-rotation
// engine (accelring) circulates its token even when idle, so a frozen
// token counter alone is a stall. An event-driven engine (ringpaxos)
// deliberately pauses its ring when there is nothing to order, so a
// frozen counter is normal; such a ring is flagged only when its overall
// progress is frozen while it still owes work (queued packets, pending
// timer fires, or a full events channel).
func (mn *MultiNode) shardWatchdog(interval time.Duration, onStall func(StallReport)) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	probe := func(n *Node) uint64 {
		if n.steadyRotation {
			return n.nm.pkts[wire.KindToken].Load()
		}
		return n.nm.progress()
	}
	last := make([]uint64, len(mn.nodes))
	cur := make([]uint64, len(mn.nodes))
	for i, n := range mn.nodes {
		last[i] = probe(n)
	}
	for {
		select {
		case <-mn.router.Done():
			return
		case <-tick.C:
		}
		mn.shardChecks.Add(1)
		advanced := false
		for i, n := range mn.nodes {
			cur[i] = probe(n)
			if cur[i] > last[i] {
				advanced = true
			}
		}
		if advanced {
			for i, n := range mn.nodes {
				if cur[i] != last[i] {
					continue
				}
				if n.steadyRotation {
					// Only a ring that was rotating before (last > 0) can
					// stall; a ring that never formed is a startup
					// condition, not a wedge.
					if last[i] == 0 {
						continue
					}
					mn.shardStalls.Add(1)
					if onStall != nil {
						onStall(StallReport{Ring: i, Interval: interval})
					}
					continue
				}
				// Event-driven ring: frozen is fine unless it owes work.
				data, token, timers, evFull := n.pendingWork()
				if data == 0 && token == 0 && timers == 0 && !evFull {
					continue
				}
				mn.shardStalls.Add(1)
				if onStall != nil {
					onStall(StallReport{
						Ring:           i,
						Interval:       interval,
						PendingData:    data,
						PendingToken:   token,
						PendingTimers:  timers,
						EventQueueFull: evFull,
					})
				}
			}
		}
		copy(last, cur)
	}
}
