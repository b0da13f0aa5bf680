package accelring

import "time"

// Liveness watchdog. The protocol loop is a single goroutine; it wedges
// most plausibly blocked handing an ordered event to an application that
// stopped draining Events, or stuck in a pathological transport call.
// Blocked on Events, it still takes its intake, so Metrics answers and
// shows the full queue, but nothing it owes moves. Stuck anywhere else,
// every in-band health check (Stats, Metrics) hangs with it, and Submit
// does once the intake is full. The watchdog therefore never touches the
// loop: it samples the loop's atomic progress counters and the queues
// feeding it, and flags a stall when a full interval passes with pending
// work but no progress. An idle ring (no pending work) is never a stall.

// StallReport describes one stalled watchdog check.
type StallReport struct {
	// Interval is the watchdog's check interval: no progress was observed
	// for at least this long.
	Interval time.Duration
	// PendingData and PendingToken are the queue depths the stalled loop
	// owes work for, as RuntimeMetrics counts them: the receive runs queued
	// on the data and token channels plus the datagrams left of the run the
	// loop holds.
	PendingData  int
	PendingToken int
	// PendingTimers is 1 while the loop owes timer work: a kind is due or a
	// timer's step runs. An early wake holds it until the loop's next pass.
	PendingTimers int
	// PendingSubmits is the room reserved in the node's backlog for work
	// the loop has not done: one per submission Submit accepted that the
	// loop has not stepped (queued, taken into hand while the loop waited
	// on a full Events channel, or held by a submitter parked on a full
	// queue). On a node a daemon serves it also counts what the client
	// input queued for the loop holds: the room a session burst reserved
	// for its submissions and has not spent, or one for an input that
	// submits nothing (a disconnect, a resume-window expiry, a drain).
	PendingSubmits int
	// EventQueueFull reports that the Events channel was at capacity — the
	// classic wedge: the application stopped draining and the loop is
	// blocked mid-delivery.
	EventQueueFull bool
}

// progress sums the counters that advance whenever the protocol loop
// completes work of any kind — a packet it could not decode and discarded
// included, and a daemon's input that submitted nothing. Strictly
// monotone; sampled lock-free.
func (m *nodeMetrics) progress() uint64 {
	sum := m.timerFires.Load() + m.submits.Load() + m.submitErrors.Load() +
		m.eventsDelivered.Load() + m.decodeFailures.Load() + m.inputs.Load()
	for i := range m.pkts {
		sum += m.pkts[i].Load()
	}
	return sum
}

// pendingWork samples the work queued for the protocol loop without
// involving it.
func (n *Node) pendingWork() (data, token, timers, submits int, evFull bool) {
	data = len(n.tr.Data()) + n.dataRun.pending()
	token = len(n.tr.Token()) + n.tokenRun.pending()
	timers = len(n.timers.wake)
	submits = int(n.reserved.Load())
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
		data, token, timers, submits, evFull := n.pendingWork()
		if cur == last && (data > 0 || token > 0 || timers > 0 || submits > 0 || evFull) {
			n.nm.watchdogStalls.Inc()
			if onStall != nil {
				onStall(StallReport{
					Interval:       interval,
					PendingData:    data,
					PendingToken:   token,
					PendingTimers:  timers,
					PendingSubmits: submits,
					EventQueueFull: evFull,
				})
			}
		}
		last = cur
	}
}
