package accelring

import "time"

// Liveness watchdog. The protocol loop is a single goroutine; if it
// wedges — most plausibly blocked handing an ordered event to an
// application that stopped draining Events, or stuck in a pathological
// transport call — every in-band health check (Stats, Metrics) hangs with
// it, and Submit does once its queue is full. The watchdog therefore never touches the loop: it
// samples the loop's atomic progress counters and the queues feeding it,
// and flags a stall when a full interval passes with pending work but no
// progress. An idle ring (no pending work) is never a stall.

// StallReport describes one stalled watchdog check.
type StallReport struct {
	// Interval is the watchdog's check interval: no progress was observed
	// for at least this long.
	Interval time.Duration
	// PendingData, PendingToken and PendingTimers are the queue depths the
	// stalled loop owes work for: undrained data and token packets, and
	// timer expiries recorded but not consumed.
	PendingData   int
	PendingToken  int
	PendingTimers int
	// PendingSubmits is the number of submissions Submit accepted that
	// wait for the loop: messages the application was told are queued.
	PendingSubmits int
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
func (n *Node) pendingWork() (data, token, timers, submits int, evFull bool) {
	data = len(n.tr.Data())
	token = len(n.tr.Token())
	timers = n.timers.pendingFires()
	submits = len(n.submitCh)
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
