package accelring

import (
	"accelring/internal/metrics"
)

// Per-ring observability. Every ring owns a private metrics registry (its
// node's engine counters, runtime counters and histograms), so one ring's
// traffic can never contaminate another's numbers; the merged view is
// computed at snapshot time by summation. The one deliberately shared
// registry is the process-wide packet buffer pool — it is global by
// design, and the merge reports it once instead of once per ring, which
// would multiply-count every recycle.

// RingMetrics is one ring's labeled metrics snapshot.
type RingMetrics struct {
	// Ring is the shard index.
	Ring int `json:"ring"`
	MetricsSnapshot
}

// MultiMetricsSnapshot is the full observability snapshot of a multi-ring
// node: the per-ring breakdown, the merged view, and the merge layer's own
// counters.
type MultiMetricsSnapshot struct {
	Rings  []RingMetrics   `json:"rings"`
	Merged MetricsSnapshot `json:"merged"`
	Router RouterSnapshot  `json:"router"`
	// ShardChecks and ShardStalls are the cross-ring watchdog's counters:
	// relative-progress checks, and rings caught frozen while a sibling
	// ring kept rotating its token. Zero when the watchdog is disabled.
	ShardChecks uint64 `json:"shard_checks,omitempty"`
	ShardStalls uint64 `json:"shard_stalls,omitempty"`
}

// Metrics returns the per-ring breakdown plus the merged view. Each ring's
// snapshot is fetched synchronously from that ring's protocol loop.
func (mn *MultiNode) Metrics() (MultiMetricsSnapshot, error) {
	out := MultiMetricsSnapshot{
		Rings:       make([]RingMetrics, 0, len(mn.nodes)),
		Router:      mn.router.Snapshot(),
		ShardChecks: mn.shardChecks.Load(),
		ShardStalls: mn.shardStalls.Load(),
	}
	snaps := make([]MetricsSnapshot, 0, len(mn.nodes))
	for i, n := range mn.nodes {
		s, err := n.Metrics()
		if err != nil {
			return MultiMetricsSnapshot{}, err
		}
		out.Rings = append(out.Rings, RingMetrics{Ring: i, MetricsSnapshot: s})
		snaps = append(snaps, s)
	}
	out.Merged = MergeMetricsSnapshots(snaps...)
	return out, nil
}

// MergeMetricsSnapshots sums per-ring node snapshots into one aggregate
// view. Counters add; histograms merge bucket-wise; the AccelWindow gauge
// reports the largest ring's window; transport counters add across rings
// (each ring has its own sockets); the buffer pool — process-global, shared
// by every ring by design — is reported once, not summed. The per-ring
// error rings are not concatenated into the merged view (counts still add);
// read them from the per-ring snapshots, where the ring label gives them
// meaning.
func MergeMetricsSnapshots(snaps ...MetricsSnapshot) MetricsSnapshot {
	var out MetricsSnapshot
	rot := make([]HistogramSnapshot, 0, len(snaps))
	hnd := make([]HistogramSnapshot, 0, len(snaps))
	anyTransport := false
	var tr TransportSnapshot
	for i, s := range snaps {
		e, m := &out.Engine, s.Engine
		e.TokensProcessed += m.TokensProcessed
		e.TokensDuplicate += m.TokensDuplicate
		e.TokenRetransmits += m.TokenRetransmits
		e.MsgsSent += m.MsgsSent
		e.MsgsPostToken += m.MsgsPostToken
		e.MsgsRetransmitted += m.MsgsRetransmitted
		e.MsgsReceived += m.MsgsReceived
		e.MsgsDuplicate += m.MsgsDuplicate
		e.RTRRequested += m.RTRRequested
		e.RTRDeferredRounds += m.RTRDeferredRounds
		e.FlowThrottledRounds += m.FlowThrottledRounds
		e.AccelFlushes += m.AccelFlushes
		e.Delivered += m.Delivered
		e.PayloadsPacked += m.PayloadsPacked
		e.SafeDelivered += m.SafeDelivered
		e.Discarded += m.Discarded
		e.MembershipChanges += m.MembershipChanges
		if m.AccelWindow > e.AccelWindow {
			e.AccelWindow = m.AccelWindow
		}
		e.WindowDecreases += m.WindowDecreases
		e.WindowIncreases += m.WindowIncreases

		r, n := &out.Runtime, s.Runtime
		r.PacketsData += n.PacketsData
		r.PacketsToken += n.PacketsToken
		r.PacketsJoin += n.PacketsJoin
		r.PacketsCommit += n.PacketsCommit
		r.DecodeFailures += n.DecodeFailures
		r.EncodeFailures += n.EncodeFailures
		r.SendFailures += n.SendFailures
		r.TimerFires += n.TimerFires
		r.TimerStaleDrops += n.TimerStaleDrops
		r.TimerCancels += n.TimerCancels
		r.Submits += n.Submits
		r.SubmitErrors += n.SubmitErrors
		r.EventsDelivered += n.EventsDelivered
		r.WatchdogChecks += n.WatchdogChecks
		r.WatchdogStalls += n.WatchdogStalls
		r.EventQueueLen += n.EventQueueLen
		r.DataQueueLen += n.DataQueueLen
		r.TokenQueueLen += n.TokenQueueLen
		rot = append(rot, n.TokenRotation)
		hnd = append(hnd, n.TokenHandle)

		if s.Transport != nil {
			anyTransport = true
			tr.DatagramsIn += s.Transport.DatagramsIn
			tr.DatagramsOut += s.Transport.DatagramsOut
			tr.RecvQueueDrops += s.Transport.RecvQueueDrops
			tr.KernelRecvDrops += s.Transport.KernelRecvDrops
			tr.FanoutSends += s.Transport.FanoutSends
			tr.SelfFiltered += s.Transport.SelfFiltered
		}
		out.ErrorCount += s.ErrorCount
		if i == 0 {
			out.BufferPool = s.BufferPool
		}
	}
	out.Runtime.TokenRotation = metrics.MergeHistograms(rot...)
	out.Runtime.TokenHandle = metrics.MergeHistograms(hnd...)
	if anyTransport {
		out.Transport = &tr
	}
	return out
}
