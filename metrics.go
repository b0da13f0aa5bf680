package accelring

import (
	"time"

	"accelring/internal/core"
	"accelring/internal/metrics"
	"accelring/internal/transport"
	"accelring/internal/wire"
)

// HistogramSnapshot re-exports the metrics histogram snapshot so
// applications can consume Node metrics without importing internal
// packages.
type HistogramSnapshot = metrics.HistogramSnapshot

// TransportSnapshot re-exports the transport loss-accounting snapshot.
type TransportSnapshot = transport.Snapshot

// PoolSnapshot re-exports the packet buffer pool counters.
type PoolSnapshot = transport.PoolSnapshot

// RuntimeMetrics is the runtime-loop section of a MetricsSnapshot: what
// the protocol goroutine and its timers observed, as opposed to the
// engine's protocol-level counters.
type RuntimeMetrics struct {
	// Packets handled, by wire kind, after successful decode. Engine
	// control frames share the data socket and count as data.
	PacketsData   uint64 `json:"packets_data"`
	PacketsToken  uint64 `json:"packets_token"`
	PacketsJoin   uint64 `json:"packets_join"`
	PacketsCommit uint64 `json:"packets_commit"`
	// DecodeFailures counts received packets that failed header or body
	// decoding (each also lands in the error ring).
	DecodeFailures uint64 `json:"decode_failures"`
	// EncodeFailures and SendFailures count engine actions that could not
	// be carried out.
	EncodeFailures uint64 `json:"encode_failures"`
	SendFailures   uint64 `json:"send_failures"`
	// SendBursts counts the runs of consecutive SendData actions, each
	// sent as one Multicast vector — every data run, runs of one included;
	// SendBurstMsgs is the total frames those runs carried (so
	// SendBurstMsgs/SendBursts is the mean run length the engine produced).
	SendBursts    uint64 `json:"send_bursts"`
	SendBurstMsgs uint64 `json:"send_burst_msgs"`
	// TimerFires counts timer expiries executed; TimerCancels counts
	// CancelTimer actions.
	TimerFires   uint64 `json:"timer_fires"`
	TimerCancels uint64 `json:"timer_cancels"`
	// Submits and SubmitErrors count queued submissions the engine accepted
	// and refused. Submit answers invalid ones and a full backlog itself,
	// before queueing, so SubmitErrors stays zero unless the engine
	// disagrees with Submit's checks.
	Submits      uint64 `json:"submits"`
	SubmitErrors uint64 `json:"submit_errors"`
	// EventsDelivered counts ordered events handed to the application: on
	// a node a daemon serves, handed to the daemon.
	EventsDelivered uint64 `json:"events_delivered"`
	// WatchdogChecks and WatchdogStalls count liveness watchdog samples
	// and the subset that found the protocol loop frozen with work
	// pending. Zero when Options.WatchdogInterval is unset.
	WatchdogChecks uint64 `json:"watchdog_checks,omitempty"`
	WatchdogStalls uint64 `json:"watchdog_stalls,omitempty"`
	// Instantaneous queue depths at snapshot time: events, and for the
	// data and token sockets the receive runs queued on the transport's
	// channel plus the datagrams left of the run the loop is stepping (a
	// lone datagram is a run of one).
	EventQueueLen int `json:"event_queue_len"`
	DataQueueLen  int `json:"data_queue_len"`
	TokenQueueLen int `json:"token_queue_len"`
	// TokenRotation is the distribution of intervals between consecutive
	// accepted tokens at this node — the token rotation time the paper's
	// evaluation is built around (Sections IV–V). TokenHandle is the time
	// spent processing one accepted token (decode through action
	// execution), the per-hop cost of a rotation.
	TokenRotation HistogramSnapshot `json:"token_rotation"`
	TokenHandle   HistogramSnapshot `json:"token_handle"`
}

// MetricsSnapshot is a full observability snapshot of a running node:
// engine counters, runtime-loop counters, transport loss accounting, and
// the recent-error ring. It marshals directly to JSON.
type MetricsSnapshot struct {
	// EngineName identifies the ordering engine producing the Engine
	// counters ("accelring" or "ringpaxos").
	EngineName string `json:"engine_name"`
	Engine     Stats  `json:"engine"`
	// Paxos carries the Ring Paxos engine's protocol-specific counters
	// (view installs, phase rounds, quorum latency); nil for accelring.
	Paxos     *PaxosStats        `json:"paxos,omitempty"`
	Runtime   RuntimeMetrics     `json:"runtime"`
	Transport *TransportSnapshot `json:"transport,omitempty"`
	// BufferPool is the process-wide packet buffer pool's recycling
	// counters. The pool is shared by every node and built-in transport in
	// the process, so the numbers are global, not per-node: a hit rate
	// near 1 means the receive path is running allocation-free.
	BufferPool PoolSnapshot `json:"buffer_pool"`
	// ErrorCount counts every error the protocol loop observed;
	// RecentErrors holds the most recent ones, oldest first.
	ErrorCount   uint64   `json:"error_count"`
	RecentErrors []string `json:"recent_errors,omitempty"`
}

// nodeMetrics is the runtime's hot-path instrumentation: all atomic, so
// the protocol goroutine writes without locks and any goroutine snapshots
// without stopping it.
type nodeMetrics struct {
	pkts            [wire.KindControl + 1]metrics.Counter // by wire kind
	decodeFailures  metrics.Counter
	encodeFailures  metrics.Counter
	sendFailures    metrics.Counter
	sendBursts      metrics.Counter
	sendBurstMsgs   metrics.Counter
	timerFires      metrics.Counter
	timerCancels    metrics.Counter
	submits         metrics.Counter
	submitErrors    metrics.Counter
	eventsDelivered metrics.Counter
	inputs          metrics.Counter // the daemon's inputs applied (hook)
	postWaits       metrics.Counter // the daemon's posts that waited for room (hook)
	watchdogChecks  metrics.Counter
	watchdogStalls  metrics.Counter
	errors          metrics.Counter
	tokenRotation   *metrics.Histogram
	tokenHandle     *metrics.Histogram
}

func newNodeMetrics() *nodeMetrics {
	return &nodeMetrics{
		// Rotation spans fast-LAN rings (~hundreds of µs) through WAN-ish
		// or degraded ones: 50µs..~1.6s.
		tokenRotation: metrics.NewHistogram(50*time.Microsecond, 15),
		// Per-token processing cost: 1µs..~32ms.
		tokenHandle: metrics.NewHistogram(time.Microsecond, 15),
	}
}

// runtimeSnapshot assembles the RuntimeMetrics section; queue depths are
// read live from the node's channels.
func (m *nodeMetrics) runtimeSnapshot(n *Node) RuntimeMetrics {
	return RuntimeMetrics{
		PacketsData:     m.pkts[wire.KindData].Load() + m.pkts[wire.KindControl].Load(),
		PacketsToken:    m.pkts[wire.KindToken].Load(),
		PacketsJoin:     m.pkts[wire.KindJoin].Load(),
		PacketsCommit:   m.pkts[wire.KindCommit].Load(),
		DecodeFailures:  m.decodeFailures.Load(),
		EncodeFailures:  m.encodeFailures.Load(),
		SendFailures:    m.sendFailures.Load(),
		SendBursts:      m.sendBursts.Load(),
		SendBurstMsgs:   m.sendBurstMsgs.Load(),
		TimerFires:      m.timerFires.Load(),
		TimerCancels:    m.timerCancels.Load(),
		Submits:         m.submits.Load(),
		SubmitErrors:    m.submitErrors.Load(),
		EventsDelivered: m.eventsDelivered.Load(),
		WatchdogChecks:  m.watchdogChecks.Load(),
		WatchdogStalls:  m.watchdogStalls.Load(),
		EventQueueLen:   len(n.events),
		DataQueueLen:    len(n.tr.Data()) + n.dataRun.pending(),
		TokenQueueLen:   len(n.tr.Token()) + n.tokenRun.pending(),
		TokenRotation:   m.tokenRotation.Snapshot(),
		TokenHandle:     m.tokenHandle.Snapshot(),
	}
}

// Metrics returns a full observability snapshot: the engine's protocol
// counters (fetched synchronously from the protocol loop, in order with
// the submissions queued for it), the runtime's atomic counters, and the
// transport's loss accounting.
func (n *Node) Metrics() (MetricsSnapshot, error) {
	ch := make(chan core.Snapshot, 1)
	if !n.enqueue(entry{in: ch}) {
		return MetricsSnapshot{}, ErrClosed
	}
	select {
	case st := <-ch:
		return n.metrics(st), nil
	case <-n.done:
		return MetricsSnapshot{}, ErrClosed
	}
}

// metrics assembles the snapshot around the engine's, which the protocol
// goroutine took: through Metrics, or itself for the daemon it runs.
func (n *Node) metrics(st core.Snapshot) MetricsSnapshot {
	snap := MetricsSnapshot{
		EngineName:   string(n.engine),
		Engine:       st.Stats,
		Runtime:      n.nm.runtimeSnapshot(n),
		BufferPool:   transport.Buffers.Snapshot(),
		ErrorCount:   n.nm.errors.Load(),
		RecentErrors: n.recentErrors(),
	}
	if px, ok := st.Extra.(PaxosStats); ok {
		snap.Paxos = &px
	}
	ts := n.tr.MetricsSnapshot()
	snap.Transport = &ts
	return snap
}

// recentErrors returns the messages of the recent-error ring, oldest
// first.
func (n *Node) recentErrors() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []string
	for i := range n.errs {
		out = append(out, n.errs[(n.errHead+i)%len(n.errs)].Error())
	}
	return out
}
