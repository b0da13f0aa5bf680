package ipc

import (
	"encoding/json"

	"accelring/internal/fanout"
)

// ClientStats is one connected client's activity as the daemon sees it:
// its submissions into the ring and its fan-out subscriber's counters.
type ClientStats struct {
	// Submits counts multicasts this client submitted into the ring.
	Submits uint64 `json:"submits"`
	fanout.Stats
}

// StatsSnapshot is the JSON body of an EvtStats frame: the daemon's view
// of its clients and groups, its fan-out tier, and the embedded ring
// node's full metrics snapshot. Node is kept as raw JSON so this package
// does not depend on the node's metrics types; callers that want it
// decoded unmarshal it into accelring.MetricsSnapshot.
type StatsSnapshot struct {
	// Daemon is the ring participant ID serving this snapshot.
	Daemon string `json:"daemon"`
	// Sessions counts connected clients; Groups counts groups with at
	// least one member anywhere on the ring.
	Sessions int `json:"sessions"`
	Groups   int `json:"groups"`
	// Detached counts sessions whose connection dropped but whose delivery
	// state is being held for the resume window. It counts sessions, not
	// queues: Fanout.Detached counts the live held queues, which is fewer
	// once a held session's queue is killed.
	Detached int `json:"detached,omitempty"`
	// Draining reports that the daemon has begun a graceful drain.
	Draining bool `json:"draining,omitempty"`
	// Fanout is the client delivery tier's aggregate snapshot: policy,
	// subscriptions, delivery, shed and disconnect totals, and the
	// daemon's resume, drain and ingest accounting.
	Fanout fanout.TierSnapshot `json:"fanout"`
	// Clients maps each local client's private name to its counters. At
	// serving scale the daemon omits this map rather than emit a snapshot
	// frame that can't fit MaxFrame: ClientsOmitted reports how many
	// sessions went unlisted (Fanout still covers them).
	Clients        map[string]ClientStats `json:"clients,omitempty"`
	ClientsOmitted int                    `json:"clients_omitted,omitempty"`
	// Node is the ring node's metrics snapshot (accelring.MetricsSnapshot).
	Node json.RawMessage `json:"node,omitempty"`
}
