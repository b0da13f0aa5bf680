// Package hook joins a daemon to the ring node it serves, so that one
// goroutine — the node's protocol loop — runs the ring and the daemon, as
// Spread's daemon runs both from one event loop. It exists because the
// daemon imports the root package, which therefore cannot import the
// daemon: the root package fills Attach at init.
//
// The daemon's inputs (Ring.Post) and its attachment (Attach) go on the
// node's one input queue, the intake, with its Submit and Metrics calls.
//
// Admission has one rule, the one the node's Submit follows: room in the
// backlog is reserved before a submission is queued for the loop, so the
// loop never refuses one. A poster reserves room for what its input will
// submit (Ring.Post), and waits while there is none; the loop, which makes
// room as the ring orders, never waits for it.
package hook

import (
	"accelring/internal/engine"
	"accelring/internal/wire"
)

// Server is the daemon's side. The node's protocol goroutine makes every
// call, so the server's state needs no lock.
type Server interface {
	// Start hands the server the node's side, before any other call.
	Start(r Ring)
	// Deliver applies one ordered message, from inside the loop's execution
	// of the engine's actions: it may Submit, which only queues, but it
	// must not block. payload is valid for the call.
	Deliver(sender wire.ParticipantID, svc wire.Service, payload []byte)
	// Configure applies one configuration change, on the same terms.
	Configure(cfg engine.Configuration, transitional bool)
	// Serve applies one input handed over with Ring.Post.
	Serve(in any)
	// Stop ends the server: the loop has exited and calls nothing more.
	Stop()
}

// Ring is the node's side of an attachment.
type Ring interface {
	// Post queues in on the node's intake for the loop, which passes it to
	// Server.Serve in the order posted. First it reserves room in the
	// node's backlog for the submits messages Serve may Submit for in,
	// under the bound the node's Submit keeps less the daemon's share
	// (Submit), waiting while there is none; an input that submits nothing
	// holds one unit of room, past that bound, while it is queued, so the
	// node's PendingSubmits counts it. Any goroutine but the loop's may
	// call it; it blocks while the intake is full, and reports false,
	// dropping in, once the loop has exited. in must not be nil.
	Post(in any, submits int) bool
	// Waits counts the posts that found no room and waited for it, from
	// when each began to wait. Any goroutine may call it.
	Waits() uint64
	// Submit queues a message for ordering as the node's Submit does, but
	// from the loop: into the pass's hand, stepped at the end of the pass.
	// Inside Serve it spends the room the input's Post reserved, and the
	// loop releases what the input did not spend. A submission with no
	// reservation left — the daemon's own leaves and re-announced joins —
	// is admitted past the client bound, into the share of the engine's
	// bound kept for it. It answers only a message the engine would refuse
	// whatever its backlog. Loop only.
	Submit(payload []byte, svc wire.Service) error
	// Metrics is the node's metrics snapshot, taken on the loop. Loop only.
	Metrics() any
}

// Attach makes s the server of node, an *accelring.Node, once the loop has
// started it. The loop's events go to s from then on, those it queued on
// the node's Events channel before included; the node's Events channel
// receives nothing more. It fails when the node has closed.
var Attach func(node any, s Server) error
