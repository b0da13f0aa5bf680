package multiring

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"accelring/internal/metrics"
	"accelring/internal/wire"
)

// RingHandle is the addressable unit the router drives: one ordering
// engine instance bound to its own transport. It makes the engine⇄runtime
// contract explicit — the router needs exactly a way to inject a payload
// into the ring's total order and a way to shut the instance down; the
// delivery side arrives pre-tagged on the router's event channel.
type RingHandle struct {
	// Submit queues a payload for totally ordered multicast on this ring.
	Submit func(payload []byte, service wire.Service) error
	// Close stops the ring instance. May be nil when the caller owns ring
	// lifecycle itself.
	Close func() error
}

// RingEvent is one event of a single ring's delivery stream, as fed to the
// router: either an ordered data message (the routed envelope inside an
// application payload) or a configuration change.
type RingEvent struct {
	// Config marks a membership event; the message fields are then unused
	// and vice versa.
	Config bool

	// Sender and Service describe a delivered data message; Payload is the
	// enveloped payload, owned by the router from here on.
	Sender  wire.ParticipantID
	Service wire.Service
	Payload []byte

	// ID, Members and Transitional describe a configuration event.
	ID           wire.RingID
	Members      []wire.ParticipantID
	Transitional bool
}

// TaggedEvent is a RingEvent labeled with its ring index, the element type
// of the router's single muxed input channel.
type TaggedEvent struct {
	Ring  int
	Event RingEvent
}

// Delivery is one message of the merged, cross-shard total order.
type Delivery struct {
	// Ring is the ring whose copy completed the message; Turn is the
	// global merge turn it was emitted at (strictly increasing per node,
	// identical across nodes that consumed identical per-ring streams).
	Ring int
	Turn uint64
	// Sender and SenderSeq identify the message globally.
	Sender    wire.ParticipantID
	SenderSeq uint64
	// Shards is the number of rings the message was ordered on.
	Shards int
	// Groups are the destination groups it was submitted to.
	Groups []string
	// Service is the delivery guarantee it was submitted with.
	Service wire.Service
	// Payload is the application payload.
	Payload []byte
}

// ConfigUpdate reports a membership change on one ring. Configuration
// events are per-ring and forwarded as they happen; they are not part of
// the cross-shard total order.
type ConfigUpdate struct {
	Ring         int
	ID           wire.RingID
	Members      []wire.ParticipantID
	Transitional bool
}

// ErrClosed is returned by submissions to a router that has stopped.
var ErrClosed = errors.New("multiring: router closed")

// Event is a merged-stream occurrence: a Delivery or a ConfigUpdate.
type Event interface {
	isEvent()
}

func (Delivery) isEvent()     {}
func (ConfigUpdate) isEvent() {}

// Options configures a Router.
type Options struct {
	// Rings are the ring instances, in shard order. Required, at least one.
	Rings []RingHandle
	// Events is the muxed stream of per-ring events. Each ring's events
	// must arrive in that ring's delivery order; interleaving across rings
	// is arbitrary. Closing the channel ends the router cleanly. Required.
	Events <-chan TaggedEvent
	// LocalID is this node's participant ID, used as the sender identity
	// of submitted messages and skips.
	LocalID wire.ParticipantID
	// SubmitSkips makes this node the skip leader: its router answers
	// starved rings with skip units. Exactly correct with any number of
	// leaders (skips are ordered messages; extras are padding), but one
	// per deployment avoids chatter — conventionally the lowest member ID.
	SubmitSkips bool
	// SkipInterval is the starvation poll period (default 2ms).
	SkipInterval time.Duration
	// MaxSkipBatch bounds the turn count of one skip unit (default 1024).
	MaxSkipBatch uint32
	// EventBuffer is the merged output channel capacity (default 4096).
	EventBuffer int
	// OnUnit, when non-nil, observes every decoded unit of every ring in
	// that ring's delivery order, before merging. Called on the merge
	// goroutine; the conformance harness builds exact per-ring logs here.
	OnUnit func(ring int, u Unit)
	// OnConfig, when non-nil, observes per-ring configuration events in
	// order, on the merge goroutine.
	OnConfig func(ev ConfigUpdate)
}

// Snapshot is a point-in-time copy of the router's merge-layer counters.
type Snapshot struct {
	Rings int `json:"rings"`
	// Submits counts application messages routed (SubmitErrors the ones
	// that failed on at least one ring).
	Submits      uint64 `json:"submits"`
	SubmitErrors uint64 `json:"submit_errors"`
	// UnitsIn counts decoded units per ring; Merged counts messages
	// emitted in the cross-shard order; Turns is the global merge turn.
	UnitsIn []uint64 `json:"units_in"`
	Merged  uint64   `json:"merged_deliveries"`
	Turns   uint64   `json:"merge_turns"`
	// SkipsConsumed counts skip units merged away; SkipsSubmitted counts
	// skip units this node initiated; SkipSubmitErrors counts initiations
	// rejected by a ring.
	SkipsConsumed    uint64 `json:"skips_consumed"`
	SkipsSubmitted   uint64 `json:"skips_submitted"`
	SkipSubmitErrors uint64 `json:"skip_submit_errors"`
	// StarvedTicks counts skip-poll ticks that found at least one starved
	// ring; MultiShardPending is the number of multi-shard messages still
	// waiting for copies.
	StarvedTicks      uint64 `json:"starved_ticks"`
	MultiShardPending int    `json:"multi_shard_pending"`
	// DecodeFailures counts delivered payloads that were not well-formed
	// envelopes (each is merged as a one-turn skip to keep all nodes'
	// turn arithmetic aligned).
	DecodeFailures uint64 `json:"decode_failures"`
	// ConfigsForwarded counts per-ring configuration events passed through.
	ConfigsForwarded uint64 `json:"configs_forwarded"`
}

// Router drives M ring instances and exposes their merged total order.
type Router struct {
	opts   Options
	merger *Merger
	out    chan Event

	// submitSem (capacity 1) guards enqueue; seq is the submission
	// counter, shared across rings. A channel rather than a sync.Mutex so
	// that a waiter gives up when the router stops.
	submitSem chan struct{}
	seq       uint64

	// skipCh hands the skipper goroutine one tick's starved rings. The
	// merge goroutine must never wait on submitSem itself: the holder may
	// be blocked on a ring whose backpressure only the merge relieves.
	skipCh      chan skipBatch
	skipperDone chan struct{}

	stopCh   chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	// counters (atomic: written on the merge goroutine or submitters,
	// snapshotted from anywhere)
	submits, submitErrors    metrics.Counter
	unitsIn                  []metrics.Counter
	merged                   metrics.Counter
	skipsConsumed            metrics.Counter
	skipsSubmitted, skipErrs metrics.Counter
	starvedTicks             metrics.Counter
	decodeFailures           metrics.Counter
	configsForwarded         metrics.Counter
	turnsGauge, pendingGauge metrics.Gauge
}

// NewRouter starts a router over the given rings. It owns the merge
// goroutine until Close or until the event channel closes.
func NewRouter(opts Options) (*Router, error) {
	if len(opts.Rings) == 0 {
		return nil, errors.New("multiring: at least one ring required")
	}
	if len(opts.Rings) > 255 {
		return nil, fmt.Errorf("multiring: %d rings exceeds the envelope's shard limit", len(opts.Rings))
	}
	if opts.Events == nil {
		return nil, errors.New("multiring: Options.Events is required")
	}
	if opts.SkipInterval <= 0 {
		opts.SkipInterval = 2 * time.Millisecond
	}
	if opts.MaxSkipBatch == 0 {
		opts.MaxSkipBatch = 1024
	}
	if opts.EventBuffer <= 0 {
		opts.EventBuffer = 4096
	}
	r := &Router{
		opts:    opts,
		merger:  NewMerger(len(opts.Rings)),
		out:     make(chan Event, opts.EventBuffer),
		stopCh:  make(chan struct{}),
		done:    make(chan struct{}),
		unitsIn: make([]metrics.Counter, len(opts.Rings)),

		submitSem:   make(chan struct{}, 1),
		skipCh:      make(chan skipBatch),
		skipperDone: make(chan struct{}),
	}
	go r.run()
	go r.skipper()
	return r, nil
}

// Shards returns the number of rings.
func (r *Router) Shards() int { return len(r.opts.Rings) }

// ShardOf maps a group onto this router's shard space.
func (r *Router) ShardOf(group string) int { return ShardOf(group, len(r.opts.Rings)) }

// Events returns the merged cross-shard stream. The channel is closed when
// the router shuts down.
func (r *Router) Events() <-chan Event { return r.out }

// Done is closed when the merge goroutine has exited; event producers use
// it to abandon sends into a stopped router.
func (r *Router) Done() <-chan struct{} { return r.done }

// Submit routes one application message: the destination groups are hashed
// onto their shards and one enveloped copy is submitted to each addressed
// ring — rings no group maps to are not involved. Multi-shard submission
// is not atomic: a failure on a later ring may leave copies on earlier
// ones, which then occupy one turn each but are never emitted (the same
// outcome as a submitter crashing mid-message).
func (r *Router) Submit(groups []string, payload []byte, service wire.Service) error {
	if len(groups) == 0 {
		return errors.New("multiring: at least one destination group required")
	}
	return r.submit(r.shardsOf(groups), groups, payload, service)
}

// SubmitShard routes one message to an explicit ring, bypassing the group
// hash (benchmarks and tests address shards directly).
func (r *Router) SubmitShard(ring int, group string, payload []byte, service wire.Service) error {
	if ring < 0 || ring >= len(r.opts.Rings) {
		return fmt.Errorf("multiring: ring %d out of range [0,%d)", ring, len(r.opts.Rings))
	}
	return r.submit([]int{ring}, []string{group}, payload, service)
}

// submit enqueues one application message on the given rings and counts
// the outcome.
func (r *Router) submit(rings []int, groups []string, payload []byte, service wire.Service) error {
	err := r.enqueue(rings, service, func(key MsgKey) ([]byte, error) {
		return AppendMessageEnvelope(nil, key, len(rings), groups, payload)
	})
	if err != nil {
		r.submitErrors.Inc()
		return err
	}
	r.submits.Inc()
	return nil
}

// enqueue assigns the next sender sequence to one unit and submits its
// envelope to the given rings, all inside one critical section. Every
// producer of this node's units — application goroutines and the skip
// ticker — goes through here, so a ring can never be handed sequence N+1
// before N: taking the number and enqueueing as two steps let two
// producers swap, which broke per-sender FIFO on the ring.
func (r *Router) enqueue(rings []int, service wire.Service, envelope func(MsgKey) ([]byte, error)) error {
	select {
	case r.submitSem <- struct{}{}:
	case <-r.stopCh:
		return ErrClosed
	}
	defer func() { <-r.submitSem }()
	r.seq++
	env, err := envelope(MsgKey{Sender: r.opts.LocalID, Seq: r.seq})
	if err != nil {
		return err
	}
	for _, s := range rings {
		if err := r.opts.Rings[s].Submit(env, service); err != nil {
			return fmt.Errorf("multiring: ring %d: %w", s, err)
		}
	}
	return nil
}

// shardsOf returns the sorted, deduplicated shard set of a group list.
func (r *Router) shardsOf(groups []string) []int {
	set := make(map[int]struct{}, len(groups))
	for _, g := range groups {
		set[r.ShardOf(g)] = struct{}{}
	}
	out := make([]int, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Close stops the merge goroutine. Ring instances are closed only if their
// handles carry a Close func.
func (r *Router) Close() error {
	r.stopOnce.Do(func() { close(r.stopCh) })
	<-r.done
	<-r.skipperDone
	for _, h := range r.opts.Rings {
		if h.Close != nil {
			h.Close()
		}
	}
	return nil
}

// Snapshot returns the merge-layer counters.
func (r *Router) Snapshot() Snapshot {
	s := Snapshot{
		Rings:             len(r.opts.Rings),
		Submits:           r.submits.Load(),
		SubmitErrors:      r.submitErrors.Load(),
		UnitsIn:           make([]uint64, len(r.unitsIn)),
		Merged:            r.merged.Load(),
		Turns:             uint64(r.turnsGauge.Load()),
		SkipsConsumed:     r.skipsConsumed.Load(),
		SkipsSubmitted:    r.skipsSubmitted.Load(),
		SkipSubmitErrors:  r.skipErrs.Load(),
		StarvedTicks:      r.starvedTicks.Load(),
		MultiShardPending: int(r.pendingGauge.Load()),
		DecodeFailures:    r.decodeFailures.Load(),
		ConfigsForwarded:  r.configsForwarded.Load(),
	}
	for i := range r.unitsIn {
		s.UnitsIn[i] = r.unitsIn[i].Load()
	}
	return s
}

// run is the merge goroutine: it decodes tagged ring events into units,
// advances the merger, emits the merged stream, and answers starvation
// with skips when this node is the skip leader.
func (r *Router) run() {
	defer func() {
		close(r.out)
		close(r.done)
	}()
	tick := time.NewTicker(r.opts.SkipInterval)
	defer tick.Stop()
	for {
		select {
		case te, ok := <-r.opts.Events:
			if !ok {
				return
			}
			if !r.handle(te) {
				return
			}
		case <-tick.C:
			r.maybeSkip()
		case <-r.stopCh:
			return
		}
	}
}

// handle processes one tagged event and drains the merger. It returns
// false when delivery was aborted by Close.
func (r *Router) handle(te TaggedEvent) bool {
	if te.Ring < 0 || te.Ring >= len(r.opts.Rings) {
		return true
	}
	ev := te.Event
	if ev.Config {
		r.configsForwarded.Inc()
		cu := ConfigUpdate{
			Ring:         te.Ring,
			ID:           ev.ID,
			Members:      ev.Members,
			Transitional: ev.Transitional,
		}
		if r.opts.OnConfig != nil {
			r.opts.OnConfig(cu)
		}
		return r.deliver(cu)
	}
	u, err := DecodeEnvelope(ev.Payload)
	if err != nil {
		// Every node sees the identical bytes, so every node pads the
		// identical turn: alignment survives a malformed envelope.
		r.decodeFailures.Inc()
		u = Unit{Skip: true, SkipCount: 1}
	}
	u.Service = ev.Service
	if u.Skip {
		r.skipsConsumed.Inc()
	}
	r.unitsIn[te.Ring].Inc()
	if r.opts.OnUnit != nil {
		r.opts.OnUnit(te.Ring, u)
	}
	r.merger.Push(te.Ring, u)
	for {
		m, ok := r.merger.Next()
		// Publish the gauges before the delivery they describe becomes
		// observable: a consumer that snapshots right after receiving a
		// message must not see it still pending.
		r.turnsGauge.Set(int64(r.merger.Turn()))
		r.pendingGauge.Set(int64(r.merger.PendingMultiShard()))
		if !ok {
			break
		}
		r.merged.Inc()
		d := Delivery{
			Ring:      m.Ring,
			Turn:      m.Turn,
			Sender:    m.Key.Sender,
			SenderSeq: m.Key.Seq,
			Shards:    m.Shards,
			Groups:    m.Groups,
			Service:   m.Service,
			Payload:   m.Payload,
		}
		if !r.deliver(d) {
			return false
		}
	}
	return true
}

// deliver blocks until the application accepts the event or the router is
// stopped: merged events must never be dropped.
func (r *Router) deliver(ev Event) bool {
	select {
	case r.out <- ev:
		return true
	case <-r.stopCh:
		return false
	}
}

// maybeSkip answers starved rings with skip units when this node is the
// skip leader. The batch covers the busiest ring's backlog so the merge
// drains without a skip round-trip per message.
func (r *Router) maybeSkip() {
	starved := r.merger.Starved()
	if len(starved) == 0 {
		return
	}
	r.starvedTicks.Inc()
	if !r.opts.SubmitSkips {
		return
	}
	count := uint32(r.merger.Backlog())
	if count < 1 {
		count = 1
	}
	if count > r.opts.MaxSkipBatch {
		count = r.opts.MaxSkipBatch
	}
	select {
	case r.skipCh <- skipBatch{rings: starved, count: count}:
	default: // the skipper is still submitting the previous batch; the next tick retries
	}
}

// skipBatch is one tick's skip work: the starved rings and the turn count
// each skip unit covers.
type skipBatch struct {
	rings []int
	count uint32
}

// skipper submits skip units on behalf of the merge goroutine, until the
// router stops.
func (r *Router) skipper() {
	defer close(r.skipperDone)
	for {
		select {
		case b := <-r.skipCh:
			for _, ring := range b.rings {
				err := r.enqueue([]int{ring}, wire.ServiceAgreed, func(key MsgKey) ([]byte, error) {
					return AppendSkipEnvelope(nil, key, b.count)
				})
				if err != nil {
					// The ring is busy or reforming; a later tick retries.
					r.skipErrs.Inc()
					continue
				}
				r.skipsSubmitted.Inc()
			}
		case <-r.stopCh:
			return
		}
	}
}
