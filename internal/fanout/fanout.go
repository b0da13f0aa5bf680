// Package fanout is the daemon's client delivery tier: a subscription
// registry that routes each ordered message — decoded and encoded exactly
// once — to the local sessions interested in any of its destination
// groups, through per-subscriber bounded queues with a selectable
// backpressure policy.
//
// The tier exists so the daemon's protocol loop never blocks on a slow
// client socket and never pays per-subscriber allocations on the delivery hot path: Publish
// performs one registry walk with stamp-based duplicate suppression and
// one ring-buffer slot write per interested subscriber, nothing else.
// FlexCast's genuineness principle, applied at the serving tier: only the
// sessions a message addresses are ever touched by its delivery.
//
// Interest has two independent sources per (subscriber, group):
// ring-ordered group membership (the daemon subscribes members so they
// receive what the group semantics owe them) and explicit local
// subscriptions (CmdSubscribe — a tap on the ordered stream without
// membership, the scalable path for large read-only audiences). A
// subscriber stays interested until both sources are gone.
package fanout

import (
	"errors"
	"sync"
)

// Policy selects what Publish does when a subscriber's queue is full.
type Policy uint8

const (
	// PolicyDisconnect kills the slow subscriber: its queue is closed, its
	// writer exits with ErrSlowClient, and the owner's exit callback runs.
	// This is the classic Spread-style daemon behavior and the default.
	PolicyDisconnect Policy = iota
	// PolicyShed drops the newest message for that subscriber only,
	// counting it as shed; healthy subscribers are unaffected and the slow
	// subscriber's backlog stays bounded by the queue depth.
	PolicyShed
)

// String returns the flag-friendly policy name.
func (p Policy) String() string {
	switch p {
	case PolicyDisconnect:
		return "disconnect"
	case PolicyShed:
		return "shed"
	}
	return "unknown"
}

// ParsePolicy parses a flag-friendly policy name: "disconnect" or "shed".
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "disconnect":
		return PolicyDisconnect, nil
	case "shed":
		return PolicyShed, nil
	}
	return 0, errors.New("fanout: unknown policy " + s)
}

// Source identifies why a subscriber is interested in a group. The two
// sources are independent: joining and leaving a group as a member does
// not disturb an explicit subscription, and vice versa.
type Source uint8

const (
	// SourceMember marks interest implied by ring-ordered group
	// membership.
	SourceMember Source = 1 << iota
	// SourceExplicit marks interest from a CmdSubscribe-style local
	// subscription.
	SourceExplicit
)

// DefaultQueueDepth is the per-subscriber queue depth when Config leaves
// it zero. It matches the pre-tier daemon's session queue.
const DefaultQueueDepth = 8192

// Config configures a Tier.
type Config struct {
	// QueueDepth bounds each subscriber's delivery queue, in frames;
	// zero selects DefaultQueueDepth. Control frames (views, stats,
	// welcomes) are exempt from the bound — they are rare, small, and
	// required for protocol correctness — so the bound governs message
	// backlog.
	QueueDepth int
	// Policy is the backpressure policy applied to message frames when a
	// queue is full; the zero value is PolicyDisconnect.
	Policy Policy
	// HistoryDepth bounds each subscriber's replay history: the last N
	// message frames handed to its sink, kept so a detached session can
	// resume past frames lost in the dying connection's socket buffer.
	// Zero disables history — a resume then reports a gap whenever any
	// frame was written beyond the client's acknowledged stamp.
	HistoryDepth int
	// Resumable makes a sink write failure detach the subscriber (exit
	// callback still fires, with the write error) instead of closing its
	// queue, so the owner can hold the session for a resume. Without it a
	// failed write kills the subscriber, the pre-resume behavior.
	Resumable bool
}

// Tier is the delivery tier: a registry of subscribers and their group
// interests, plus the tier-wide counters. Registration, subscription and
// publishing may be called from any goroutine; the expected arrangement
// is a single publisher (the daemon, on its node's protocol loop) with
// concurrent writer goroutines draining the queues.
type Tier struct {
	cfg Config

	mu     sync.Mutex
	groups map[string][]*Subscriber
	subs   map[*Subscriber]struct{}
	closed bool // Close has run
	// stamp is the per-Publish dedup generation: a subscriber reached
	// through several destination groups of one message carries the
	// current stamp after the first visit and is skipped on the rest.
	// Stamps live on subscribers but are owned by the tier lock, so
	// unregistering a subscriber can never leave stale dedup state behind
	// (the per-message map the daemon once reused for this is gone).
	stamp uint64

	subscriptions int
	published     uint64
	enqueued      uint64
	shed          uint64
	disconnects   uint64
	// deliveredGone accumulates the delivered counts of unregistered
	// subscribers, so Snapshot's Delivered stays cumulative across client
	// churn instead of dropping when a session ends; writesGone does the
	// same for Writes.
	deliveredGone uint64
	writesGone    uint64
}

// NewTier creates an empty tier.
func NewTier(cfg Config) *Tier {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	return &Tier{
		cfg:    cfg,
		groups: make(map[string][]*Subscriber),
		subs:   make(map[*Subscriber]struct{}),
	}
}

// Policy returns the tier's configured backpressure policy.
func (t *Tier) Policy() Policy { return t.cfg.Policy }

// Register adds a subscriber draining into sink and starts its writer.
//
// onKill, if non-nil, runs synchronously from inside Publish (with the
// tier locked) when PolicyDisconnect kills the subscriber; its job is to
// sever the underlying connection so a writer stuck in a blocking sink
// write comes unstuck. It must not call back into the tier.
//
// onExit, if non-nil, runs exactly once from the writer goroutine when it
// stops: with ErrSlowClient when PolicyDisconnect killed the subscriber,
// with the write error if the sink failed, or with nil after Close. The
// callback must not call back into the tier synchronously with work that
// needs the publisher to make progress (it may, and typically does,
// schedule an Unregister).
func (t *Tier) Register(sink Sink, onKill func(), onExit func(error)) *Subscriber {
	s := newSubscriber(t.cfg.QueueDepth, t.cfg.HistoryDepth, onKill, onExit)
	s.resumable = t.cfg.Resumable
	s.gen = 1
	t.mu.Lock()
	s.closed = t.closed // after Close: the writer exits at once, through onExit
	t.subs[s] = struct{}{}
	t.mu.Unlock()
	go s.writeLoop(1, sink)
	return s
}

// ErrResumeClosed reports an Attach against a subscriber that is closed or
// no longer registered: the detached session died (e.g. PolicyDisconnect
// overflowed its queue while it was away) and cannot be resumed.
var ErrResumeClosed = errors.New("fanout: subscriber closed before resume")

// ErrNotDetached reports an Attach against a subscriber that still has a
// live writer.
var ErrNotDetached = errors.New("fanout: subscriber is not detached")

// Detach stops the subscriber's writer without closing its queue: the
// connection is gone but the session may come back. Interests stay
// registered, the queue keeps accumulating under the backpressure policy,
// and the kill/exit
// callbacks are cleared so nothing fires into the departed owner. It
// reports false when the subscriber is closed or unregistered (nothing to
// resume later).
func (t *Tier) Detach(s *Subscriber) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.subs[s]; !ok {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if !s.detached {
		s.detached = true
		s.onKill = nil
		s.onExit = nil
		s.notEmpty.Broadcast()
	}
	return true
}

// ResumeGap reports whether a resume of the detached subscriber from the
// given stamp would have a gap, without attaching. The answer stays valid
// until the next Publish touching the subscriber — in the daemon both run
// on the node's protocol loop, which uses the answer to build the resume
// announcement that Attach queues ahead of the replayed frames.
func (t *Tier) ResumeGap(s *Subscriber, stamp uint64) (gap bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.subs[s]; !ok {
		return false, ErrResumeClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, ErrResumeClosed
	}
	if !s.detached {
		return false, ErrNotDetached
	}
	return s.dropped > stamp, nil
}

// Attach resumes a detached subscriber onto a replacement sink: history
// frames past the client's acknowledged stamp are rewound to the front of
// the queue, the callbacks are replaced, and a fresh writer starts. gap
// reports that frames beyond stamp were dropped while the subscriber was
// away (shed, or evicted past the history depth) — the resumed stream is
// missing them and the client must be told. A non-nil body is a control
// frame of type typ queued ahead of the replay: the daemon's resume
// announcement, which the writer sends first and nothing waits for.
// Attach fails with ErrResumeClosed when the subscriber died while
// detached.
func (t *Tier) Attach(s *Subscriber, sink Sink, stamp uint64, typ byte, body []byte, onKill func(), onExit func(error)) (gap bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.subs[s]; !ok {
		return false, ErrResumeClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, ErrResumeClosed
	}
	if !s.detached {
		return false, ErrNotDetached
	}
	gap = s.rewind(stamp)
	if body != nil {
		s.prepend(frame{typ: typ, body: body})
	}
	s.detached = false
	s.onKill = onKill
	s.onExit = onExit
	s.gen++
	go s.writeLoop(s.gen, sink)
	return gap, nil
}

// Close closes every registered subscriber, whose writers then exit
// through their exit callbacks: the daemon's last step, which reaches the
// sessions it has not yet heard from. A subscriber registered after Close
// is closed from the start.
func (t *Tier) Close() {
	t.mu.Lock()
	t.closed = true
	subs := make([]*Subscriber, 0, len(t.subs))
	for s := range t.subs {
		subs = append(subs, s)
	}
	t.mu.Unlock()
	for _, s := range subs {
		s.Close()
	}
}

// Unregister removes the subscriber from every group and from the tier,
// and closes its queue (stopping its writer if still running). Safe to
// call more than once.
func (t *Tier) Unregister(s *Subscriber) {
	t.mu.Lock()
	if _, ok := t.subs[s]; ok {
		delete(t.subs, s)
		for group := range s.interests {
			t.removeFromGroup(s, group)
		}
		t.subscriptions -= len(s.interests)
		t.deliveredGone += s.delivered.Load()
		t.writesGone += s.writes.Load()
		clear(s.interests)
		s.subCount.Store(0)
	}
	t.mu.Unlock()
	s.Close()
}

// Subscribe records the subscriber's interest in a group from the given
// source. It reports whether the subscriber was previously uninterested
// in the group (i.e. this call made it a receiver).
func (t *Tier) Subscribe(s *Subscriber, group string, src Source) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.subs[s]; !ok {
		return false
	}
	prev := s.interests[group]
	if prev&src != 0 {
		return false
	}
	s.interests[group] = prev | src
	if prev != 0 {
		return false
	}
	t.groups[group] = append(t.groups[group], s)
	t.subscriptions++
	s.subCount.Add(1)
	return true
}

// Unsubscribe withdraws one source of interest; the subscriber stops
// receiving the group only once no source remains. It reports whether
// this call removed the subscriber from the group's receiver set.
func (t *Tier) Unsubscribe(s *Subscriber, group string, src Source) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	prev := s.interests[group]
	if prev&src == 0 {
		return false
	}
	rest := prev &^ src
	if rest != 0 {
		s.interests[group] = rest
		return false
	}
	delete(s.interests, group)
	t.removeFromGroup(s, group)
	t.subscriptions--
	s.subCount.Add(-1)
	return true
}

// removeFromGroup drops s from a group's receiver slice. Caller holds
// t.mu.
func (t *Tier) removeFromGroup(s *Subscriber, group string) {
	subs := t.groups[group]
	for i, v := range subs {
		if v == s {
			last := len(subs) - 1
			subs[i] = subs[last]
			subs[last] = nil
			subs = subs[:last]
			break
		}
	}
	if len(subs) == 0 {
		delete(t.groups, group)
	} else {
		t.groups[group] = subs
	}
}

// Publish routes one already-encoded frame to every subscriber interested
// in any of the destination groups, exactly once per subscriber even when
// it is interested in several of them, skipping skip (the self-discard
// case). The frame body is retained by the queues until written and must
// not be mutated afterwards. stamp is the publisher's delivery stamp —
// strictly monotone across Publish calls, carried in each subscriber's
// history for resume replay and gap accounting; pass 0 for streams that
// never resume. It returns the number of subscribers the frame was
// enqueued for.
//
// Publish allocates nothing: the per-message cost is the registry walk
// plus one ring-slot write (or one policy action) per interested
// subscriber.
func (t *Tier) Publish(groups []string, typ byte, body []byte, stamp uint64, skip *Subscriber) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stamp++
	t.published++
	n := 0
	for _, group := range groups {
		for _, s := range t.groups[group] {
			if s == skip || s.stamp == t.stamp {
				continue
			}
			s.stamp = t.stamp
			switch s.enqueueMessage(typ, body, stamp, t.cfg.Policy) {
			case enqOK:
				n++
				t.enqueued++
			case enqShed:
				t.shed++
			case enqKilled:
				t.disconnects++
				s.mu.Lock()
				kill := s.onKill
				s.mu.Unlock()
				if kill != nil {
					kill()
				}
			case enqDead:
				// Closed subscriber still awaiting Unregister; nothing to do.
			}
		}
	}
	return n
}

// HasInterest reports whether any subscriber is interested in any of the
// groups, so a publisher with nobody to deliver to can skip building the
// frame. The answer holds until the next Subscribe, Unsubscribe or
// Unregister; the daemon runs all of them, and Publish, on one goroutine.
func (t *Tier) HasInterest(groups []string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, group := range groups {
		if len(t.groups[group]) > 0 {
			return true
		}
	}
	return false
}

// TierSnapshot is a point-in-time aggregate view of the tier, suitable
// for embedding in a metrics snapshot. Per-subscriber detail is the
// owner's business (the daemon reports it per client in its stats
// snapshot); the tier reports totals so the snapshot stays small even
// with 100k subscribers.
type TierSnapshot struct {
	// Policy and QueueDepth echo the configuration.
	Policy     string `json:"policy"`
	QueueDepth int    `json:"queue_depth"`
	// Subscribers counts registered subscribers; Subscriptions counts
	// (subscriber, group) interest edges.
	Subscribers   int `json:"subscribers"`
	Subscriptions int `json:"subscriptions"`
	// Published counts Publish calls (ordered messages offered to the
	// tier); Enqueued counts per-subscriber copies accepted into queues;
	// Delivered counts frames actually written to sinks (all frame
	// types, cumulative across departed subscribers) and Writes the runs
	// they were written in — one sink flush, for the daemon one socket
	// write, each — so Delivered/Writes is frames per write; Shed counts
	// message copies dropped by PolicyShed; Disconnects counts
	// subscribers killed by PolicyDisconnect.
	Published   uint64 `json:"published"`
	Enqueued    uint64 `json:"enqueued"`
	Delivered   uint64 `json:"delivered"`
	Writes      uint64 `json:"writes"`
	Shed        uint64 `json:"shed"`
	Disconnects uint64 `json:"disconnects"`
	// MaxBacklog is the deepest queue at snapshot time.
	MaxBacklog int `json:"max_backlog"`
	// Detached counts live subscribers whose connection is gone but whose
	// queue is held for a resume. The remaining fields are filled by the
	// tier's owner (the daemon), which runs the resume protocol and the
	// drain: sessions resumed, resumed with a gap, expired unresumed, and
	// the flush time of the last graceful drain; and, on the ingest side,
	// the bursts of client frames its sessions' readers handed over and the
	// frames in them, so BurstFrames/Bursts is frames per socket wake-up;
	// and Holds, the times a reader's post of a burst found no room in the
	// ring node's backlog and waited for some.
	Detached      int    `json:"detached,omitempty"`
	Resumes       uint64 `json:"resumes,omitempty"`
	ResumeGaps    uint64 `json:"resume_gaps,omitempty"`
	ResumeExpired uint64 `json:"resume_expired,omitempty"`
	DrainMs       int64  `json:"drain_ms,omitempty"`
	Bursts        uint64 `json:"bursts,omitempty"`
	BurstFrames   uint64 `json:"burst_frames,omitempty"`
	Holds         uint64 `json:"holds,omitempty"`
}

// Snapshot assembles the tier-wide counters.
func (t *Tier) Snapshot() TierSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := TierSnapshot{
		Policy:        t.cfg.Policy.String(),
		QueueDepth:    t.cfg.QueueDepth,
		Subscribers:   len(t.subs),
		Subscriptions: t.subscriptions,
		Published:     t.published,
		Enqueued:      t.enqueued,
		Delivered:     t.deliveredGone,
		Writes:        t.writesGone,
		Shed:          t.shed,
		Disconnects:   t.disconnects,
	}
	for s := range t.subs {
		snap.Delivered += s.delivered.Load()
		snap.Writes += s.writes.Load()
		b, det := s.state()
		if b > snap.MaxBacklog {
			snap.MaxBacklog = b
		}
		if det {
			snap.Detached++
		}
	}
	return snap
}

// Backlog totals the pending frames across every registered subscriber —
// what a graceful drain waits to reach zero.
func (t *Tier) Backlog() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := 0
	for s := range t.subs {
		total += s.Backlog()
	}
	return total
}
