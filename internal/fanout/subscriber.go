package fanout

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrSlowClient is handed to a subscriber's exit callback when
// PolicyDisconnect killed it for exceeding its queue depth.
var ErrSlowClient = errors.New("fanout: subscriber exceeded its delivery queue")

// Sink is where a subscriber's writer drains frames — for the daemon, the
// client's IPC connection. The writer hands it a run at a time: every
// frame that was pending when the writer woke (a lone frame is a run of
// one), in order, through WriteFrame. body is shared with other queues and
// the replay history: a sink reads it during the call and never writes it.
//
// A sink that buffers also implements Flush() error, which the writer
// calls once at the end of each run; the frames of a run count as
// delivered only once Flush has returned nil. The method is optional —
// resolved once per attachment, not per frame — because sinks outside
// this module implement only WriteFrame.
type Sink interface {
	WriteFrame(typ byte, body []byte) error
}

// runBytes bounds one run by its encoded size: enough frames per socket
// write to make the write cheap per frame, few enough that a run stays
// inside a Unix socket's send buffer.
const runBytes = 64 << 10

// frameOverhead is what the IPC framing adds to a body on the wire, counted
// against runBytes.
const frameOverhead = 5

// frame is one queued delivery. stamp is the publisher's monotone delivery
// stamp for message frames, 0 for control frames (views, stats, welcomes);
// only stamped frames participate in resume replay and gap accounting.
type frame struct {
	typ   byte
	body  []byte
	stamp uint64
}

// enqueue outcomes for a message frame.
type enqResult uint8

const (
	enqOK enqResult = iota
	enqShed
	enqKilled
	enqDead
)

// Subscriber is one registered client of the tier: a bounded FIFO frame
// queue drained by a dedicated writer goroutine. Messages and control
// frames share the one queue so a client observes views, stats and
// messages in exactly the order the daemon emitted them.
//
// A subscriber can be detached (Tier.Detach) when its connection drops:
// the writer stops, the queue keeps accumulating under the backpressure
// policy, and a later Attach with a replacement sink resumes the stream —
// rewinding recently written frames past the client's acknowledged stamp
// from the history ring, so socket-buffer loss at disconnect does not
// become a silent gap.
type Subscriber struct {
	// onKill and onExit belong to the current attachment, as does the sink
	// its writer was started with; after Register they are read and written
	// only under s.mu (Detach, Attach, and the writer's self-detach on sink
	// failure all hold it).
	onKill func()
	onExit func(error)

	// resumable makes a sink write failure detach the queue instead of
	// closing it (set once at Register from the tier config).
	resumable bool

	mu       sync.Mutex
	notEmpty sync.Cond // frame enqueued, or queue closed/detached
	ring     []frame   // circular; len(ring) is physical capacity
	head     int
	count    int
	depth    int // policy bound for message frames; control may exceed it
	closed   bool
	killErr  error // reason the queue was closed, nil for plain Close

	// detached marks a subscriber whose writer has been stopped pending a
	// resume; gen identifies the current writer so a superseded one that
	// wakes from a stuck sink write exits without touching shared state.
	detached bool
	gen      uint64

	// hist is the replay ring of the last histCap message frames handed to
	// the sink (pushed before the write, so a frame lost to a failing
	// write is still replayable). dropped is the highest stamp that is no
	// longer replayable — shed under pressure or evicted from history — so
	// a resume from stamp S has a gap iff dropped > S. Allocated on first
	// use: an idle subscriber pays nothing.
	hist      []frame
	histHead  int
	histCount int
	histCap   int
	dropped   uint64

	highWater int

	// msgs counts message frames accepted into the queue (the daemon's
	// per-client delivery counter), shed counts message frames dropped by
	// PolicyShed, delivered counts frames the writer wrote to the sink and
	// writes the runs it wrote them in.
	msgs      atomic.Uint64
	shed      atomic.Uint64
	delivered atomic.Uint64
	writes    atomic.Uint64
	// subCount mirrors len(interests) for lock-free Stats.
	subCount atomic.Int64

	// stamp and interests are owned by the tier's lock.
	stamp     uint64
	interests map[string]Source
}

// initialRing is the starting physical ring capacity. The queue bound is
// logical (depth); the ring grows toward it on demand, so an idle
// subscriber costs ~2KB rather than depth×frame — what lets one daemon
// carry tens of thousands of mostly-drained clients.
const initialRing = 64

func newSubscriber(depth, histCap int, onKill func(), onExit func(error)) *Subscriber {
	phys := depth
	if phys > initialRing {
		phys = initialRing
	}
	s := &Subscriber{
		onKill:    onKill,
		onExit:    onExit,
		ring:      make([]frame, phys),
		depth:     depth,
		histCap:   histCap,
		interests: make(map[string]Source),
	}
	s.notEmpty.L = &s.mu
	return s
}

// enqueueMessage applies the backpressure policy and, when there is room,
// appends a message frame.
func (s *Subscriber) enqueueMessage(typ byte, body []byte, stamp uint64, policy Policy) enqResult {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return enqDead
	}
	if s.count >= s.depth {
		if policy == PolicyShed {
			if stamp > s.dropped {
				s.dropped = stamp
			}
			s.mu.Unlock()
			s.shed.Add(1)
			return enqShed
		}
		s.closeLocked(ErrSlowClient) // PolicyDisconnect
		s.mu.Unlock()
		return enqKilled
	}
	if s.count == len(s.ring) {
		s.grow()
	}
	s.append(frame{typ: typ, body: body, stamp: stamp})
	s.mu.Unlock()
	s.msgs.Add(1)
	return enqOK
}

// Send enqueues a control frame (welcome, view, stats). Control frames
// are exempt from the queue bound: they are rare, required for protocol
// correctness, and dropping or blocking on them would corrupt a client's
// view of the world, so the ring grows past the configured depth if it
// must. It reports false if the subscriber is already closed.
func (s *Subscriber) Send(typ byte, body []byte) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	if s.count == len(s.ring) {
		s.grow()
	}
	s.append(frame{typ: typ, body: body})
	s.mu.Unlock()
	return true
}

// append assumes s.mu is held and there is physical room.
func (s *Subscriber) append(f frame) {
	s.ring[(s.head+s.count)%len(s.ring)] = f
	s.count++
	if s.count > s.highWater {
		s.highWater = s.count
	}
	if s.count == 1 {
		s.notEmpty.Signal()
	}
}

// grow doubles the physical ring, preserving FIFO order. Caller holds
// s.mu. Messages get here while backlog climbs toward depth; control
// frames also grow past it (they are exempt from the bound).
func (s *Subscriber) grow() {
	next := make([]frame, 2*len(s.ring))
	for i := 0; i < s.count; i++ {
		next[i] = s.ring[(s.head+i)%len(s.ring)]
	}
	s.ring = next
	s.head = 0
}

// histPush records a frame as handed to the sink. With history disabled
// (histCap <= 0) a written frame is immediately unreplayable, so dropped
// advances and any resume past it reports a gap. Caller holds s.mu.
func (s *Subscriber) histPush(f frame) {
	if f.stamp == 0 {
		return
	}
	if s.histCap <= 0 {
		if f.stamp > s.dropped {
			s.dropped = f.stamp
		}
		return
	}
	if s.hist == nil {
		s.hist = make([]frame, s.histCap)
	}
	if s.histCount == s.histCap {
		old := s.hist[s.histHead]
		if old.stamp > s.dropped {
			s.dropped = old.stamp
		}
		s.hist[s.histHead] = frame{}
		s.histHead = (s.histHead + 1) % len(s.hist)
		s.histCount--
	}
	s.hist[(s.histHead+s.histCount)%len(s.hist)] = f
	s.histCount++
}

// rewind moves the history frames with stamp beyond the client's
// acknowledged stamp back to the front of the pending queue (they will
// re-enter history as they are rewritten) and reports whether the resumed
// stream has a gap. Caller holds s.mu.
func (s *Subscriber) rewind(stamp uint64) (gap bool) {
	k := 0
	for i := 0; i < s.histCount; i++ {
		if s.hist[(s.histHead+i)%len(s.hist)].stamp > stamp {
			k = s.histCount - i
			break
		}
	}
	for len(s.ring) < s.count+k {
		s.grow()
	}
	if k > 0 {
		s.head = (s.head - k + len(s.ring)) % len(s.ring)
		base := s.histCount - k
		for i := 0; i < k; i++ {
			slot := (s.histHead + base + i) % len(s.hist)
			s.ring[(s.head+i)%len(s.ring)] = s.hist[slot]
			s.hist[slot] = frame{}
		}
		s.histCount = base
		s.count += k
		if s.count > s.highWater {
			s.highWater = s.count
		}
	}
	return s.dropped > stamp
}

// popRun moves the pending run from the queue into run: every queued frame,
// in order, up to runBytes of encoded size and — with a replay history —
// up to histCap message frames, so the whole run is still in history, and
// replayable, at every instant its write can fail. Each frame enters
// history as it is popped. Caller holds s.mu and has checked count > 0.
func (s *Subscriber) popRun(run []frame) []frame {
	size, stamped := 0, 0
	for s.count > 0 {
		f := s.ring[s.head]
		if len(run) > 0 && (size+len(f.body)+frameOverhead > runBytes ||
			(f.stamp != 0 && s.histCap > 0 && stamped == s.histCap)) {
			break
		}
		s.ring[s.head] = frame{} // drop the body reference
		s.head = (s.head + 1) % len(s.ring)
		s.count--
		s.histPush(f)
		run = append(run, f)
		size += len(f.body) + frameOverhead
		if f.stamp != 0 {
			stamped++
		}
	}
	return run
}

// writeLoop is one attachment's writer: it drains the queue onto the
// attachment's sink, a run at a time, until the queue closes, the
// subscriber detaches, or the sink fails; the exit callback of the
// attachment runs exactly once, and not at all when the writer was
// superseded or deliberately detached.
func (s *Subscriber) writeLoop(gen uint64, sink Sink) {
	flusher, _ := sink.(interface{ Flush() error }) // the optional end-of-run signal
	var run []frame                                 // this writer's scratch, reused across runs
	for {
		s.mu.Lock()
		for s.count == 0 && !s.closed && !s.detached && s.gen == gen {
			s.notEmpty.Wait()
		}
		if s.gen != gen || s.detached {
			s.mu.Unlock()
			return
		}
		if s.closed {
			err := s.killErr
			exit := s.onExit
			s.mu.Unlock()
			if exit != nil {
				exit(err)
			}
			return
		}
		run = s.popRun(run[:0])
		s.mu.Unlock()
		var werr error
		for i := range run {
			if werr = sink.WriteFrame(run[i].typ, run[i].body); werr != nil {
				break
			}
		}
		if werr == nil && flusher != nil {
			werr = flusher.Flush()
		}
		n := len(run)
		clear(run) // drop the body references
		if werr != nil {
			s.mu.Lock()
			if s.gen != gen || s.detached {
				// The failing write raced a detach or a resume; the run is
				// already in history, so the next attachment replays it.
				s.mu.Unlock()
				return
			}
			if s.resumable && !s.closed {
				// The connection died under the writer: detach rather than
				// close, so the owner can hold the session for a resume.
				// The exit callback still fires so the owner learns.
				s.detached = true
				exit := s.onExit
				s.onKill, s.onExit = nil, nil
				s.mu.Unlock()
				if exit != nil {
					exit(werr)
				}
				return
			}
			// Mark closed so the publisher and the owner learn this
			// subscriber is gone. If the queue was
			// already killed (PolicyDisconnect severing a stuck write),
			// the kill reason outranks the resulting socket error.
			if s.closed && s.killErr != nil {
				werr = s.killErr
			} else {
				s.closeLocked(werr)
			}
			exit := s.onExit
			s.mu.Unlock()
			if exit != nil {
				exit(werr)
			}
			return
		}
		s.delivered.Add(uint64(n))
		s.writes.Add(1)
	}
}

// Close shuts the queue down and stops the writer; pending frames are
// discarded (the connection is going away with them). Safe to call from
// any goroutine, any number of times.
func (s *Subscriber) Close() {
	s.mu.Lock()
	s.closeLocked(nil)
	s.mu.Unlock()
}

// closeLocked assumes s.mu is held.
func (s *Subscriber) closeLocked(reason error) {
	if s.closed {
		return
	}
	s.closed = true
	s.killErr = reason
	s.notEmpty.Broadcast()
}

// Backlog returns the current queue depth.
func (s *Subscriber) Backlog() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// state reports the queue depth and whether the subscriber is live but
// detached, in one lock acquisition for Snapshot.
func (s *Subscriber) state() (backlog int, detached bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count, s.detached && !s.closed
}

// Stats is a point-in-time view of one subscriber's counters.
type Stats struct {
	// Msgs counts message frames accepted into the queue; Shed counts
	// message frames dropped by PolicyShed; Delivered counts frames of
	// every type written to the sink and Writes the runs they were written
	// in (one sink flush each), so Delivered/Writes is frames per write.
	Msgs      uint64
	Shed      uint64
	Delivered uint64
	Writes    uint64
	// Backlog is the current queue depth, HighWater its maximum since
	// registration, Subscriptions the current interest count.
	Backlog       int
	HighWater     int
	Subscriptions int
}

// Stats snapshots the subscriber's counters.
func (s *Subscriber) Stats() Stats {
	s.mu.Lock()
	backlog, high := s.count, s.highWater
	s.mu.Unlock()
	return Stats{
		Msgs:          s.msgs.Load(),
		Shed:          s.shed.Load(),
		Delivered:     s.delivered.Load(),
		Writes:        s.writes.Load(),
		Backlog:       backlog,
		HighWater:     high,
		Subscriptions: int(s.subCount.Load()),
	}
}
