package daemon

import (
	"errors"
	"net"
	"sync"
	"time"

	"accelring/internal/fanout"
	"accelring/internal/ipc"
)

// Session lifecycle, owned by the loop: active sessions are in
// d.sessions; a detached session (connection gone, delivery state held for
// the resume window) is in d.detached; a gone session is inert and any
// late unregister for it is ignored.
const (
	sessActive uint8 = iota
	sessDetached
	sessGone
)

// session is one connected client. The read side (readLoop) pumps frames
// into the node's protocol loop, which runs the daemon; the write side is
// a fan-out tier subscriber whose writer goroutine drains the client's
// bounded delivery queue onto the socket.
type session struct {
	d    *Daemon
	conn net.Conn
	// sub is this session's delivery-tier handle: its queue, its group
	// interests, and its shed/backlog counters. A resumed session adopts
	// the detached predecessor's subscriber, so the queue (and everything
	// accumulated in it) survives the connection change. The loop swaps
	// it during that adoption while close may read it from any
	// goroutine, hence subMu.
	subMu sync.Mutex
	sub   *fanout.Subscriber

	// member is the client's private name once connected; id its resume
	// session ID (0 when resume is disabled); submits counts this client's
	// ring submissions. goodbye marks a deliberate close (CmdGoodbye), so
	// the disconnect is not held for resume. All owned by the loop,
	// as are state and detachTimer.
	member  string
	id      uint64
	submits uint64
	goodbye bool
	state   uint8
	// detachTimer expires the detached session at the end of the resume
	// window.
	detachTimer *time.Timer

	closeOnce sync.Once
	closed    chan struct{}
}

// ipcSink adapts a net.Conn to the fan-out tier's frame sink: the frames
// of a run are encoded back to back into one buffer — the one copy on the
// delivery hop — and leave in one socket write at the end of the run. One
// per attachment, used by that attachment's writer goroutine only.
type ipcSink struct {
	conn net.Conn
	buf  []byte
}

func (k *ipcSink) WriteFrame(typ byte, body []byte) (err error) {
	k.buf, err = ipc.AppendFrame(k.buf, typ, body)
	return err
}

func (k *ipcSink) Flush() error {
	_, err := k.conn.Write(k.buf)
	k.buf = k.buf[:0]
	return err
}

func newSession(d *Daemon, conn net.Conn) *session {
	s := &session{
		d:      d,
		conn:   conn,
		closed: make(chan struct{}),
	}
	// Under subMu: after the tier closes, the exit callback closes s at once.
	s.subMu.Lock()
	s.sub = d.tier.Register(&ipcSink{conn: conn}, s.killFunc(), s.exitFunc())
	s.subMu.Unlock()
	return s
}

// killFunc builds the subscriber kill callback (PolicyDisconnect,
// synchronous from Publish): sever the connection so a writer stuck in a
// blocking socket write exits.
func (s *session) killFunc() func() {
	return func() {
		s.d.logf("daemon: disconnecting slow client %s", s.member)
		s.close()
	}
}

// exitFunc builds the subscriber exit callback (writer stopped): hand the
// session to the loop for teardown or detach. Runs for socket write
// errors, slow-client kills, and plain closes alike.
func (s *session) exitFunc() func(error) {
	return func(err error) {
		if err != nil && !errors.Is(err, fanout.ErrSlowClient) {
			s.d.logf("daemon: client writer: %v", err)
		}
		s.unregister()
	}
}

// burst is what a session's reader hands the loop per wake-up: every
// complete frame that was already in its buffer, bodies back to back in
// one slab. The bodies are borrowed: the loop copies out what it
// keeps (names into strings, a multicast into the payload it submits) and
// returns the burst to burstPool when it has applied the last frame.
// submits counts the frames that submit to the ring (multicast, join,
// leave): the room the reader reserves when it posts the burst. The
// reader's buffer bounds a burst, so it is well under the backlog bound.
type burst struct {
	sess    *session
	slab    []byte
	frames  []burstFrame
	submits int
}

// burstFrame is one frame of a burst: its type and where its body ends in
// the slab (it starts where the previous one ends).
type burstFrame struct {
	typ byte
	end int
}

var burstPool = sync.Pool{New: func() any { return new(burst) }}

// fill blocks for one frame and then takes every complete frame rd has
// already buffered — a run is whatever is already there, so a lone frame
// is a burst of one and waits for nothing.
func (b *burst) fill(rd *ipc.Reader) error {
	b.slab, b.frames, b.submits = b.slab[:0], b.frames[:0], 0
	for more := true; more; more = rd.Buffered() {
		typ, body, err := rd.Next()
		if err != nil {
			return err
		}
		b.slab = append(b.slab, body...)
		b.frames = append(b.frames, burstFrame{typ: typ, end: len(b.slab)})
		switch typ {
		case ipc.CmdMulticast, ipc.CmdJoin, ipc.CmdLeave:
			b.submits++
		}
	}
	return nil
}

// readLoop pumps client frames into the node's protocol loop, a burst per
// wake-up. A malformed frame behind good ones ends the session after they
// are handed over, as it would have frame by frame. Posting a burst
// reserves room for its submissions in the node's backlog; while there is
// none the reader waits, the socket fills and the client's Multicast
// blocks: backpressure reaches the sender, and no other session waits
// behind this one.
func (s *session) readLoop() {
	defer s.unregister()
	rd := ipc.NewReader(s.conn)
	for {
		b := burstPool.Get().(*burst)
		b.sess = s
		err := b.fill(rd)
		if len(b.frames) == 0 {
			burstPool.Put(b)
			return
		}
		s.d.bursts.Add(1)
		s.d.burstFrames.Add(uint64(len(b.frames)))
		if !s.d.ring.Post(b, b.submits) || err != nil {
			return
		}
	}
}

// send enqueues a control frame (welcome, view, stats) for the client.
// Ordered application messages do not come through here — they are routed
// by the fan-out tier, which applies the backpressure policy.
func (s *session) send(typ byte, body []byte) {
	s.sub.Send(typ, body)
}

// unregister asks the loop to decide this session's fate: drop, or
// detach for the resume window. With the loop gone, it closes.
func (s *session) unregister() {
	if !s.d.ring.Post(s, 0) {
		s.close()
	}
}

// isClosed reports whether close has run.
func (s *session) isClosed() bool {
	select {
	case <-s.closed:
		return true
	default:
		return false
	}
}

// close terminates the connection and the delivery queue; safe to call
// multiple times and from any goroutine.
func (s *session) close() {
	s.closeOnce.Do(func() {
		close(s.closed)
		s.subMu.Lock()
		sub := s.sub
		s.subMu.Unlock()
		sub.Close()
		s.conn.Close()
	})
}
