package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Phases of a run, held in load.phase. Window i of the measurement is
// phase i; everything before the first window is phaseIdle and everything
// after the last is past the end of the per-window slices.
const phaseIdle = -1

// drainTimeout is how long after the last window a message may still
// arrive at the other client before it counts as failed.
const drainTimeout = 5 * time.Second

// spanSampleEvery is the sampling period of the harness spans.
const spanSampleEvery = 64

// side is one client of the closed loop: a sender goroutine, a receiver
// goroutine and the credits that connect them.
type side struct {
	id      int
	p       port
	credits chan struct{} // one per message this side may still send

	// Written by the sender goroutine, read after it has exited.
	attempted []uint64 // Multicast calls per window
	sendErr   error
	sendSpans []sendSpan
	// sent counts sends that returned nil; the drain reads it.
	sent atomic.Uint64

	// Written by the receiver goroutine, read after it has exited.
	chk       *checker
	lat       [][]uint32 // cross-daemon latencies per window, ns
	recvSpans []recvSpan
	bad       string // first event that must not happen during a run
	probeSeen bool
	// got counts deliveries per sender; the drain reads it.
	got [2]atomic.Uint64
}

// load is a closed-loop generator running on a stack.
type load struct {
	w      workload
	st     *stack
	sides  [2]*side
	filler []byte    // the seeded payload every message starts from; read-only
	base   time.Time // zero of the monotonic clock stamped into payloads
	phase  atomic.Int32
	trace  bool

	probed  [2]chan struct{} // closed when side i has seen the other's probe
	stop    chan struct{}
	senders sync.WaitGroup
	pumps   sync.WaitGroup
}

// newLoad attaches a generator to st, starts the receivers and sends one
// probe message in each direction. When it returns the stack has carried
// a message both ways and is ready for load.
func newLoad(st *stack, w workload, windows int, seed int64, trace bool) (*load, error) {
	l := &load{w: w, st: st, filler: fillerBytes(w.payload, seed), base: time.Now(), trace: trace, stop: make(chan struct{})}
	l.phase.Store(phaseIdle)
	for i, p := range [2]port{st.a, st.b} {
		l.sides[i] = &side{
			id: i, p: p,
			// Ping-pong moves its single credit between the sides, so
			// either may hold one more than it started with.
			credits:   make(chan struct{}, w.outstanding+1),
			attempted: make([]uint64, windows),
			chk:       newChecker(),
			lat:       make([][]uint32, windows),
		}
		l.probed[i] = make(chan struct{})
	}
	for _, s := range l.sides {
		l.pumps.Add(1)
		go func() {
			defer l.pumps.Done()
			s.p.pump(func(payload []byte, groupSeq uint64) { l.onMessage(s, payload, groupSeq) },
				func(what string) {
					if s.bad == "" {
						s.bad = what
					}
				})
		}()
	}
	// Sequence number 0 of each sender is the probe.
	for _, s := range l.sides {
		if err := s.p.send(l.stamp(l.freshPayload(), s.id, 0)); err != nil {
			l.shutdown()
			return nil, fmt.Errorf("probe from side %d: %w", s.id, err)
		}
		s.sent.Store(1)
	}
	timeout := time.After(viewTimeout)
	for _, ch := range l.probed {
		select {
		case <-ch:
		case <-timeout:
			l.shutdown()
			return nil, fmt.Errorf("probe did not cross within %s", viewTimeout)
		}
	}
	return l, nil
}

// fillerBytes is the seeded part of every payload.
func fillerBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func (l *load) freshPayload() []byte { return append([]byte(nil), l.filler...) }

// stamp writes the header of a message over the start of buf.
func (l *load) stamp(buf []byte, sender int, seq uint64) []byte {
	buf[0] = byte(sender)
	binary.LittleEndian.PutUint64(buf[1:], seq)
	binary.LittleEndian.PutUint64(buf[9:], uint64(time.Since(l.base)))
	return buf
}

// onMessage runs on side s's receiver goroutine for every delivery.
func (l *load) onMessage(s *side, payload []byte, groupSeq uint64) {
	arrived := time.Since(l.base)
	if len(payload) != l.w.payload || payload[0] > 1 {
		s.chk.violate("delivery of %d bytes is not a benchmark message", len(payload))
		return
	}
	sender := int(payload[0])
	seq := binary.LittleEndian.Uint64(payload[1:])
	sentAt := time.Duration(binary.LittleEndian.Uint64(payload[9:]))
	s.chk.deliver(sender, seq, groupSeq)
	s.got[sender].Add(1)

	cross := sender != s.id
	if seq == 0 {
		if cross && !s.probeSeen {
			s.probeSeen = true
			close(l.probed[s.id])
		}
		return
	}
	// A saturating client sends again once its own message is ordered;
	// ping-pong sends once the other side's message arrives. A full
	// channel means a duplicate delivery, which the checker has recorded.
	if cross == l.w.pingpong {
		select {
		case s.credits <- struct{}{}:
		default:
		}
	}
	if !cross {
		return
	}
	if ph := int(l.phase.Load()); ph >= 0 && ph < len(s.lat) {
		s.lat[ph] = append(s.lat[ph], uint32(min(arrived-sentAt, 1<<32-1)))
	}
	if l.trace && seq%spanSampleEvery == 0 {
		s.recvSpans = append(s.recvSpans, recvSpan{
			msg: messageID(sender, seq), arrived: arrived, done: time.Since(l.base),
		})
	}
}

// start hands out the credits and starts the senders.
func (l *load) start() {
	for _, s := range l.sides {
		n := l.w.outstanding
		if l.w.pingpong && s.id != 0 {
			n = 0
		}
		for i := 0; i < n; i++ {
			s.credits <- struct{}{}
		}
		l.senders.Add(1)
		go func() {
			defer l.senders.Done()
			l.sendLoop(s)
		}()
	}
}

func (l *load) sendLoop(s *side) {
	buf := l.freshPayload()
	for seq := uint64(1); ; seq++ {
		select {
		case <-s.credits:
		case <-l.stop:
			return
		}
		if s.p.retains {
			buf = l.freshPayload()
		}
		ph := int(l.phase.Load())
		l.stamp(buf, s.id, seq)
		err := s.p.send(buf)
		if ph >= 0 && ph < len(s.attempted) {
			s.attempted[ph]++
		}
		if err != nil {
			s.sendErr = err
			return
		}
		s.sent.Add(1)
		if l.trace && seq%spanSampleEvery == 0 {
			s.sendSpans = append(s.sendSpans, sendSpan{
				msg:   messageID(s.id, seq),
				start: time.Duration(binary.LittleEndian.Uint64(buf[9:])),
				end:   time.Since(l.base),
			})
		}
	}
}

// measure runs the windows and returns each one's length as measured.
func (l *load) measure(window time.Duration, windows int) []time.Duration {
	took := make([]time.Duration, windows)
	for i := range took {
		t0 := time.Now()
		l.phase.Store(int32(i))
		time.Sleep(window)
		took[i] = time.Since(t0)
	}
	l.phase.Store(int32(windows))
	return took
}

// drain stops the senders and waits until both sides have received every
// message either side sent, or drainTimeout. It returns how many messages
// never reached the other client.
func (l *load) drain() (undelivered uint64) {
	close(l.stop)
	l.senders.Wait()
	deadline := time.Now().Add(drainTimeout)
	for {
		undelivered = 0
		complete := true
		for _, s := range l.sides {
			for from, other := range l.sides {
				missing := int64(other.sent.Load()) - int64(s.got[from].Load())
				if missing > 0 {
					complete = false
					if from != s.id {
						undelivered += uint64(missing)
					}
				}
			}
		}
		if complete || time.Now().After(deadline) {
			return undelivered
		}
		time.Sleep(time.Millisecond)
	}
}

// shutdown closes the stack and waits for the receivers; afterwards the
// sides' fields may be read.
func (l *load) shutdown() error {
	select {
	case <-l.stop:
	default:
		close(l.stop)
	}
	l.senders.Wait()
	err := l.st.close()
	l.pumps.Wait()
	return err
}
