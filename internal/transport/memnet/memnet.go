// Package memnet is an in-memory transport for tests and in-process
// clusters: a hub connects participant endpoints, replicating multicasts
// and routing unicasts over buffered channels, with a configurable per-hop
// latency. Faults come only from a faultplan.Plan (ApplyFaults): its link
// faults (loss, duplication, reordering delay) and its partitions and
// heals, timed from the moment the plan is applied.
//
// Every fault decision is the plan injector's, drawn from a seeded stream
// per link and serialized under the hub's lock, so a fixed packet sequence
// on each link hits the identical fault sequence on every run with the
// same plan, whatever the order the hub visits destinations in.
//
// The latency matters beyond realism: a token ring with zero network
// latency spins at memory speed, wasting CPU on millions of idle token
// rotations per second. The default 100µs per hop matches a fast LAN.
package memnet

import (
	"sync"
	"time"

	"accelring/internal/faultplan"
	"accelring/internal/transport"
	"accelring/internal/wire"
)

// defaultQueue is the per-endpoint receive channel depth. A full queue
// drops packets, like a full kernel socket buffer.
const defaultQueue = 4096

// DefaultLatency is the per-hop delivery latency if none is configured.
const DefaultLatency = 100 * time.Microsecond

// Hub is an in-memory network connecting endpoints. The zero value is not
// usable; create with NewHub.
type Hub struct {
	mu         sync.RWMutex
	latency    time.Duration
	endpoints  map[wire.ParticipantID]*Endpoint
	fault      *faultplan.Injector
	faultEpoch time.Time
}

// NewHub creates an empty, fault-free hub with the default per-hop
// latency.
func NewHub() *Hub {
	return &Hub{
		latency:   DefaultLatency,
		endpoints: make(map[wire.ParticipantID]*Endpoint),
	}
}

// SetLatency changes the per-hop delivery latency for endpoints joined
// afterwards. Zero means deliver immediately (token rotations then spin as
// fast as the CPU allows — only sensible in fully virtual-time tests).
func (h *Hub) SetLatency(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.latency = d
}

// ApplyFaults evaluates a fault plan on every subsequent packet, replacing
// the previous plan; plan time zero is the moment of this call. Crash and
// restart events are ignored (the hub cannot stop a process — that is the
// caller's job). A nil plan clears every fault, partitions included.
func (h *Hub) ApplyFaults(plan *faultplan.Plan) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if plan == nil {
		h.fault = nil
		return
	}
	h.fault = plan.Injector()
	h.faultEpoch = time.Now()
}

// Join creates and registers an endpoint for a participant. Joining an ID
// twice replaces the previous endpoint.
func (h *Hub) Join(id wire.ParticipantID) *Endpoint {
	h.mu.Lock()
	latency := h.latency
	h.mu.Unlock()

	ep := &Endpoint{
		hub:     h,
		id:      id,
		latency: latency,
		dataIn:  make(chan timedPkt, defaultQueue),
		tokenIn: make(chan timedPkt, defaultQueue),
		data:    make(chan transport.Run, defaultQueue),
		token:   make(chan transport.Run, defaultQueue),
	}
	ep.wg.Add(2)
	go ep.pump(ep.dataIn, ep.data)
	go ep.pump(ep.tokenIn, ep.token)

	h.mu.Lock()
	defer h.mu.Unlock()
	h.endpoints[id] = ep
	return ep
}

// remove unregisters an endpoint (called by Endpoint.Close).
func (h *Hub) remove(ep *Endpoint) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.endpoints[ep.id] == ep {
		delete(h.endpoints, ep.id)
	}
}

// decide draws the fault verdict for one packet copy from from to to: the
// plan injector's call, under the hub's lock because the injector is not
// safe for concurrent use.
func (h *Hub) decide(from, to wire.ParticipantID, kind wire.Kind) faultplan.Verdict {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.fault == nil {
		return faultplan.Verdict{}
	}
	return h.fault.Decide(time.Since(h.faultEpoch), from, to, kind)
}

// timedPkt is a run scheduled for delivery at a due time. seq breaks
// due-time ties in arrival order, keeping undelayed traffic FIFO.
type timedPkt struct {
	due time.Time
	seq uint64
	run transport.Run
}

// pktHeap is a min-heap of pending runs by due time, then arrival. Its
// push and pop are typed, so a queued run is never boxed.
type pktHeap []timedPkt

func (q pktHeap) less(i, j int) bool {
	if !q[i].due.Equal(q[j].due) {
		return q[i].due.Before(q[j].due)
	}
	return q[i].seq < q[j].seq
}

func (q *pktHeap) push(tp timedPkt) {
	h := append(*q, tp)
	for i := len(h) - 1; i > 0 && h.less(i, (i-1)/2); i = (i - 1) / 2 {
		h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
	}
	*q = h
}

func (q *pktHeap) pop() timedPkt {
	h := *q
	tp, n := h[0], len(h)-1
	h[0], h[n] = h[n], timedPkt{}
	h = h[:n]
	for i, c := 0, 1; c < n; i, c = c, 2*c+1 {
		if c+1 < n && h.less(c+1, c) {
			c++
		}
		if !h.less(c, i) {
			break
		}
		h[i], h[c] = h[c], h[i]
	}
	*q = h
	return tp
}

// Endpoint is one participant's attachment to the hub.
type Endpoint struct {
	transport.Metrics

	hub     *Hub
	id      wire.ParticipantID
	latency time.Duration

	dataIn  chan timedPkt
	tokenIn chan timedPkt
	data    chan transport.Run
	token   chan transport.Run

	mu     sync.Mutex
	closed bool
	seq    uint64 // arrival stamp for due-time tiebreaks, under mu
	wg     sync.WaitGroup
}

var _ transport.Transport = (*Endpoint)(nil)

// ID returns the participant this endpoint belongs to.
func (ep *Endpoint) ID() wire.ParticipantID { return ep.id }

// pump delays runs until their due time, delivering in due order: a run
// carrying an extra reordering delay is overtaken by later traffic with an
// earlier due time. Equal due times deliver in arrival order, so without
// reordering faults the pump is FIFO. One timer, re-armed, serves every wait.
func (ep *Endpoint) pump(in chan timedPkt, out chan transport.Run) {
	defer ep.wg.Done()
	defer close(out)
	var q pktHeap
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	emit := func() {
		tp := q.pop()
		select {
		case out <- tp.run:
			// Ownership of the pooled buffer transfers to the consumer,
			// which returns it with transport.Buffers.Put.
			ep.In.Add(uint64(tp.run.Len()))
		default:
			// Receiver queue full: drop, as a kernel buffer would — but
			// accounted, never silent — and recycle the buffer.
			ep.Drops.Add(uint64(tp.run.Len()))
			transport.Buffers.Put(tp.run.Buf)
		}
	}
	for {
		if len(q) == 0 {
			tp, ok := <-in
			if !ok {
				return
			}
			q.push(tp)
			continue
		}
		d := time.Until(q[0].due)
		if d <= 0 {
			emit()
			continue
		}
		timer.Reset(d)
		select {
		case tp, ok := <-in:
			if !ok {
				// Closing flushes the backlog in due order without
				// waiting out the remaining delays.
				for len(q) > 0 {
					emit()
				}
				return
			}
			q.push(tp)
		case <-timer.C:
			emit()
		}
	}
}

// Multicast implements transport.Transport: each destination receives the
// vector as runs (runOf). Each link draws its faults from its own stream,
// one draw per packet in vector order, so a vector draws exactly as
// len(pkts) successive single sends, and the order destinations are
// visited in does not matter.
func (ep *Endpoint) Multicast(pkts [][]byte) error {
	if len(pkts) == 0 {
		return nil
	}
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return transport.ErrClosed
	}
	ep.mu.Unlock()

	h := ep.hub
	h.mu.RLock()
	targets := make([]*Endpoint, 0, len(h.endpoints))
	for id, other := range h.endpoints {
		if id != ep.id {
			targets = append(targets, other)
		}
	}
	h.mu.RUnlock()

	for _, other := range targets {
		b := runOf{to: other, ch: other.dataIn}
		for _, pkt := range pkts {
			kind, _ := wire.PeekKind(pkt) // malformed packets are kind 0: only unmasked faults match
			v := h.decide(ep.id, other.id, kind)
			if v.Drop {
				continue
			}
			ep.Out.Inc()
			ep.Fanout.Inc()
			b.add(pkt, v)
		}
		b.flush()
	}
	return nil
}

// Unicast implements transport.Transport. A unicast to self is never
// faulted; one across a partition vanishes silently, like a real network.
func (ep *Endpoint) Unicast(to wire.ParticipantID, pkt []byte) error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return transport.ErrClosed
	}
	ep.mu.Unlock()

	h := ep.hub
	h.mu.RLock()
	target := h.endpoints[to]
	h.mu.RUnlock()
	if target == nil {
		return transport.ErrUnknownPeer
	}
	kind, _ := wire.PeekKind(pkt) // as in Multicast
	v := h.decide(ep.id, to, kind)
	if v.Drop {
		return nil
	}
	ep.Out.Inc()
	b := runOf{to: target, ch: target.tokenIn}
	b.add(pkt, v)
	b.flush()
	return nil
}

// runOf copies what one send hands one destination into runs in pooled
// buffers (the sender reuses its encode scratch after the call): packets
// in a row with one fault delay, each the size of the first but the last,
// which may be shorter. A duplicated packet follows itself.
type runOf struct {
	to    *Endpoint
	ch    chan timedPkt
	run   transport.Run // Buf is nil while empty
	delay time.Duration
}

func (b *runOf) add(pkt []byte, v faultplan.Verdict) {
	copies := 1
	if v.Dup {
		copies = 2
	}
	for ; copies > 0; copies-- {
		l, r := len(pkt), b.run
		if r.Buf != nil && !(v.Delay == b.delay && l > 0 && l <= r.Seg && len(r.Buf)%r.Seg == 0 && len(r.Buf)+l <= transport.MaxPacket) {
			b.flush()
		}
		if b.run.Buf == nil {
			b.run, b.delay = transport.Run{Buf: transport.Buffers.Get()[:0], Seg: l}, v.Delay
		}
		b.run.Buf = append(b.run.Buf, pkt...)
	}
}

// flush queues the run gathered so far, if any, for the hub latency plus
// its fault delay. A full queue drops it, as a kernel socket buffer would —
// accounted against the receiving endpoint. The consumer releases a queued
// run with transport.Buffers.Put.
func (b *runOf) flush() {
	run, ep := b.run, b.to
	if run.Buf == nil {
		return
	}
	b.run.Buf = nil
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if !ep.closed {
		ep.seq++
		select {
		case b.ch <- timedPkt{due: time.Now().Add(ep.latency + b.delay), seq: ep.seq, run: run}:
			return
		default:
			ep.Drops.Add(uint64(run.Len()))
		}
	}
	transport.Buffers.Put(run.Buf)
}

// Data implements transport.Transport.
func (ep *Endpoint) Data() <-chan transport.Run { return ep.data }

// Token implements transport.Transport.
func (ep *Endpoint) Token() <-chan transport.Run { return ep.token }

// Close implements transport.Transport.
func (ep *Endpoint) Close() error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil
	}
	ep.closed = true
	ep.mu.Unlock()
	ep.hub.remove(ep)
	close(ep.dataIn)
	close(ep.tokenIn)
	ep.wg.Wait()
	return nil
}
