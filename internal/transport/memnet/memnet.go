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
	"container/heap"
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
		data:    make(chan []byte, defaultQueue),
		token:   make(chan []byte, defaultQueue),
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

// timedPkt is a packet scheduled for delivery at a due time. seq breaks
// due-time ties in arrival order, keeping undelayed traffic FIFO.
type timedPkt struct {
	due time.Time
	seq uint64
	pkt []byte
}

// pktHeap orders pending packets by due time, then arrival.
type pktHeap []timedPkt

func (q pktHeap) Len() int { return len(q) }
func (q pktHeap) Less(i, j int) bool {
	if !q[i].due.Equal(q[j].due) {
		return q[i].due.Before(q[j].due)
	}
	return q[i].seq < q[j].seq
}
func (q pktHeap) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *pktHeap) Push(x any)   { *q = append(*q, x.(timedPkt)) }
func (q *pktHeap) Pop() any {
	old := *q
	n := len(old)
	tp := old[n-1]
	old[n-1].pkt = nil
	*q = old[:n-1]
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
	data    chan []byte
	token   chan []byte

	mu     sync.Mutex
	closed bool
	seq    uint64 // arrival stamp for due-time tiebreaks, under mu
	wg     sync.WaitGroup
}

var _ transport.Transport = (*Endpoint)(nil)

// ID returns the participant this endpoint belongs to.
func (ep *Endpoint) ID() wire.ParticipantID { return ep.id }

// pump delays packets until their due time, delivering in due order: a
// packet carrying an extra reordering delay is overtaken by later traffic
// with an earlier due time. Equal due times deliver in arrival order, so
// without reordering faults the pump is FIFO.
func (ep *Endpoint) pump(in chan timedPkt, out chan []byte) {
	defer ep.wg.Done()
	defer close(out)
	var q pktHeap
	emit := func() {
		tp := heap.Pop(&q).(timedPkt)
		select {
		case out <- tp.pkt:
			// Ownership of the pooled buffer transfers to the consumer,
			// which returns it with transport.Buffers.Put.
			ep.In.Inc()
		default:
			// Receiver queue full: drop, as a kernel buffer would — but
			// accounted, never silent — and recycle the buffer.
			ep.Drops.Inc()
			transport.Buffers.Put(tp.pkt)
		}
	}
	for {
		if len(q) == 0 {
			tp, ok := <-in
			if !ok {
				return
			}
			heap.Push(&q, tp)
			continue
		}
		d := time.Until(q[0].due)
		if d <= 0 {
			emit()
			continue
		}
		timer := time.NewTimer(d)
		select {
		case tp, ok := <-in:
			timer.Stop()
			if !ok {
				// Closing flushes the backlog in due order without
				// waiting out the remaining delays.
				for len(q) > 0 {
					emit()
				}
				return
			}
			heap.Push(&q, tp)
		case <-timer.C:
			emit()
		}
	}
}

// Multicast implements transport.Transport. Each link draws its faults
// from its own stream, so a vector draws exactly as len(pkts) successive
// single sends, and the order destinations are visited in does not matter.
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

	for _, pkt := range pkts {
		kind, _ := wire.PeekKind(pkt) // malformed packets are kind 0: only unmasked faults match
		for _, other := range targets {
			v := h.decide(ep.id, other.id, kind)
			if v.Drop {
				continue
			}
			ep.Out.Inc()
			ep.Fanout.Inc()
			other.deliver(other.dataIn, pkt, v.Delay)
			if v.Dup {
				other.deliver(other.dataIn, pkt, v.Delay)
			}
		}
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
	target.deliver(target.tokenIn, pkt, v.Delay)
	if v.Dup {
		target.deliver(target.tokenIn, pkt, v.Delay)
	}
	return nil
}

// pooledCopyMax bounds which deliveries copy into pooled buffers. Small
// packets — tokens, joins, small commits — touch a handful of cache lines,
// so recycling them through the process-wide pool is free and removes one
// allocation per token hop. Large data packets are the opposite: the copy
// happens on the sender's goroutine, and writing ~1.4KB into a recycled
// buffer whose cache lines were last owned by another node's core costs
// measurably more end-to-end than a fresh, core-local allocation. (A real
// NIC has no such choice — udpnet pools every receive — but this hub's
// "receive" is a CPU copy on the critical path.)
const pooledCopyMax = 512

// deliver copies the packet into a delay queue with the hub latency plus
// any extra fault delay, dropping on overflow. The copy is mandatory — the
// sender reuses its encode scratch after the call returns. Small packets
// land in pooled buffers (see pooledCopyMax); the consumer releases either
// kind with transport.Buffers.Put, which recycles pooled buffers and
// counts the rest as discards.
func (ep *Endpoint) deliver(ch chan timedPkt, pkt []byte, extra time.Duration) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return
	}
	var cp []byte
	if len(pkt) <= pooledCopyMax {
		cp = transport.Buffers.Get()[:len(pkt)]
	} else {
		cp = make([]byte, len(pkt))
	}
	copy(cp, pkt)
	ep.seq++
	select {
	case ch <- timedPkt{due: time.Now().Add(ep.latency + extra), seq: ep.seq, pkt: cp}:
	default:
		// Queue full: drop, as a kernel socket buffer would — accounted
		// against the receiving endpoint — and recycle the buffer.
		ep.Drops.Inc()
		transport.Buffers.Put(cp)
	}
}

// Data implements transport.Transport.
func (ep *Endpoint) Data() <-chan []byte { return ep.data }

// Token implements transport.Transport.
func (ep *Endpoint) Token() <-chan []byte { return ep.token }

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
