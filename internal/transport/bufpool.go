package transport

import (
	"sync"

	"accelring/internal/metrics"
)

// MaxPacket is the size of every pooled receive buffer. It matches the
// largest datagram the wire format can produce (a full-size data message),
// so any packet either transport receives fits in one pooled buffer.
const MaxPacket = 64 * 1024

// Pool recycles packet buffers between the transports' receive goroutines
// and the runtime loop, keeping the steady-state receive path free of
// per-packet allocation and the GC pressure that comes with it (the paper's
// throughput results assume token handling stays off the allocator-heavy
// slow path).
//
// Ownership contract: a buffer obtained with Get is owned by the caller
// until handed off. The built-in transports receive into pooled buffers and
// send each on their Data()/Token() channels as one Run, however many
// datagrams it holds — that send TRANSFERS ownership to the consumer, which
// must call Put exactly once, when done with the whole run (the runtime
// loop does this after stepping its last datagram). After Put the buffer
// must not be touched; any slice still aliasing it (e.g. a zero-copy
// DecodeDataInto payload) is invalidated.
//
// Internally the pool is a sync.Pool of fixed-size arrays. sync.Pool's
// per-P caches matter here, not just its GC integration: the pool is
// shared process-wide, and a central freelist would routinely hand a
// goroutine a buffer last written by a different core, turning every
// packet copy into a cross-core cache-line migration on the protocol's
// critical path (measurably slower end-to-end than allocating). Storing
// *[MaxPacket]byte instead of []byte keeps Put allocation-free: a pointer
// fits in an interface word, where boxing a slice header would allocate.
type Pool struct {
	pool sync.Pool // stores *[MaxPacket]byte

	hits     metrics.Counter // Get served from the pool
	misses   metrics.Counter // Get had to allocate
	puts     metrics.Counter // buffers returned
	discards metrics.Counter // returned buffers rejected (wrong capacity)
}

// NewPool creates an empty pool. Buffers are created lazily: an empty pool
// allocates on Get and recycles from then on.
func NewPool() *Pool { return &Pool{} }

// Buffers is the process-wide packet buffer pool shared by the built-in
// transports and the runtime loop. Sharing one pool lets a node with both
// an active receive path and an active send path keep the working set
// small, and gives observability one place to read hit/miss counters from.
var Buffers = NewPool()

// Get returns a full-length buffer (len == cap == MaxPacket). The caller owns
// it until it is handed off or Put back.
func (p *Pool) Get() []byte {
	if b, _ := p.pool.Get().(*[MaxPacket]byte); b != nil {
		p.hits.Inc()
		return b[:]
	}
	p.misses.Inc()
	return make([]byte, MaxPacket)
}

// Put returns a buffer to the pool. pkt may be a sub-slice of a pooled
// buffer (the usual case: the transport delivered buf[:n]); Put recovers
// the full capacity. Buffers that did not come from this pool — anything
// with capacity below MaxPacket — are counted as discards and dropped, so
// callers that received a packet from an unpooled source may still Put it
// unconditionally. A nil pkt is ignored.
func (p *Pool) Put(pkt []byte) {
	if pkt == nil {
		return
	}
	if cap(pkt) < MaxPacket {
		p.discards.Inc()
		return
	}
	p.puts.Inc()
	p.pool.Put((*[MaxPacket]byte)(pkt[:MaxPacket]))
}

// GetBatch appends n freshly obtained buffers to dst and returns the
// extended slice. It is the vectorized Get for batched syscall paths: the
// caller keeps one [][]byte scratch header and refills it per burst, so
// the steady state allocates neither buffers (pool hits) nor the vector
// (header capacity is retained across calls via dst[:0]).
func (p *Pool) GetBatch(dst [][]byte, n int) [][]byte {
	for i := 0; i < n; i++ {
		dst = append(dst, p.Get())
	}
	return dst
}

// PutBatch returns every buffer in pkts to the pool and nils the entries,
// so a retained scratch vector cannot alias recycled buffers (a stale
// alias Put a second time is the classic double-put). Entries follow the
// same rules as Put: sub-slices recover full capacity, nil and foreign
// buffers are tolerated.
func (p *Pool) PutBatch(pkts [][]byte) {
	for i, b := range pkts {
		p.Put(b)
		pkts[i] = nil
	}
}

// PoolSnapshot is a point-in-time copy of a pool's counters. Hits and
// Misses partition Get calls; Puts counts buffers accepted back and
// Discards counts returns rejected for wrong capacity.
type PoolSnapshot struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Puts     uint64 `json:"puts"`
	Discards uint64 `json:"discards"`
}

// Snapshot copies the pool's counters.
func (p *Pool) Snapshot() PoolSnapshot {
	return PoolSnapshot{
		Hits:     p.hits.Load(),
		Misses:   p.misses.Load(),
		Puts:     p.puts.Load(),
		Discards: p.discards.Load(),
	}
}
