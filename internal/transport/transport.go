// Package transport defines how protocol packets move between ring
// participants: IP-multicast (or an emulation of it) for data messages and
// unicast for the token, received on separate channels so the runtime can
// honor the protocol's token/data priority policy (Section III-D of the
// paper uses separate sockets for exactly this reason).
package transport

import (
	"errors"

	"accelring/internal/metrics"
	"accelring/internal/wire"
)

// Transport moves encoded packets between participants. It is the whole
// contract between the runtime loop and a network substrate: there are no
// optional side interfaces to discover by type assertion. Implementations
// must be safe for one sender goroutine plus internal receivers.
//
// Buffer ownership: a run received from Data() or Token() belongs to the
// consumer. The built-in transports receive into buffers of the shared
// Buffers pool, and the runtime loop steps a run's datagrams where they lie
// and returns its buffer with Buffers.Put once, after the last — so a run
// must not be retained past that hand-off (decoders copy what the protocol
// keeps). External transports need not use the pool: Put counts and drops
// foreign buffers instead of recycling them. Conversely, Multicast and
// Unicast borrow their packets only for the duration of the call;
// implementations that need them afterwards (queues, retransmission) must
// copy, because callers reuse their encode buffers.
type Transport interface {
	// Multicast sends a vector of encoded packets. The protocol sends data
	// in runs — the pre-token retransmission+window run and the post-token
	// accelerated flush of up to AcceleratedWindow frames — so the unit of
	// a data send is a vector, and a lone frame is a vector of one; a
	// substrate that can move a run in fewer syscalls than one per packet
	// (sendmmsg on Linux) does so here.
	//
	// Semantics are those of len(pkts) successive single sends, in order:
	// every packet goes to every participant except the sender
	// (participants hold their own messages already), each pkt is valid
	// only during the call, and a failure for one packet (or one peer,
	// under unicast emulation) must not abort delivery of the rest — the
	// aggregated error reports what was lost. An empty vector is a no-op.
	Multicast(pkts [][]byte) error
	// Unicast sends an encoded packet to one participant. Sending to
	// yourself must work (singleton rings pass the token to themselves).
	// pkt is only valid during the call.
	Unicast(to wire.ParticipantID, pkt []byte) error
	// Data returns the channel of runs received on the data socket
	// (multicast data messages and joins), and Token those received on the
	// token socket (tokens and commit tokens). Ownership of each run
	// transfers to the receiver; see the buffer ownership note above.
	Data() <-chan Run
	Token() <-chan Run
	// MetricsSnapshot copies the transport's loss-accounting counters;
	// the runtime includes it in Node metrics. Embedding Metrics provides
	// it.
	MetricsSnapshot() Snapshot
	// Close releases the transport's resources; the receive channels are
	// closed afterwards.
	Close() error
}

// Run is the unit of receive: the datagrams one receive took in, back to
// back in one buffer, each Seg bytes but the last, which may be shorter. A
// Seg of 0, or not below len(Buf), makes it one datagram: a run of one.
type Run struct {
	Buf []byte
	Seg int
}

// Len returns the number of datagrams in r.
func (r Run) Len() int {
	if r.Seg <= 0 || r.Seg >= len(r.Buf) {
		return 1
	}
	return (len(r.Buf) + r.Seg - 1) / r.Seg
}

// Cut returns the datagram of r that starts at off, and where the next
// one starts (len(r.Buf) after the last).
func (r Run) Cut(off int) (pkt []byte, next int) {
	next = len(r.Buf)
	if r.Seg > 0 && off+r.Seg < next {
		next = off + r.Seg
	}
	return r.Buf[off:next], next
}

// Snapshot is a point-in-time copy of a transport's loss-accounting
// counters.
type Snapshot struct {
	// DatagramsIn counts datagrams accepted off the network into the
	// receive queues (data and token combined).
	DatagramsIn uint64 `json:"datagrams_in"`
	// DatagramsOut counts packets handed to the network (an emulated
	// multicast counts one per destination).
	DatagramsOut uint64 `json:"datagrams_out"`
	// RecvQueueDrops counts received datagrams the transport itself
	// discarded, a run's all at once, because its receive queue (the
	// channel behind Data or Token) was full. It does not see what was
	// lost before the transport read it: that is KernelRecvDrops.
	RecvQueueDrops uint64 `json:"recv_queue_drops"`
	// KernelRecvDrops counts datagrams the kernel discarded because a
	// socket's receive buffer was full, summed over the transport's
	// receive sockets and read from them at snapshot time (SO_MEMINFO on
	// Linux; zero where the platform does not say, and for in-memory
	// transports). The protocol sees this loss only as retransmission
	// requests.
	KernelRecvDrops uint64 `json:"kernel_recv_drops"`
	// FanoutSends counts the individual unicasts performed to emulate
	// multicast (zero when real IP-multicast is in use).
	FanoutSends uint64 `json:"fanout_sends"`
	// SelfFiltered counts self-originated multicast packets filtered on
	// receive (IP-multicast loopback copies).
	SelfFiltered uint64 `json:"self_filtered"`
	// RecvSyscalls and SendSyscalls count the receive and send syscalls
	// actually issued (zero for in-memory transports). With syscall
	// batching DatagramsIn/RecvSyscalls and DatagramsOut/SendSyscalls are
	// the achieved amortization — the quantity the batched dataplane
	// exists to raise.
	RecvSyscalls uint64 `json:"recv_syscalls"`
	SendSyscalls uint64 `json:"send_syscalls"`
	// RecvTransientErrors counts receive-loop errors survived without
	// killing the loop (ICMP-induced socket errors, momentary ENOBUFS);
	// the loop only exits on close.
	RecvTransientErrors uint64 `json:"recv_transient_errors"`
	// PeerSendErrors counts individual per-destination send failures
	// during multicast fan-out; the fan-out completes to the remaining
	// peers regardless.
	PeerSendErrors uint64 `json:"peer_send_errors"`
	// RecvBatch and SendBatch are the distributions of datagrams moved per
	// receive/send syscall (every syscall observes its batch size, so a
	// one-at-a-time transport shows mean 1).
	RecvBatch metrics.BatchSnapshot `json:"recv_batch"`
	SendBatch metrics.BatchSnapshot `json:"send_batch"`
}

// Metrics is the shared counter set behind Snapshot; transports embed it
// (anonymously) to provide Transport.MetricsSnapshot. All counters are
// atomic — safe from receive goroutines and the sending protocol loop
// concurrently.
type Metrics struct {
	In           metrics.Counter
	Out          metrics.Counter
	Drops        metrics.Counter
	Fanout       metrics.Counter
	SelfFiltered metrics.Counter
	// Syscall accounting and per-stage resilience counters for the batched
	// dataplane; see the matching Snapshot fields. In-memory transports
	// leave them zero.
	RecvSyscalls  metrics.Counter
	SendSyscalls  metrics.Counter
	RecvTransient metrics.Counter
	PeerSendErrs  metrics.Counter
	RecvBatch     metrics.BatchHistogram
	SendBatch     metrics.BatchHistogram
}

// MetricsSnapshot implements Transport.
func (m *Metrics) MetricsSnapshot() Snapshot {
	return Snapshot{
		DatagramsIn:         m.In.Load(),
		DatagramsOut:        m.Out.Load(),
		RecvQueueDrops:      m.Drops.Load(),
		FanoutSends:         m.Fanout.Load(),
		SelfFiltered:        m.SelfFiltered.Load(),
		RecvSyscalls:        m.RecvSyscalls.Load(),
		SendSyscalls:        m.SendSyscalls.Load(),
		RecvTransientErrors: m.RecvTransient.Load(),
		PeerSendErrors:      m.PeerSendErrs.Load(),
		RecvBatch:           m.RecvBatch.Snapshot(),
		SendBatch:           m.SendBatch.Snapshot(),
	}
}

// ErrClosed is returned by send operations on a closed transport.
var ErrClosed = errors.New("transport: closed")

// ErrUnknownPeer is returned when unicasting to a participant the
// transport has no address for.
var ErrUnknownPeer = errors.New("transport: unknown peer")
