// Package udpnet is the real-network transport: IP-multicast for data
// messages and UDP unicast for the token, on separate sockets/ports exactly
// as Section III-D of the paper describes. Where IP-multicast is not
// available (some container and cloud networks), the transport can emulate
// it with unicast fan-out — the same option Spread provides.
//
// The receive loop and the multicast send path are written once, against
// the batchReader/batchWriter pair the build selects: on 64-bit Linux they
// run on batched syscalls (recvmmsg/sendmmsg, batchio_linux.go) moving up
// to batchK messages per syscall, each a datagram or a group of them the
// kernel carries as one (UDP_SEGMENT/UDP_GRO), which is what keeps the
// per-message network cost sublinear once the hot path stops allocating;
// elsewhere the same types move one datagram per syscall
// (batchio_fallback.go) with identical semantics.
package udpnet

import (
	"errors"
	"fmt"
	"log"
	"net"
	"net/netip"
	"sort"
	"strconv"
	"sync"
	"time"

	"accelring/internal/transport"
	"accelring/internal/wire"
)

// MaxDatagram bounds receive buffers; it accommodates the large-datagram
// configuration of the paper's Section IV-A3. It equals the shared pool's
// buffer size so every received datagram fits in one pooled buffer.
const MaxDatagram = transport.MaxPacket

// defaultQueue is the receive channel depth per socket, in runs: at least
// three rotations of the default global window. A deeper channel costs
// set-up and GC time, since its slots are allocated zeroed and scanned.
const defaultQueue = 1024

// Peer is the addressing information for one participant.
type Peer struct {
	// Host is the peer's IP address or hostname.
	Host string
	// DataPort receives data packets when multicast emulation is in use.
	DataPort int
	// TokenPort receives unicast token packets.
	TokenPort int
}

// Config configures a UDP transport endpoint.
type Config struct {
	// MyID is this participant. Peers must contain an entry for it (used
	// to bind the local sockets).
	MyID wire.ParticipantID
	// Peers maps every ring participant to its addresses.
	Peers map[wire.ParticipantID]Peer
	// MulticastGroup is the data multicast group, e.g. "239.192.7.4:7400".
	// Empty enables unicast emulation: multicasts are sent point-to-point
	// to every peer's DataPort.
	MulticastGroup string
	// QueueLen overrides the receive channel depth in runs (default 1024).
	QueueLen int
	// Logf, when set, receives the transport's rare diagnostics (transient
	// receive errors survived with backoff). Nil uses the standard logger.
	Logf func(format string, args ...any)
}

// emuPeer is one unicast-emulation fan-out destination. The list is sorted
// by participant ID so fan-out order (and therefore partial-failure
// reporting) is deterministic, unlike the map iteration it replaces.
type emuPeer struct {
	id   wire.ParticipantID
	addr netip.AddrPort
}

// Transport is a UDP/IP-multicast transport endpoint.
type Transport struct {
	transport.Metrics

	cfg       Config
	dataConn  *net.UDPConn // receive side of the data socket
	dataSend  *net.UDPConn // send side for data
	tokenConn *net.UDPConn
	groupAddr *net.UDPAddr // nil in emulation mode
	// selfAddr is dataSend's local address (multicast mode), unmapped;
	// the zero AddrPort disables self-filtering. Addresses are netip
	// values, not *net.UDPAddr, so the send and receive paths stay free
	// of per-packet address allocations.
	selfAddr netip.AddrPort
	peers    map[wire.ParticipantID]netip.AddrPort // token addresses
	emuPeers []emuPeer                             // data fan-out targets (emulation), self excluded

	// dataW wraps the data send socket — dataSend in multicast mode,
	// dataConn in emulation mode. sendMu serializes use of the writer and
	// its flattening scratch; the Transport contract promises a single
	// sender, but Close (and belt-and-braces callers) may race.
	sendMu   sync.Mutex
	dataW    *batchWriter
	emuPkts  [][]byte
	emuAddrs []netip.AddrPort

	data  chan transport.Run
	token chan transport.Run

	// done is closed first thing in Close: it is the closed flag the send
	// paths poll and the signal that cuts a receive loop's error backoff
	// short.
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

var _ transport.Transport = (*Transport)(nil)

// New opens the sockets and starts the receive loops.
func New(cfg Config) (*Transport, error) {
	me, ok := cfg.Peers[cfg.MyID]
	if !ok {
		return nil, fmt.Errorf("udpnet: peers map has no entry for self (%s)", cfg.MyID)
	}
	queue := cfg.QueueLen
	if queue == 0 {
		queue = defaultQueue
	}
	t := &Transport{
		cfg:   cfg,
		peers: make(map[wire.ParticipantID]netip.AddrPort, len(cfg.Peers)),
		data:  make(chan transport.Run, queue),
		token: make(chan transport.Run, queue),
		done:  make(chan struct{}),
	}
	for id, p := range cfg.Peers {
		// JoinHostPort (not "%s:%d") so IPv6 literal hosts resolve.
		tokenAddr, err := net.ResolveUDPAddr("udp", net.JoinHostPort(p.Host, strconv.Itoa(p.TokenPort)))
		if err != nil {
			return nil, fmt.Errorf("udpnet: resolving %s token address: %w", id, err)
		}
		t.peers[id] = unmapAddrPort(tokenAddr.AddrPort())
		dataAddr, err := net.ResolveUDPAddr("udp", net.JoinHostPort(p.Host, strconv.Itoa(p.DataPort)))
		if err != nil {
			return nil, fmt.Errorf("udpnet: resolving %s data address: %w", id, err)
		}
		if id != cfg.MyID {
			t.emuPeers = append(t.emuPeers, emuPeer{id: id, addr: unmapAddrPort(dataAddr.AddrPort())})
		}
	}
	sort.Slice(t.emuPeers, func(i, j int) bool { return t.emuPeers[i].id < t.emuPeers[j].id })

	tokenBind, err := listenAddr(me.Host, me.TokenPort)
	if err != nil {
		return nil, fmt.Errorf("udpnet: token bind address: %w", err)
	}
	tokenConn, err := net.ListenUDP("udp", tokenBind)
	if err != nil {
		return nil, fmt.Errorf("udpnet: binding token socket: %w", err)
	}
	t.tokenConn = tokenConn

	if cfg.MulticastGroup != "" {
		gaddr, err := net.ResolveUDPAddr("udp", cfg.MulticastGroup)
		if err != nil {
			t.tokenConn.Close()
			return nil, fmt.Errorf("udpnet: resolving multicast group: %w", err)
		}
		t.groupAddr = gaddr
		dataConn, err := net.ListenMulticastUDP("udp", nil, gaddr)
		if err != nil {
			t.tokenConn.Close()
			return nil, fmt.Errorf("udpnet: joining multicast group %s: %w", cfg.MulticastGroup, err)
		}
		t.dataConn = dataConn
		sendConn, err := net.DialUDP("udp", nil, gaddr)
		if err != nil {
			t.tokenConn.Close()
			t.dataConn.Close()
			return nil, fmt.Errorf("udpnet: opening multicast send socket: %w", err)
		}
		t.dataSend = sendConn
		// Joining a multicast group loops our own sends back to dataConn.
		// Remember the send socket's source address so the receive loop can
		// filter those copies: the Transport contract is that Multicast
		// reaches every participant EXCEPT the sender (participants hold
		// their own messages already), which the unicast-emulation mode
		// implements by skipping self at send time.
		if la, ok := sendConn.LocalAddr().(*net.UDPAddr); ok {
			t.selfAddr = unmapAddrPort(la.AddrPort())
		}
	} else {
		dataBind, err := listenAddr(me.Host, me.DataPort)
		if err != nil {
			t.tokenConn.Close()
			return nil, fmt.Errorf("udpnet: data bind address: %w", err)
		}
		dataConn, err := net.ListenUDP("udp", dataBind)
		if err != nil {
			t.tokenConn.Close()
			return nil, fmt.Errorf("udpnet: binding data socket: %w", err)
		}
		t.dataConn = dataConn
	}

	// The data send socket is dataSend in multicast mode, dataConn under
	// emulation.
	sendSock := t.dataSend
	if sendSock == nil {
		sendSock = t.dataConn
	}
	w, err := newBatchWriter(sendSock)
	if err != nil {
		t.closeSockets()
		return nil, err
	}
	w.onSyscall = func(sent int) {
		t.SendSyscalls.Inc()
		if sent > 0 {
			t.SendBatch.Observe(sent)
		}
	}
	w.logf = t.logf
	t.dataW = w
	dataR, err := newBatchReader(t.dataConn, transport.Buffers)
	if err != nil {
		t.closeSockets()
		return nil, err
	}
	dataR.coalesce()
	tokenR, err := newBatchReader(t.tokenConn, transport.Buffers)
	if err != nil {
		dataR.release()
		t.closeSockets()
		return nil, err
	}

	t.wg.Add(2)
	go t.readLoop(dataR, t.data, t.selfAddr)
	go t.readLoop(tokenR, t.token, netip.AddrPort{})
	return t, nil
}

// listenAddr picks the local bind address for a listen socket. The
// configured host is honored when it names a concrete address — binding
// the wildcard there (as `net.UDPAddr{Port: ...}` silently did) accepts
// traffic on every interface, not just the one the operator configured.
// The wildcard is preserved in two cases: an empty host, and a hostname
// that resolves to loopback (the common /etc/hosts alias for the
// machine's own name — binding loopback there would stop remote peers
// from reaching this node at all). A literal loopback IP still binds
// loopback: writing "127.0.0.1" is an explicit choice.
func listenAddr(host string, port int) (*net.UDPAddr, error) {
	if host == "" {
		return &net.UDPAddr{Port: port}, nil
	}
	if ip := net.ParseIP(host); ip != nil {
		return &net.UDPAddr{IP: ip, Port: port}, nil
	}
	addr, err := net.ResolveUDPAddr("udp", net.JoinHostPort(host, "0"))
	if err != nil {
		return nil, err
	}
	if addr.IP.IsLoopback() {
		return &net.UDPAddr{Port: port}, nil
	}
	return &net.UDPAddr{IP: addr.IP, Port: port}, nil
}

// unmapAddrPort normalizes 4-in-6 mapped addresses so netip comparisons
// between addresses from different sources (resolver, socket local address,
// packet source) are meaningful.
func unmapAddrPort(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// isSelf reports whether src is this endpoint's own multicast loopback
// copy (the send socket's source address, with an unspecified-address
// wildcard for multi-homed hosts).
func isSelf(src, self netip.AddrPort) bool {
	return self.IsValid() && src.Port() == self.Port() &&
		(self.Addr().IsUnspecified() || src.Addr().Unmap() == self.Addr())
}

func (t *Transport) isClosed() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

func (t *Transport) logf(format string, args ...any) {
	if t.cfg.Logf != nil {
		t.cfg.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// recvState tracks a receive loop's error-recovery state: one log line per
// error burst, exponential backoff between retries, both reset by the next
// successful read.
type recvState struct {
	logged  bool
	backoff time.Duration
}

func (rs *recvState) ok() { rs.logged = false; rs.backoff = 0 }

// surviveRecvErr decides whether a receive loop keeps serving after err.
// Close is the only way a loop ends: net.ErrClosed (or the transport's
// closed flag, for raw errnos surfaced after the fd was torn down) stops
// it. Everything else — ICMP-induced socket errors, momentary ENOBUFS/
// ENOMEM — is transient: counted, logged once per burst, and retried with
// exponential backoff so a persistent fault cannot spin the CPU. The
// backoff ends early when the transport closes, so Close never waits one
// out.
func (t *Transport) surviveRecvErr(err error, rs *recvState) bool {
	if errors.Is(err, net.ErrClosed) || t.isClosed() {
		return false
	}
	t.RecvTransient.Inc()
	if !rs.logged {
		t.logf("udpnet: transient receive error (loop continues): %v", err)
		rs.logged = true
	}
	switch {
	case rs.backoff == 0:
		rs.backoff = time.Millisecond
	case rs.backoff < 100*time.Millisecond:
		rs.backoff *= 2
	}
	timer := time.NewTimer(rs.backoff)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-t.done:
		return false
	}
}

// packetReader is the receive loop's socket dependency: *batchReader in
// production, fakes in tests that script the loop's error handling
// deterministically. read blocks for at least one datagram and returns how
// many messages arrived; message i of that read, from addr(i), is the run
// of segment(i)-byte datagrams the kernel coalesced (one when segment(i) is
// 0; see transport.Run). detach gives up message i's pooled buffer and
// refills the slot from the pool; release returns the resident buffers.
type packetReader interface {
	read() (int, error)
	message(i int) []byte
	segment(i int) int
	addr(i int) netip.AddrPort
	detach(i int)
	release()
}

// readLoop pumps messages from a socket into a channel, each one Run in
// the pooled buffer it was received into, counting overflow drops (like a
// full kernel socket buffer, but accounted) and filtering this endpoint's
// own multicast loopback copies. An accepted run's buffer transfers to the
// consumer, which returns it with transport.Buffers.Put, and the reader
// replaces it; a filtered or dropped one is read into again. So the steady
// state is one pool Get per message, however many datagrams the kernel
// coalesced into it, and zero allocations. The counters count datagrams.
func (t *Transport) readLoop(r packetReader, ch chan<- transport.Run, self netip.AddrPort) {
	defer t.wg.Done()
	defer r.release()
	var rs recvState
	for {
		n, err := r.read()
		if err != nil {
			if !t.surviveRecvErr(err, &rs) {
				return
			}
			continue
		}
		rs.ok()
		t.RecvSyscalls.Inc()
		datagrams := 0
		for i := 0; i < n; i++ {
			run := transport.Run{Buf: r.message(i), Seg: r.segment(i)}
			count := uint64(run.Len())
			datagrams += int(count)
			if isSelf(r.addr(i), self) {
				t.SelfFiltered.Add(count)
				continue
			}
			select {
			case ch <- run:
				t.In.Add(count)
				r.detach(i)
			default:
				t.Drops.Add(count)
			}
		}
		t.RecvBatch.Observe(datagrams)
	}
}

// Multicast implements transport.Transport: the whole vector moves with
// one send syscall per batchK messages, and a run of groupFloor or more
// equal-sized packets is one message (see groupLen). In emulation mode the
// flattened fan-out is batched the same way and is peer-major — the whole
// run to one peer, then to the next — because a group has one destination;
// the order each peer sees, which is all the contract promises, is the
// vector's. A K-packet run to N peers costs ⌈K·N/batchK⌉ syscalls at most,
// and one when K reaches the floor and N ≤ batchK. A failed peer must not
// starve the ones after it — the ring tolerates one receiver missing a
// message (retransmission recovers it), but a fan-out that aborts
// mid-vector silently partitions every peer behind the failure — so
// per-destination errors aggregate instead.
func (t *Transport) Multicast(pkts [][]byte) error {
	if len(pkts) == 0 {
		return nil
	}
	if t.isClosed() {
		return transport.ErrClosed
	}
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	var errs []error
	failed := 0
	if t.groupAddr != nil {
		sendErr := t.dataW.send(pkts, nil, func(i int, e error) {
			failed++
			errs = append(errs, fmt.Errorf("udpnet: multicast (packet %d/%d): %w", i+1, len(pkts), e))
		})
		if sendErr != nil {
			return t.sendFatal(sendErr)
		}
		t.Out.Add(uint64(len(pkts) - failed))
		return errors.Join(errs...)
	}
	if len(t.emuPeers) == 0 {
		return nil // singleton ring: multicast reaches nobody but self
	}
	// Flatten peers × packets into one vector. The scratch slices are
	// retained across calls (guarded by sendMu) and the packet aliases
	// cleared afterwards, so the steady state allocates nothing.
	flatPkts := t.emuPkts[:0]
	flatAddrs := t.emuAddrs[:0]
	for _, p := range t.emuPeers {
		for _, pkt := range pkts {
			flatPkts = append(flatPkts, pkt)
			flatAddrs = append(flatAddrs, p.addr)
		}
	}
	sendErr := t.dataW.send(flatPkts, flatAddrs, func(i int, e error) {
		failed++
		t.PeerSendErrs.Inc()
		p := t.emuPeers[i/len(pkts)]
		errs = append(errs, fmt.Errorf("udpnet: emulated multicast to %s: %w", p.id, e))
	})
	sent := len(flatPkts) - failed
	for i := range flatPkts {
		flatPkts[i] = nil
	}
	t.emuPkts, t.emuAddrs = flatPkts[:0], flatAddrs[:0]
	if sendErr != nil {
		return t.sendFatal(sendErr)
	}
	t.Out.Add(uint64(sent))
	t.Fanout.Add(uint64(sent))
	return errors.Join(errs...)
}

// sendFatal normalizes a terminal send error (the socket went away
// mid-call) to the transport's close semantics.
func (t *Transport) sendFatal(err error) error {
	if errors.Is(err, net.ErrClosed) || t.isClosed() {
		return transport.ErrClosed
	}
	return fmt.Errorf("udpnet: multicast: %w", err)
}

// Unicast implements transport.Transport.
func (t *Transport) Unicast(to wire.ParticipantID, pkt []byte) error {
	if t.isClosed() {
		return transport.ErrClosed
	}
	addr, ok := t.peers[to]
	if !ok {
		return fmt.Errorf("%w: %s", transport.ErrUnknownPeer, to)
	}
	_, err := t.tokenConn.WriteToUDPAddrPort(pkt, addr)
	// A failed sendto is still a syscall, as a failed sendmmsg is on the
	// data path: syscalls per message must not improve when sends fail.
	t.SendSyscalls.Inc()
	if err != nil {
		return fmt.Errorf("udpnet: unicast to %s: %w", to, err)
	}
	t.Out.Inc()
	t.SendBatch.Observe(1)
	return nil
}

// MetricsSnapshot implements transport.Transport: the embedded counters
// plus what the kernel dropped at the two receive sockets before the
// receive loops could read it (zero once the sockets are closed).
func (t *Transport) MetricsSnapshot() transport.Snapshot {
	s := t.Metrics.MetricsSnapshot()
	s.KernelRecvDrops = sockDrops(t.dataConn) + sockDrops(t.tokenConn)
	return s
}

// Data implements transport.Transport.
func (t *Transport) Data() <-chan transport.Run { return t.data }

// Token implements transport.Transport.
func (t *Transport) Token() <-chan transport.Run { return t.token }

// Close implements transport.Transport.
func (t *Transport) Close() error {
	t.closeOnce.Do(func() {
		close(t.done)
		t.closeSockets()
		t.wg.Wait()
		close(t.data)
		close(t.token)
	})
	return nil
}

func (t *Transport) closeSockets() {
	t.tokenConn.Close()
	t.dataConn.Close()
	if t.dataSend != nil {
		t.dataSend.Close()
	}
}
