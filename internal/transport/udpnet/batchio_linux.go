//go:build linux && (amd64 || arm64)

// batchio is the syscall-batched dataplane: recvmmsg drains up to
// batchK datagrams per receive syscall into pooled buffers, and sendmmsg
// pushes a whole multicast burst (or an emulated fan-out to every peer)
// with one syscall per batchK messages. This is the stage-vectorized
// shape of modern dataplanes — process vectors of packets per stage and
// count per stage — applied to the transport the paper's Section III-D
// describes, and it is what amortizes the per-datagram syscall cost that
// dominates once the hot path stops allocating.
//
// A message of either syscall may be a group: consecutive equal-sized
// packets of one run to one destination, handed to the kernel as one
// super-datagram (UDP_SEGMENT) so it walks the IP stack once per group, and
// handed back by it the same way (UDP_GRO), to go up as one transport.Run.
// The bytes on the wire are those of the packets sent one by one.
//
// The structs below must match the kernel's struct mmsghdr layout, which
// on 64-bit targets is struct msghdr (56 bytes) + msg_len + 4 bytes of
// padding. The build tag therefore pins this file to the 64-bit ports the
// repo actually runs on; everything else (32-bit Linux included) builds
// the same types over one datagram per syscall from batchio_fallback.go.
package udpnet

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"syscall"
	"unsafe"

	"accelring/internal/transport"
)

// batchK is the vector length per syscall: the receive loop drains up to
// batchK datagrams per recvmmsg, and senders chunk bursts into batchK
// messages per sendmmsg. 16 keeps each reader's resident pooled-buffer
// set at 1 MiB (16 × 64 KiB) while still amortizing the syscall ~16x at
// saturation.
const batchK = 16

// The limits of a group (see groupLen). groupMaxSegs and groupMaxBytes are
// the kernel's: UDP_MAX_SEGMENTS and the largest UDP payload IPv4 carries.
// groupFloor is ours: fewer packets than this go out one datagram each,
// because a short group saves little stack work and costs tail latency
// under packing (EXPERIMENTS.md "Super-datagram run").
const (
	groupMaxSegs  = 64
	groupMaxBytes = 65507
	groupFloor    = 8
)

// Socket options missing from the stdlib's frozen syscall tables
// (linux/udp.h): UDP_SEGMENT since 4.18, UDP_GRO since 5.0.
const (
	udpSegment = 103
	udpGRO     = 104
)

// errAddrFamily marks a destination the sending socket's address family
// cannot encode (an IPv6 peer behind an IPv4-bound socket); the batch
// sender skips the message and reports it per-destination instead of
// aborting the burst.
var errAddrFamily = errors.New("udpnet: destination address family not supported by socket")

// mmsghdr mirrors the kernel's struct mmsghdr on 64-bit targets.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32 // msg_len: bytes transferred for this message
	_   [4]byte
}

// groCmsg is the one control message a receive slot has room for: the
// segment size the kernel attaches to a coalesced buffer.
type groCmsg struct {
	hdr  syscall.Cmsghdr
	size int32
	_    [4]byte
}

// batchReader drains a UDP socket with recvmmsg. It permanently owns
// batchK pooled buffers; when the transport accepts a message it detaches
// that buffer (ownership moves down the receive channel, exactly as in
// the one-at-a-time path) and the reader replaces it from the pool.
type batchReader struct {
	rc    syscall.RawConn
	pool  *transport.Pool
	bufs  [batchK][]byte
	iovs  [batchK]syscall.Iovec
	names [batchK]syscall.RawSockaddrInet6
	ctrl  [batchK]groCmsg
	hdrs  [batchK]mmsghdr

	// readFn is the RawConn.Read callback, built once so the steady-state
	// receive path allocates nothing per syscall.
	readFn func(fd uintptr) bool
	n      int
	operr  syscall.Errno
}

func newBatchReader(conn *net.UDPConn, pool *transport.Pool) (*batchReader, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, fmt.Errorf("udpnet: raw receive socket: %w", err)
	}
	r := &batchReader{rc: rc, pool: pool}
	for i := range r.bufs {
		r.bufs[i] = pool.Get()
		r.iovs[i].Base = &r.bufs[i][0]
		r.iovs[i].Len = uint64(len(r.bufs[i]))
		r.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&r.names[i]))
		r.hdrs[i].hdr.Iov = &r.iovs[i]
		r.hdrs[i].hdr.Iovlen = 1
		r.hdrs[i].hdr.Control = (*byte)(unsafe.Pointer(&r.ctrl[i]))
	}
	r.readFn = func(fd uintptr) bool {
		for i := range r.hdrs {
			r.hdrs[i].hdr.Namelen = syscall.SizeofSockaddrInet6
			r.hdrs[i].hdr.SetControllen(int(unsafe.Sizeof(r.ctrl[i])))
			r.hdrs[i].n = 0
		}
		for {
			n, _, errno := syscall.Syscall6(sysRECVMMSG, fd,
				uintptr(unsafe.Pointer(&r.hdrs[0])), batchK,
				uintptr(syscall.MSG_DONTWAIT), 0, 0)
			switch errno {
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				return false // let the netpoller wait for readability
			}
			r.operr = errno
			r.n = int(n)
			return true
		}
	}
	return r, nil
}

// read blocks until at least one datagram is available and returns how
// many the syscall delivered. A non-nil error is terminal for the socket
// (close/shutdown — errors.Is(err, net.ErrClosed)); socket-level errors
// the loop can survive come back as syscall errnos.
func (r *batchReader) read() (int, error) {
	r.n, r.operr = 0, 0
	if err := r.rc.Read(r.readFn); err != nil {
		return 0, err
	}
	if r.operr != 0 {
		return 0, r.operr
	}
	return r.n, nil
}

// coalesce asks the kernel to hand a run that arrived back to back over as
// one buffer plus its segment size (UDP_GRO). The error is dropped: a
// kernel without the option never attaches a segment size, and every
// message stays the one datagram it has always been.
func (r *batchReader) coalesce() {
	_ = r.rc.Control(func(fd uintptr) {
		_ = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO, 1)
	})
}

// message returns message i of the last read, in its resident buffer.
func (r *batchReader) message(i int) []byte { return r.bufs[i][:r.hdrs[i].n] }

// segment returns the size of the datagrams message i is made of — all of
// that size but the last, which may be shorter — or 0 when it is one
// datagram.
func (r *batchReader) segment(i int) int {
	c := &r.ctrl[i]
	if r.hdrs[i].hdr.Controllen < syscall.SizeofCmsghdr+4 ||
		c.hdr.Level != syscall.IPPROTO_UDP || c.hdr.Type != udpGRO {
		return 0
	}
	return int(c.size)
}

// addr returns the source address of message i, unmapped.
func (r *batchReader) addr(i int) netip.AddrPort {
	sa := &r.names[i]
	switch sa.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		return netip.AddrPortFrom(netip.AddrFrom4(sa4.Addr), portOf(&sa4.Port))
	case syscall.AF_INET6:
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr).Unmap(), portOf(&sa.Port))
	}
	return netip.AddrPort{}
}

// detach transfers ownership of message i's buffer to the caller, who has
// it from message, and installs a fresh pooled buffer in its slot.
func (r *batchReader) detach(i int) {
	nb := r.pool.Get()
	r.bufs[i] = nb
	r.iovs[i].Base = &nb[0]
	r.iovs[i].Len = uint64(len(nb))
}

// release returns the reader's resident buffers to the pool.
func (r *batchReader) release() {
	for i := range r.bufs {
		r.pool.Put(r.bufs[i])
		r.bufs[i] = nil
	}
}

// segmentCmsg is the control message that makes a send slot a group: the
// size at which the kernel cuts the gathered bytes back into datagrams.
type segmentCmsg struct {
	hdr  syscall.Cmsghdr
	size uint16
	_    [6]byte
}

// batchWriter pushes message vectors through sendmmsg. One writer serves
// one socket; calls must be serialized by the owner (udpnet guards it
// with the transport's send path, which the Transport contract already
// declares single-sender).
type batchWriter struct {
	rc     syscall.RawConn
	family uint16 // socket address family, for encoding destinations
	iovs   [batchK * groupMaxSegs]syscall.Iovec
	names  [batchK]syscall.RawSockaddrInet6
	ctrl   [batchK]segmentCmsg
	hdrs   [batchK]mmsghdr
	first  [batchK]int // hdr slot → caller's index of its first packet
	count  [batchK]int // hdr slot → packets it carries (1: a lone datagram)

	// segs is the most packets one slot may carry: groupMaxSegs, or 1 on a
	// kernel without UDP_SEGMENT and, from then on, once the kernel has
	// refused a group (refused counts that; the downgrade is sticky, so it
	// is 0 or 1). logf, when set, is told about the refusal.
	segs    int
	refused int
	logf    func(format string, args ...any)

	// onSyscall, when set, is invoked once per sendmmsg syscall with the
	// number of datagrams it transmitted (0 for a syscall that failed with
	// an errno) — the feed for the SendSyscalls counter and the send
	// batch-size histogram.
	onSyscall func(sent int)

	writeFn  func(fd uintptr) bool
	off, cnt int
	sent     int
	operr    syscall.Errno
}

// newBatchWriter wraps a send socket. connected sockets (DialUDP) take
// nil destination vectors; unconnected ones need one address per packet.
func newBatchWriter(conn *net.UDPConn) (*batchWriter, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, fmt.Errorf("udpnet: raw send socket: %w", err)
	}
	w := &batchWriter{rc: rc, family: syscall.AF_INET6, segs: 1}
	if la, ok := conn.LocalAddr().(*net.UDPAddr); ok && la.IP.To4() != nil {
		w.family = syscall.AF_INET
	}
	// A kernel that knows the option can send groups; one that does not
	// (or a socket already closed) keeps the limit of one.
	_ = rc.Control(func(fd uintptr) {
		if _, err := syscall.GetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpSegment); err == nil {
			w.segs = groupMaxSegs
		}
	})
	for i := range w.ctrl {
		w.ctrl[i].hdr.Level = syscall.IPPROTO_UDP
		w.ctrl[i].hdr.Type = udpSegment
		w.ctrl[i].hdr.SetLen(syscall.CmsgLen(2))
	}
	w.writeFn = func(fd uintptr) bool {
		for {
			n, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
				uintptr(unsafe.Pointer(&w.hdrs[w.off])), uintptr(w.cnt-w.off),
				uintptr(syscall.MSG_DONTWAIT), 0, 0)
			switch errno {
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				return false // wait for writability
			}
			w.operr = errno
			w.sent = int(n)
			return true
		}
	}
	return w, nil
}

// groupLen returns how many packets from the front of pkts leave as one
// message. More than one is a group: consecutive packets to one destination
// (addrs is nil on a connected socket), all the size of the first except
// that the last may be shorter — the shape UDP_SEGMENT cuts back into the
// same datagrams — within maxSegs packets and groupMaxBytes bytes. A
// zero-length packet ends a group without joining it (the sender skips
// those), and a group that would hold fewer than groupFloor packets is not
// formed: the answer is then 1. pkts[0] must not be empty.
func groupLen(pkts [][]byte, addrs []netip.AddrPort, maxSegs int) int {
	size := len(pkts[0])
	n, bytes := 1, size
	for n < len(pkts) && n < maxSegs {
		l := len(pkts[n])
		if l == 0 || l > size || bytes+l > groupMaxBytes || (addrs != nil && addrs[n] != addrs[0]) {
			break
		}
		n++
		bytes += l
		if l < size {
			break
		}
	}
	if n < groupFloor {
		return 1
	}
	return n
}

// send transmits pkts (to addrs[i] each, or to the connected destination
// when addrs is nil), batchK messages per syscall and groupLen packets per
// message, surviving partial sends. A failed packet is reported through
// onErr with its index and skipped — the rest of the burst still goes out,
// the batched analogue of the fan-out completing past one bad peer. The
// returned error is terminal only (socket closed mid-call).
func (w *batchWriter) send(pkts [][]byte, addrs []netip.AddrPort, onErr func(i int, err error)) error {
	if onErr == nil {
		onErr = func(int, error) {}
	}
	// A refused group rewinds next; told keeps what loading already
	// reported beyond it from being reported twice.
	next, told := 0, 0
	for next < len(pkts) {
		// Load up to batchK messages, skipping unencodable destinations.
		cnt, niov := 0, 0
		for next < len(pkts) && cnt < batchK {
			pkt := pkts[next]
			if len(pkt) == 0 {
				next++
				continue
			}
			h := &w.hdrs[cnt].hdr
			var dst []netip.AddrPort
			if addrs != nil {
				size := putSockaddr(&w.names[cnt], addrs[next], w.family)
				if size == 0 {
					if next >= told {
						onErr(next, errAddrFamily)
						told = next + 1
					}
					next++
					continue
				}
				h.Name = (*byte)(unsafe.Pointer(&w.names[cnt]))
				h.Namelen = size
				dst = addrs[next:]
			} else {
				h.Name = nil
				h.Namelen = 0
			}
			n := groupLen(pkts[next:], dst, w.segs)
			h.Iov = &w.iovs[niov]
			h.Iovlen = uint64(n)
			for _, p := range pkts[next : next+n] {
				w.iovs[niov].Base = &p[0]
				w.iovs[niov].Len = uint64(len(p))
				niov++
			}
			if n > 1 {
				w.ctrl[cnt].size = uint16(len(pkt))
				h.Control = (*byte)(unsafe.Pointer(&w.ctrl[cnt]))
				h.SetControllen(int(unsafe.Sizeof(w.ctrl[cnt])))
			} else {
				h.Control = nil
				h.SetControllen(0)
			}
			w.hdrs[cnt].n = 0
			w.first[cnt], w.count[cnt] = next, n
			cnt++
			next += n
		}
		// Transmit the chunk, resuming after partial sends and skipping
		// past per-message failures.
		off := 0
		for off < cnt {
			w.off, w.cnt = off, cnt
			w.operr, w.sent = 0, 0
			if err := w.rc.Write(w.writeFn); err != nil {
				return err
			}
			if w.operr == 0 && w.sent > 0 {
				if w.onSyscall != nil {
					datagrams := 0
					for _, c := range w.count[off : off+w.sent] {
						datagrams += c
					}
					w.onSyscall(datagrams)
				}
				off += w.sent
				continue
			}
			errno := w.operr
			if errno == 0 {
				// Defensive: a zero-progress success would spin forever.
				errno = syscall.EIO
			} else {
				if w.onSyscall != nil {
					w.onSyscall(0)
				}
				if w.count[off] > 1 && (errno == syscall.EINVAL || errno == syscall.EMSGSIZE || errno == syscall.EIO) {
					// The kernel will not segment on this path: a segment
					// exceeds the path MTU (EINVAL; EMSGSIZE from newer
					// kernels — a group's total never earns it), the
					// socket sends without checksums (EINVAL) or the device
					// cannot checksum (EIO). Stop grouping and reload from
					// this group's first packet; a packet that fails alone
					// too is reported then.
					w.segs = 1
					w.refused++
					if w.logf != nil {
						w.logf("udpnet: kernel refused a %d-packet group (%v); sending one datagram each from now on", w.count[off], errno)
					}
					next = w.first[off]
					break
				}
			}
			for i := w.first[off]; i < w.first[off]+w.count[off]; i++ {
				onErr(i, errno)
			}
			off++
		}
	}
	return nil
}

// portOf reads a network-byte-order sockaddr port.
func portOf(p *uint16) uint16 {
	b := (*[2]byte)(unsafe.Pointer(p))
	return uint16(b[0])<<8 | uint16(b[1])
}

// putSockaddr encodes ap into dst for a socket of the given family and
// returns the sockaddr length, or 0 if the family cannot carry ap (an
// IPv6 destination on an IPv4 socket). IPv4 destinations on an IPv6
// socket use the v4-mapped form, matching what the kernel does for
// dual-stack sockets.
func putSockaddr(dst *syscall.RawSockaddrInet6, ap netip.AddrPort, family uint16) uint32 {
	if family == syscall.AF_INET {
		a := ap.Addr().Unmap()
		if !a.Is4() {
			return 0
		}
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(dst))
		sa4.Family = syscall.AF_INET
		sa4.Addr = a.As4()
		b := (*[2]byte)(unsafe.Pointer(&sa4.Port))
		b[0], b[1] = byte(ap.Port()>>8), byte(ap.Port())
		return syscall.SizeofSockaddrInet4
	}
	dst.Family = syscall.AF_INET6
	dst.Addr = ap.Addr().As16() // As16 yields the v4-mapped form for IPv4
	dst.Flowinfo = 0
	dst.Scope_id = 0
	b := (*[2]byte)(unsafe.Pointer(&dst.Port))
	b[0], b[1] = byte(ap.Port()>>8), byte(ap.Port())
	return syscall.SizeofSockaddrInet6
}

// SO_MEMINFO (linux/socket.h, 4.12+) is missing from the stdlib's frozen
// syscall tables. It fills an array of SK_MEMINFO_VARS uint32 counters;
// SK_MEMINFO_DROPS (linux/sock_diag.h) indexes the datagrams the kernel
// discarded because the socket's receive buffer was full — the figure
// /proc/net/udp prints per socket and /proc/net/snmp sums as RcvbufErrors.
const (
	soMEMINFO      = 55
	skMeminfoVars  = 9
	skMeminfoDrops = 8
)

// sockDrops reads conn's kernel receive-drop counter; zero when the socket
// cannot be read (it is closed).
func sockDrops(conn *net.UDPConn) uint64 {
	rc, err := conn.SyscallConn()
	if err != nil {
		return 0
	}
	var info [skMeminfoVars]uint32
	size := uint32(unsafe.Sizeof(info))
	var errno syscall.Errno
	err = rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_GETSOCKOPT, fd, syscall.SOL_SOCKET, soMEMINFO,
			uintptr(unsafe.Pointer(&info)), uintptr(unsafe.Pointer(&size)), 0)
	})
	if err != nil || errno != 0 || size < uint32(unsafe.Sizeof(info)) {
		return 0
	}
	return uint64(info[skMeminfoDrops])
}
