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

// batchReader drains a UDP socket with recvmmsg. It permanently owns
// batchK pooled buffers; when the transport accepts a packet it detaches
// that buffer (ownership moves down the receive channel, exactly as in
// the one-at-a-time path) and the reader replaces it from the pool.
type batchReader struct {
	rc    syscall.RawConn
	pool  *transport.Pool
	bufs  [batchK][]byte
	iovs  [batchK]syscall.Iovec
	names [batchK]syscall.RawSockaddrInet6
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
	}
	r.readFn = func(fd uintptr) bool {
		for i := range r.hdrs {
			r.hdrs[i].hdr.Namelen = syscall.SizeofSockaddrInet6
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

// length returns the byte count of message i from the last read.
func (r *batchReader) length(i int) int { return int(r.hdrs[i].n) }

// buffer returns the buffer holding message i, full-capacity.
func (r *batchReader) buffer(i int) []byte { return r.bufs[i] }

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

// detach transfers ownership of message i's buffer to the caller and
// installs a fresh pooled buffer in its slot.
func (r *batchReader) detach(i int) []byte {
	b := r.bufs[i]
	nb := r.pool.Get()
	r.bufs[i] = nb
	r.iovs[i].Base = &nb[0]
	r.iovs[i].Len = uint64(len(nb))
	return b
}

// release returns the reader's resident buffers to the pool.
func (r *batchReader) release() {
	for i := range r.bufs {
		r.pool.Put(r.bufs[i])
		r.bufs[i] = nil
	}
}

// batchWriter pushes message vectors through sendmmsg. One writer serves
// one socket; calls must be serialized by the owner (udpnet guards it
// with the transport's send path, which the Transport contract already
// declares single-sender).
type batchWriter struct {
	rc     syscall.RawConn
	family uint16 // socket address family, for encoding destinations
	iovs   [batchK]syscall.Iovec
	names  [batchK]syscall.RawSockaddrInet6
	hdrs   [batchK]mmsghdr
	slot   [batchK]int // hdr slot → caller's message index

	// onSyscall, when set, is invoked once per sendmmsg syscall with the
	// number of messages it transmitted (0 for a syscall that failed with
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
	w := &batchWriter{rc: rc, family: syscall.AF_INET6}
	if la, ok := conn.LocalAddr().(*net.UDPAddr); ok && la.IP.To4() != nil {
		w.family = syscall.AF_INET
	}
	for i := range w.hdrs {
		w.hdrs[i].hdr.Iov = &w.iovs[i]
		w.hdrs[i].hdr.Iovlen = 1
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

// send transmits pkts (to addrs[i] each, or to the connected destination
// when addrs is nil) in chunks of batchK, surviving partial sends. A
// failed message is reported through onErr with its index and skipped —
// the rest of the burst still goes out, the batched analogue of the
// fan-out completing past one bad peer. The returned error is terminal
// only (socket closed mid-call).
func (w *batchWriter) send(pkts [][]byte, addrs []netip.AddrPort, onErr func(i int, err error)) error {
	next := 0
	for next < len(pkts) {
		// Load up to batchK messages, skipping unencodable destinations.
		cnt := 0
		for ; next < len(pkts) && cnt < batchK; next++ {
			pkt := pkts[next]
			if len(pkt) == 0 {
				continue
			}
			if addrs != nil {
				size := putSockaddr(&w.names[cnt], addrs[next], w.family)
				if size == 0 {
					if onErr != nil {
						onErr(next, errAddrFamily)
					}
					continue
				}
				w.hdrs[cnt].hdr.Name = (*byte)(unsafe.Pointer(&w.names[cnt]))
				w.hdrs[cnt].hdr.Namelen = size
			} else {
				w.hdrs[cnt].hdr.Name = nil
				w.hdrs[cnt].hdr.Namelen = 0
			}
			w.iovs[cnt].Base = &pkt[0]
			w.iovs[cnt].Len = uint64(len(pkt))
			w.hdrs[cnt].n = 0
			w.slot[cnt] = next
			cnt++
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
			if w.operr != 0 {
				if w.onSyscall != nil {
					w.onSyscall(0)
				}
				if onErr != nil {
					onErr(w.slot[off], w.operr)
				}
				off++
				continue
			}
			if w.sent <= 0 {
				// Defensive: a zero-progress success would spin forever.
				if onErr != nil {
					onErr(w.slot[off], syscall.EIO)
				}
				off++
				continue
			}
			if w.onSyscall != nil {
				w.onSyscall(w.sent)
			}
			off += w.sent
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
