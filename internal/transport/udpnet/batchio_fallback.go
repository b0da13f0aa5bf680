//go:build !(linux && (amd64 || arm64))

// The portable dataplane: the same batchReader/batchWriter types as
// batchio_linux.go, for platforms without recvmmsg/sendmmsg (or without
// the 64-bit mmsghdr layout that file pins). Every vector moves one
// datagram per syscall, so each syscall observes batch size 1.
package udpnet

import (
	"errors"
	"net"
	"net/netip"

	"accelring/internal/transport"
)

// batchReader reads one datagram per syscall into a resident pooled
// buffer; see batchio_linux.go for the contract it shares.
type batchReader struct {
	conn *net.UDPConn
	pool *transport.Pool
	buf  []byte
	n    int
	src  netip.AddrPort
}

func newBatchReader(conn *net.UDPConn, pool *transport.Pool) (*batchReader, error) {
	return &batchReader{conn: conn, pool: pool, buf: pool.Get()}, nil
}

// read blocks for one datagram. ReadFromUDPAddrPort returns the source as
// a value (unlike ReadFromUDP's per-call *net.UDPAddr), keeping the
// receive path allocation-free.
func (r *batchReader) read() (int, error) {
	n, src, err := r.conn.ReadFromUDPAddrPort(r.buf)
	if err != nil {
		return 0, err
	}
	r.n, r.src = n, src
	return 1, nil
}

func (r *batchReader) message(int) []byte      { return r.buf[:r.n] }
func (r *batchReader) segment(int) int         { return 0 }
func (r *batchReader) addr(int) netip.AddrPort { return r.src }

// coalesce is a no-op: one datagram per read is all this dataplane asks of
// the kernel.
func (r *batchReader) coalesce() {}

func (r *batchReader) detach(int) { r.buf = r.pool.Get() }

func (r *batchReader) release() {
	r.pool.Put(r.buf)
	r.buf = nil
}

// batchWriter sends one datagram per syscall; see batchio_linux.go for the
// contract it shares.
type batchWriter struct {
	conn      *net.UDPConn
	onSyscall func(sent int)
	logf      func(format string, args ...any) // unused here: nothing to downgrade from
}

func newBatchWriter(conn *net.UDPConn) (*batchWriter, error) {
	return &batchWriter{conn: conn}, nil
}

func (w *batchWriter) send(pkts [][]byte, addrs []netip.AddrPort, onErr func(i int, err error)) error {
	for i, pkt := range pkts {
		if len(pkt) == 0 {
			continue
		}
		var err error
		if addrs != nil {
			_, err = w.conn.WriteToUDPAddrPort(pkt, addrs[i])
		} else {
			_, err = w.conn.Write(pkt)
		}
		if errors.Is(err, net.ErrClosed) {
			return err
		}
		sent := 1
		if err != nil {
			sent = 0
			if onErr != nil {
				onErr(i, err)
			}
		}
		if w.onSyscall != nil {
			w.onSyscall(sent)
		}
	}
	return nil
}

// sockDrops has no portable source for the kernel's receive-buffer drop
// count; see batchio_linux.go.
func sockDrops(*net.UDPConn) uint64 { return 0 }
