//go:build linux && (amd64 || arm64)

package udpnet

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"

	"accelring/internal/transport"
)

func addrPortOf(c *net.UDPConn) netip.AddrPort {
	return unmapAddrPort(c.LocalAddr().(*net.UDPAddr).AddrPort())
}

// TestBatchReaderDrainsQueuedDatagrams queues a pile of datagrams in the
// kernel socket buffer before the first read, so one recvmmsg must return
// several of them — the amortization the layer exists for — with correct
// lengths, payloads, and source addresses.
func TestBatchReaderDrainsQueuedDatagrams(t *testing.T) {
	recv := localConn(t)
	send := localConn(t)
	const count = 10
	want := map[string]bool{}
	for i := 0; i < count; i++ {
		msg := fmt.Sprintf("queued-%02d", i)
		want[msg] = true
		if _, err := send.WriteToUDPAddrPort([]byte(msg), addrPortOf(recv)); err != nil {
			t.Fatal(err)
		}
	}
	// Let every datagram land in recv's kernel buffer before the first read.
	time.Sleep(200 * time.Millisecond)

	r, err := newBatchReader(recv, transport.Buffers)
	if err != nil {
		t.Fatal(err)
	}
	defer r.release()

	total, maxBatch := 0, 0
	for total < count {
		n, err := r.read()
		if err != nil {
			t.Fatalf("read after %d datagrams: %v", total, err)
		}
		if n > maxBatch {
			maxBatch = n
		}
		for i := 0; i < n; i++ {
			got := string(r.buffer(i)[:r.length(i)])
			if !want[got] {
				t.Fatalf("unexpected or duplicate datagram %q", got)
			}
			delete(want, got)
			if src := r.addr(i); src != addrPortOf(send) {
				t.Fatalf("datagram %q source = %v, want %v", got, src, addrPortOf(send))
			}
		}
		total += n
	}
	if maxBatch < 2 {
		t.Fatalf("largest recvmmsg batch = %d for %d queued datagrams, want >= 2", maxBatch, count)
	}
}

// TestBatchReaderDetach: detaching a message's buffer transfers ownership
// and installs a fresh buffer in the slot, so the next read cannot
// overwrite the detached packet.
func TestBatchReaderDetach(t *testing.T) {
	recv := localConn(t)
	send := localConn(t)
	r, err := newBatchReader(recv, transport.Buffers)
	if err != nil {
		t.Fatal(err)
	}
	defer r.release()

	if _, err := send.WriteToUDPAddrPort([]byte("keep-me"), addrPortOf(recv)); err != nil {
		t.Fatal(err)
	}
	recv.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := r.read()
	if err != nil || n != 1 {
		t.Fatalf("read = %d, %v", n, err)
	}
	kept := r.detach(0)[:r.length(0)]
	if &r.buffer(0)[0] == &kept[0] {
		t.Fatal("detach left the same buffer in the slot")
	}
	if _, err := send.WriteToUDPAddrPort([]byte("overwriter"), addrPortOf(recv)); err != nil {
		t.Fatal(err)
	}
	if n, err := r.read(); err != nil || n != 1 {
		t.Fatalf("second read = %d, %v", n, err)
	}
	if string(kept) != "keep-me" {
		t.Fatalf("detached packet corrupted by later read: %q", kept)
	}
	transport.Buffers.Put(kept)
}

// TestBatchReaderClosedSocket: closing the socket makes read return a
// terminal error satisfying errors.Is(err, net.ErrClosed).
func TestBatchReaderClosedSocket(t *testing.T) {
	recv := localConn(t)
	r, err := newBatchReader(recv, transport.Buffers)
	if err != nil {
		t.Fatal(err)
	}
	defer r.release()
	go func() {
		time.Sleep(50 * time.Millisecond)
		recv.Close()
	}()
	_, err = r.read()
	if !errors.Is(err, net.ErrClosed) {
		t.Fatalf("read on closed socket = %v, want net.ErrClosed", err)
	}
}

// collectDatagrams reads n datagrams off c, failing the test on timeout.
func collectDatagrams(t *testing.T, c *net.UDPConn, n int) map[string]int {
	t.Helper()
	got := map[string]int{}
	buf := make([]byte, 2048)
	c.SetReadDeadline(time.Now().Add(3 * time.Second))
	for i := 0; i < n; i++ {
		ln, _, err := c.ReadFromUDPAddrPort(buf)
		if err != nil {
			t.Fatalf("after %d datagrams: %v", i, err)
		}
		got[string(buf[:ln])]++
	}
	return got
}

// TestBatchWriterUnconnectedVector sends a burst larger than batchK
// through an unconnected socket with per-message destinations and checks
// delivery, syscall amortization, and the onSyscall accounting feed.
func TestBatchWriterUnconnectedVector(t *testing.T) {
	recv := localConn(t)
	send := localConn(t)
	w, err := newBatchWriter(send)
	if err != nil {
		t.Fatal(err)
	}
	var sysCalls, sysSent int
	w.onSyscall = func(sent int) { sysCalls++; sysSent += sent }

	const count = batchK + 4
	pkts := make([][]byte, count)
	addrs := make([]netip.AddrPort, count)
	for i := range pkts {
		pkts[i] = []byte(fmt.Sprintf("vec-%02d", i))
		addrs[i] = addrPortOf(recv)
	}
	if err := w.send(pkts, addrs, func(i int, e error) { t.Errorf("message %d failed: %v", i, e) }); err != nil {
		t.Fatal(err)
	}
	if sysSent != count {
		t.Fatalf("onSyscall reported %d messages sent, want %d", sysSent, count)
	}
	if sysCalls >= count {
		t.Fatalf("%d syscalls for %d messages: no amortization", sysCalls, count)
	}
	got := collectDatagrams(t, recv, count)
	for i := range pkts {
		if got[string(pkts[i])] != 1 {
			t.Fatalf("packet %q delivered %d times", pkts[i], got[string(pkts[i])])
		}
	}
}

// TestBatchWriterConnected: a connected (dialed) socket takes a nil
// destination vector.
func TestBatchWriterConnected(t *testing.T) {
	recv := localConn(t)
	send, err := net.DialUDP("udp", nil, recv.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	w, err := newBatchWriter(send)
	if err != nil {
		t.Fatal(err)
	}
	pkts := [][]byte{[]byte("c1"), []byte("c2"), []byte("c3"), []byte("c4"), []byte("c5")}
	if err := w.send(pkts, nil, func(i int, e error) { t.Errorf("message %d failed: %v", i, e) }); err != nil {
		t.Fatal(err)
	}
	got := collectDatagrams(t, recv, len(pkts))
	if len(got) != len(pkts) {
		t.Fatalf("received %v", got)
	}
}

// TestBatchWriterFamilyMismatch: a destination the socket's family cannot
// encode is reported through onErr with errAddrFamily and skipped; the
// rest of the burst is still delivered.
func TestBatchWriterFamilyMismatch(t *testing.T) {
	recv := localConn(t)
	send := localConn(t) // IPv4-bound: cannot encode IPv6 destinations
	w, err := newBatchWriter(send)
	if err != nil {
		t.Fatal(err)
	}
	pkts := [][]byte{[]byte("ok-1"), []byte("bad"), []byte("ok-2")}
	addrs := []netip.AddrPort{
		addrPortOf(recv),
		netip.MustParseAddrPort("[::1]:19999"),
		addrPortOf(recv),
	}
	var failedIdx []int
	err = w.send(pkts, addrs, func(i int, e error) {
		failedIdx = append(failedIdx, i)
		if !errors.Is(e, errAddrFamily) {
			t.Errorf("message %d error = %v, want errAddrFamily", i, e)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(failedIdx) != 1 || failedIdx[0] != 1 {
		t.Fatalf("failed indices = %v, want [1]", failedIdx)
	}
	got := collectDatagrams(t, recv, 2)
	if got["ok-1"] != 1 || got["ok-2"] != 1 {
		t.Fatalf("received %v, want ok-1 and ok-2", got)
	}
}

// TestMulticastVectorAmortizesSyscalls: on the batched dataplane a
// 12-packet vector must move in fewer send syscalls than packets, and the
// send batch histogram must have seen a batch larger than one.
func TestMulticastVectorAmortizesSyscalls(t *testing.T) {
	a, b := pair(t)
	const burst = 12
	pkts := make([][]byte, burst)
	for i := range pkts {
		pkts[i] = []byte(fmt.Sprintf("burst-%02d", i))
	}
	if err := a.Multicast(pkts); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < burst; i++ {
		recvWithin(t, b.Data(), 2*time.Second)
	}
	snap := a.MetricsSnapshot()
	if snap.DatagramsOut != burst || snap.FanoutSends != burst {
		t.Fatalf("out=%d fanout=%d, want %d/%d", snap.DatagramsOut, snap.FanoutSends, burst, burst)
	}
	if snap.SendSyscalls >= burst {
		t.Fatalf("SendSyscalls = %d for a %d-packet vector: no amortization", snap.SendSyscalls, burst)
	}
	if snap.SendBatch.Max < 2 {
		t.Fatalf("SendBatch.Max = %d, want >= 2", snap.SendBatch.Max)
	}
}

// TestSockDropsCountsKernelLoss overruns a small receive buffer nobody is
// reading: every datagram sent is either still queued or counted by
// sockDrops, and a Transport's snapshot reports its sockets' counts.
func TestSockDropsCountsKernelLoss(t *testing.T) {
	recv := localConn(t)
	send := localConn(t)
	if err := recv.SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	if drops := sockDrops(recv); drops != 0 {
		t.Fatalf("fresh socket: %d drops", drops)
	}
	// Loopback delivery is synchronous: when a send returns, its datagram
	// has been queued on recv or dropped there.
	const sent = 200
	for i := 0; i < sent; i++ {
		if _, err := send.WriteToUDPAddrPort(make([]byte, 1000), addrPortOf(recv)); err != nil {
			t.Fatal(err)
		}
	}
	drops := sockDrops(recv)
	if drops == 0 {
		t.Fatalf("%d KB into a 4 KB buffer and no drops counted", sent)
	}
	queued := 0
	buf := make([]byte, 2048)
	for {
		recv.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		if _, _, err := recv.ReadFromUDPAddrPort(buf); err != nil {
			break
		}
		queued++
	}
	if uint64(queued)+drops != sent {
		t.Fatalf("%d read + %d dropped of %d sent", queued, drops, sent)
	}
	a, _ := pair(t)
	if got := a.MetricsSnapshot().KernelRecvDrops; got != 0 {
		t.Fatalf("idle transport: KernelRecvDrops = %d", got)
	}
}
