//go:build linux && (amd64 || arm64)

package udpnet

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"accelring/internal/transport"
	"accelring/internal/wire"
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
			got := string(r.message(i))
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
	kept := r.message(0)
	r.detach(0)
	if &r.bufs[0][0] == &kept[0] {
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
	recvDatagrams(t, b.Data(), burst)
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

// sized builds a run of packets of the given lengths, each filled with a
// byte that identifies its position.
func sized(lens ...int) [][]byte {
	pkts := make([][]byte, len(lens))
	for i, l := range lens {
		pkts[i] = make([]byte, l)
		for j := range pkts[i] {
			pkts[i][j] = byte(i + 1)
		}
	}
	return pkts
}

// rep is n copies of length l.
func rep(n, l int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = l
	}
	return out
}

// TestGroupLen walks runs the way send does — zero-length packets skipped,
// groupLen packets per message — and pins how each run is cut.
func TestGroupLen(t *testing.T) {
	one := netip.MustParseAddrPort("127.0.0.1:7001")
	two := netip.MustParseAddrPort("127.0.0.1:7002")
	cat := func(parts ...[]int) (out []int) {
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	cases := []struct {
		name    string
		lens    []int
		addrs   []netip.AddrPort // nil: connected socket
		maxSegs int
		want    []int // packets per message, in order
	}{
		{"equal sizes", rep(30, 1378), nil, groupMaxSegs, []int{30}},
		{"shorter last closes the group", cat(rep(9, 100), []int{40}, rep(8, 100)), nil, groupMaxSegs, []int{10, 8}},
		{"longer next starts a new one", cat(rep(8, 100), rep(9, 200)), nil, groupMaxSegs, []int{8, 9}},
		{"65 equal packets", rep(65, 100), nil, groupMaxSegs, []int{64, 1}},
		{"bytes pass 65507", rep(20, 4000), nil, groupMaxSegs, []int{16, 1, 1, 1, 1}},
		{"7 stay ungrouped", rep(7, 100), nil, groupMaxSegs, []int{1, 1, 1, 1, 1, 1, 1}},
		{"8 group", rep(8, 100), nil, groupMaxSegs, []int{8}},
		{"short head is retried from the next packet", cat([]int{100}, rep(8, 50)), nil, groupMaxSegs, []int{1, 8}},
		{"zero-length skipped, ends a group", cat(rep(8, 100), []int{0}, rep(3, 100)), nil, groupMaxSegs, []int{8, 1, 1, 1}},
		{"one destination per group", rep(17, 100), append(repAddr(9, one), repAddr(8, two)...), groupMaxSegs, []int{9, 8}},
		{"limit of one", rep(30, 1378), nil, 1, rep(30, 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkts := sized(tc.lens...)
			var got []int
			for i := 0; i < len(pkts); {
				if len(pkts[i]) == 0 {
					i++
					continue
				}
				var dst []netip.AddrPort
				if tc.addrs != nil {
					dst = tc.addrs[i:]
				}
				n := groupLen(pkts[i:], dst, tc.maxSegs)
				got = append(got, n)
				i += n
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("cut as %v, want %v", got, tc.want)
			}
		})
	}
}

func repAddr(n int, a netip.AddrPort) []netip.AddrPort {
	out := make([]netip.AddrPort, n)
	for i := range out {
		out[i] = a
	}
	return out
}

// superRun is the run of the paper's operating point: 30 full datagrams
// and a shorter one.
func superRun() [][]byte { return sized(append(rep(30, 1378), 700)...) }

// expectRun receives len(want) datagrams and requires them byte-identical
// and in order.
func expectRun(t *testing.T, ch <-chan transport.Run, want [][]byte) {
	t.Helper()
	for i, got := range recvDatagrams(t, ch, len(want)) {
		if w := want[i]; string(got) != string(w) {
			t.Fatalf("packet %d: %d bytes starting %x, want %d bytes of %x", i, len(got), got[:1], len(w), w[0])
		}
	}
}

// TestSuperDatagramRoundTrip sends one run over loopback three ways and
// requires the same 31 packets out of Data() each time: grouped (the run
// leaves in one message of one syscall and arrives in one), with the group
// limit of a kernel that lacks UDP_SEGMENT, and through a kernel that
// refuses the group (a socket told not to checksum gets EINVAL for a
// segmented send) — re-sent ungrouped in the same call, grouping off from
// then on, one log line. The counters count datagrams throughout.
func TestSuperDatagramRoundTrip(t *testing.T) {
	run := superRun()
	counts := func(t *testing.T, a, b *Transport) (out, in transport.Snapshot) {
		t.Helper()
		out, in = a.MetricsSnapshot(), b.MetricsSnapshot()
		if out.DatagramsOut != 31 || in.DatagramsIn != 31 {
			t.Fatalf("DatagramsOut = %d, DatagramsIn = %d, want 31 and 31", out.DatagramsOut, in.DatagramsIn)
		}
		if out.SendBatch.Sum != 31 || in.RecvBatch.Sum != 31 {
			t.Fatalf("SendBatch.Sum = %d, RecvBatch.Sum = %d: the batch histograms must count datagrams",
				out.SendBatch.Sum, in.RecvBatch.Sum)
		}
		return out, in
	}

	t.Run("grouped", func(t *testing.T) {
		a, b := pair(t)
		if a.dataW.segs != groupMaxSegs {
			t.Skip("kernel lacks UDP_SEGMENT")
		}
		if err := a.Multicast(run); err != nil {
			t.Fatal(err)
		}
		expectRun(t, b.Data(), run)
		out, in := counts(t, a, b)
		if out.SendSyscalls != 1 || out.SendBatch.Max != 31 {
			t.Fatalf("SendSyscalls = %d, SendBatch.Max = %d, want 1 and 31", out.SendSyscalls, out.SendBatch.Max)
		}
		if in.RecvSyscalls != 1 || in.RecvBatch.Max != 31 {
			t.Fatalf("RecvSyscalls = %d, RecvBatch.Max = %d, want 1 and 31 (UDP_GRO hands the run over whole)",
				in.RecvSyscalls, in.RecvBatch.Max)
		}
	})

	t.Run("group limit 1", func(t *testing.T) {
		a, b := pair(t)
		a.dataW.segs = 1
		if err := a.Multicast(run); err != nil {
			t.Fatal(err)
		}
		expectRun(t, b.Data(), run)
		if out, _ := counts(t, a, b); out.SendSyscalls != 2 || out.SendBatch.Max != batchK {
			t.Fatalf("SendSyscalls = %d, SendBatch.Max = %d, want 2 and %d", out.SendSyscalls, out.SendBatch.Max, batchK)
		}
	})

	t.Run("refused once", func(t *testing.T) {
		var mu sync.Mutex
		var logged []string
		a, b := pairLogf(t, func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logged = append(logged, fmt.Sprintf(format, args...))
		})
		if a.dataW.segs != groupMaxSegs {
			t.Skip("kernel lacks UDP_SEGMENT")
		}
		noChecksums(t, a.dataConn)
		if err := a.Multicast(run); err != nil {
			t.Fatalf("a refused group must be re-sent, not reported: %v", err)
		}
		expectRun(t, b.Data(), run)
		counts(t, a, b)
		if err := a.Multicast(run); err != nil {
			t.Fatal(err)
		}
		expectRun(t, b.Data(), run)
		mu.Lock()
		defer mu.Unlock()
		if a.dataW.segs != 1 || a.dataW.refused != 1 || len(logged) != 1 {
			t.Fatalf("after two runs: group limit %d, %d refusals, log %q; want 1, 1 and one line",
				a.dataW.segs, a.dataW.refused, logged)
		}
		// 1 refused + 2 per ungrouped run.
		if got := a.MetricsSnapshot().SendSyscalls; got != 5 {
			t.Fatalf("SendSyscalls = %d, want 5", got)
		}
	})
}

// noChecksums makes the kernel refuse segmented sends on c with EINVAL
// (udp_send_skb will not segment for a socket that sends without
// checksums); lone datagrams still go out.
func noChecksums(t *testing.T, c *net.UDPConn) {
	t.Helper()
	rc, err := c.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_NO_CHECK, 1)
	}); err != nil || serr != nil {
		t.Fatal(err, serr)
	}
}

// TestBatchWriterRefusalReportsOnce: re-sending a refused group reloads
// the vector from the group's first packet; a destination beyond it that
// loading had already reported is not reported again.
func TestBatchWriterRefusalReportsOnce(t *testing.T) {
	recv := localConn(t)
	send := localConn(t)
	w, err := newBatchWriter(send)
	if err != nil {
		t.Fatal(err)
	}
	if w.segs != groupMaxSegs {
		t.Skip("kernel lacks UDP_SEGMENT")
	}
	noChecksums(t, send)
	pkts := sized(rep(9, 100)...)
	addrs := append(repAddr(8, addrPortOf(recv)), netip.MustParseAddrPort("[::1]:19999"))
	var failed []int
	if err := w.send(pkts, addrs, func(i int, e error) { failed = append(failed, i) }); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(failed) != "[8]" || w.refused != 1 {
		t.Fatalf("failed indices %v with %d refusals, want [8] and 1", failed, w.refused)
	}
	if got := collectDatagrams(t, recv, 8); len(got) != 8 {
		t.Fatalf("received %d distinct packets, want 8", len(got))
	}
}

// TestSuperDatagramPastBadPeers: a run long enough to group, through the
// partial-failure fixture. Every packet to every unreachable peer is
// reported and counted; the reachable peer gets the run, grouped.
func TestSuperDatagramPastBadPeers(t *testing.T) {
	a, d := mixedRing(t)
	run := sized(rep(10, 200)...)
	err := a.Multicast(run)
	if err == nil {
		t.Fatal("run with unreachable peers reported no error")
	}
	if n := strings.Count(err.Error(), "emulated multicast to"); n != 20 {
		t.Fatalf("aggregated error reports %d failures, want 20 (10 packets x 2 bad peers):\n%v", n, err)
	}
	for _, id := range []wire.ParticipantID{2, 3} {
		if n := strings.Count(err.Error(), fmt.Sprintf("emulated multicast to %s:", id)); n != 10 {
			t.Fatalf("%d failures name peer %s, want 10:\n%v", n, id, err)
		}
	}
	expectRun(t, d.Data(), run)
	snap := a.MetricsSnapshot()
	if snap.PeerSendErrors != 20 || snap.DatagramsOut != 10 {
		t.Fatalf("PeerSendErrors = %d, DatagramsOut = %d, want 20 and 10", snap.PeerSendErrors, snap.DatagramsOut)
	}
	if a.dataW.segs == groupMaxSegs && snap.SendSyscalls != 1 {
		t.Fatalf("SendSyscalls = %d for one group, want 1", snap.SendSyscalls)
	}
}

// TestUnicastCountsFailedSyscall: a sendto the kernel rejects is still a
// send syscall, so syscalls-per-message does not improve when the token
// path is failing.
func TestUnicastCountsFailedSyscall(t *testing.T) {
	a, _ := pair(t)
	if err := a.Unicast(2, make([]byte, 70000)); err == nil {
		t.Fatal("a 70000-byte datagram was sent")
	}
	snap := a.MetricsSnapshot()
	if snap.SendSyscalls != 1 || snap.DatagramsOut != 0 || snap.SendBatch.Count != 0 {
		t.Fatalf("after a failed sendto: SendSyscalls = %d, DatagramsOut = %d, SendBatch.Count = %d; want 1, 0, 0",
			snap.SendSyscalls, snap.DatagramsOut, snap.SendBatch.Count)
	}
}
