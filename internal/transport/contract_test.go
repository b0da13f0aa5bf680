package transport_test

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"accelring/internal/transport"
	"accelring/internal/transport/memnet"
	"accelring/internal/transport/udpnet"
	"accelring/internal/wire"
)

// substrates are the built-in implementations of transport.Transport. Each
// constructor returns a ring of n endpoints with participant IDs 1..n,
// closed when the test ends.
var substrates = []struct {
	name string
	ring func(t *testing.T, n int) []transport.Transport
}{
	{"memnet", memnetRing},
	{"udpnet", udpnetRing}, // loopback, unicast-emulated multicast
}

func memnetRing(t *testing.T, n int) []transport.Transport {
	hub := memnet.NewHub()
	ring := make([]transport.Transport, n)
	for i := range ring {
		ring[i] = hub.Join(wire.ParticipantID(i + 1))
	}
	t.Cleanup(func() { closeAll(ring) })
	return ring
}

func udpnetRing(t *testing.T, n int) []transport.Transport {
	return udpnetRingMode(t, n, "")
}

// udpnetMulticastRing is a udpnet ring on a real multicast group. It skips
// the test where the network delivers no multicast (some container
// networks).
func udpnetMulticastRing(t *testing.T, n int) []transport.Transport {
	ring := udpnetRingMode(t, n, "239.192.77.43:17413")
	if err := ring[0].Multicast([][]byte{[]byte("probe")}); err != nil {
		t.Fatal(err)
	}
	for _, peer := range ring[1:] {
		select {
		case r := <-peer.Data():
			transport.Buffers.Put(r.Buf)
		case <-time.After(time.Second):
			t.Skip("multicast unavailable in this environment")
		}
	}
	return ring
}

func udpnetRingMode(t *testing.T, n int, group string) []transport.Transport {
	peers := make(map[wire.ParticipantID]udpnet.Peer, n)
	for i := 0; i < n; i++ {
		peers[wire.ParticipantID(i+1)] = udpnet.Peer{Host: "127.0.0.1", DataPort: freePort(t), TokenPort: freePort(t)}
	}
	ring := make([]transport.Transport, 0, n)
	for i := 0; i < n; i++ {
		tr, err := udpnet.New(udpnet.Config{MyID: wire.ParticipantID(i + 1), Peers: peers, MulticastGroup: group})
		if err != nil {
			closeAll(ring)
			t.Fatal(err)
		}
		ring = append(ring, tr)
	}
	t.Cleanup(func() { closeAll(ring) })
	return ring
}

func closeAll(ring []transport.Transport) {
	for _, tr := range ring {
		tr.Close()
	}
}

func freePort(t *testing.T) int {
	t.Helper()
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("allocating port: %v", err)
	}
	defer c.Close()
	return c.LocalAddr().(*net.UDPAddr).Port
}

// recvRuns receives runs from ch until they hold n datagrams and returns
// the datagrams in arrival order, copied; it fails the test if they do not
// arrive in time or overshoot n.
func recvRuns(t *testing.T, ch <-chan transport.Run, n int) (pkts []string) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for len(pkts) < n {
		select {
		case r, ok := <-ch:
			if !ok {
				t.Fatalf("channel closed after %d/%d packets", len(pkts), n)
			}
			for i, off := 0, 0; i < r.Len(); i++ {
				var pkt []byte
				pkt, off = r.Cut(off)
				pkts = append(pkts, string(pkt))
			}
			transport.Buffers.Put(r.Buf)
		case <-deadline:
			t.Fatalf("received %d/%d packets before the deadline", len(pkts), n)
		}
	}
	if len(pkts) > n {
		t.Fatalf("received %d packets, want %d", len(pkts), n)
	}
	return pkts
}

// recvN collects n packets from ch as a multiset (UDP does not promise
// order), failing the test if they do not arrive in time.
func recvN(t *testing.T, ch <-chan transport.Run, n int) map[string]int {
	t.Helper()
	pkts := recvRuns(t, ch, n)
	got := make(map[string]int, n)
	for _, p := range pkts {
		got[p]++
	}
	return got
}

// expectQuiet fails the test if anything arrives on ch within the settle
// window.
func expectQuiet(t *testing.T, ch <-chan transport.Run, what string) {
	t.Helper()
	select {
	case r := <-ch:
		t.Fatalf("%s: unexpected packet %q", what, r.Buf)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestTransportContract runs one table of Transport-contract checks
// against every built-in substrate: what the runtime loop relies on must
// hold wherever it runs.
func TestTransportContract(t *testing.T) {
	for _, sub := range substrates {
		t.Run(sub.name, func(t *testing.T) {
			// 20 spans more than one sendmmsg chunk on the batched dataplane
			// (20 packets × 2 peers > batchK).
			for _, k := range []int{0, 1, 20} {
				t.Run(fmt.Sprintf("multicast vector of %d", k), func(t *testing.T) {
					testMulticastVector(t, sub.ring(t, 3), k)
				})
			}
			t.Run("run of equal packets", func(t *testing.T) { testEqualRun(t, sub.ring(t, 3)) })
			t.Run("vector arrives as runs", func(t *testing.T) { testVectorAsRuns(t, sub.ring(t, 3)) })
			t.Run("unicast", func(t *testing.T) { testUnicast(t, sub.ring(t, 2)) })
			t.Run("close", func(t *testing.T) { testClose(t, sub.ring(t, 2)) })
		})
	}
	// The rows whose mechanism differs by udpnet mode: a run leaves a
	// connected multicast socket as a group too.
	t.Run("udpnet multicast group/run of equal packets", func(t *testing.T) {
		testEqualRun(t, udpnetMulticastRing(t, 3))
	})
	t.Run("udpnet multicast group/vector arrives as runs", func(t *testing.T) {
		testVectorAsRuns(t, udpnetMulticastRing(t, 3))
	})
}

// testEqualRun: the shape a substrate may move as one unit (udpnet hands
// the kernel such a run as one super-datagram) — 30 full-size packets and a
// shorter one — still arrives as 31 packets, byte-identical and in order,
// at every participant but the sender.
func testEqualRun(t *testing.T, ring []transport.Transport) {
	sender, peers := ring[0], ring[1:]
	run := make([][]byte, 31)
	for i := range run {
		run[i] = make([]byte, 1378)
		for j := range run[i] {
			run[i][j] = byte(i + j)
		}
	}
	run[30] = run[30][:700]
	if err := sender.Multicast(run); err != nil {
		t.Fatalf("Multicast of the run: %v", err)
	}
	for i, peer := range peers {
		got := recvRuns(t, peer.Data(), len(run))
		for k, want := range run {
			if got[k] != string(want) {
				t.Fatalf("peer %d packet %d: %d bytes, want the run's packet %d (%d bytes) unchanged", i+2, k, len(got[k]), k, len(want))
			}
		}
		expectQuiet(t, peer.Data(), "peer data channel after the run")
	}
	expectQuiet(t, sender.Data(), "sender received its own run")
}

// testVectorAsRuns: a vector of mixed sizes — a run a substrate may move
// whole, a shorter packet that ends it, then packets of other sizes —
// arrives at every participant but the sender as runs whose datagrams,
// joined in arrival order, are the vector, each packet byte-identical.
func testVectorAsRuns(t *testing.T, ring []transport.Transport) {
	sender, peers := ring[0], ring[1:]
	var vec [][]byte
	for i, size := range append(append(repeat(12, 1000), 400), repeat(9, 300)...) {
		pkt := make([]byte, size)
		for j := range pkt {
			pkt[j] = byte(i*7 + j)
		}
		vec = append(vec, pkt)
	}
	if err := sender.Multicast(vec); err != nil {
		t.Fatalf("Multicast of the vector: %v", err)
	}
	for i, peer := range peers {
		got := recvRuns(t, peer.Data(), len(vec))
		for k, want := range vec {
			if got[k] != string(want) {
				t.Fatalf("peer %d: datagram %d of the joined runs is %d bytes, want the vector's packet %d (%d bytes) unchanged", i+2, k, len(got[k]), k, len(want))
			}
		}
		expectQuiet(t, peer.Data(), "peer data channel after the vector")
	}
	expectQuiet(t, sender.Data(), "sender received its own vector")
}

func repeat(n, size int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = size
	}
	return out
}

// testMulticastVector: a vector of k packets from endpoint 1 reaches every
// other endpoint exactly once each and never the sender; the packets are
// borrowed only for the call (the caller scribbles over them the moment
// Multicast returns and receivers still see the original bytes); and
// DatagramsOut advances by packets × peers.
func testMulticastVector(t *testing.T, ring []transport.Transport, k int) {
	sender, peers := ring[0], ring[1:]
	pkts := make([][]byte, k)
	want := make(map[string]int, k)
	for i := range pkts {
		pkts[i] = []byte(fmt.Sprintf("packet-%02d-of-%02d", i, k))
		want[string(pkts[i])]++
	}
	before := sender.MetricsSnapshot().DatagramsOut
	if err := sender.Multicast(pkts); err != nil {
		t.Fatalf("Multicast of %d packets: %v", k, err)
	}
	for _, pkt := range pkts {
		for i := range pkt {
			pkt[i] = 'X'
		}
	}
	if got, wantOut := sender.MetricsSnapshot().DatagramsOut-before, uint64(k*len(peers)); got != wantOut {
		t.Fatalf("DatagramsOut advanced by %d, want %d (%d packets × %d peers)", got, wantOut, k, len(peers))
	}
	for i, peer := range peers {
		got := recvN(t, peer.Data(), k)
		for p, n := range want {
			if got[p] != n {
				t.Fatalf("peer %d received %v, want one each of %d original packets", i+2, got, k)
			}
		}
		expectQuiet(t, peer.Data(), "peer data channel after the vector")
		expectQuiet(t, peer.Token(), "peer token channel (multicast is data-socket traffic)")
	}
	expectQuiet(t, sender.Data(), "sender received its own multicast")
}

// testUnicast: a unicast lands on the addressee's token channel — including
// when the addressee is the sender itself (singleton rings pass the token
// to themselves) — borrowed only for the call, and an unknown addressee is
// an error.
func testUnicast(t *testing.T, ring []transport.Transport) {
	a, b := ring[0], ring[1]
	for _, tc := range []struct {
		to   wire.ParticipantID
		recv transport.Transport
	}{{2, b}, {1, a}} {
		pkt := []byte(fmt.Sprintf("token-for-%d", tc.to))
		want := append([]byte(nil), pkt...)
		if err := a.Unicast(tc.to, pkt); err != nil {
			t.Fatalf("Unicast to %d: %v", tc.to, err)
		}
		for i := range pkt {
			pkt[i] = 'X'
		}
		got := recvN(t, tc.recv.Token(), 1)
		if got[string(want)] != 1 {
			t.Fatalf("unicast to %d delivered %v, want %q", tc.to, got, want)
		}
	}
	if err := a.Unicast(99, []byte("nobody")); !errors.Is(err, transport.ErrUnknownPeer) {
		t.Fatalf("Unicast to an unknown participant = %v, want ErrUnknownPeer", err)
	}
	expectQuiet(t, b.Data(), "unicast leaked onto a data channel")
}

// testClose: after Close both send operations report ErrClosed, both
// receive channels are closed, and a second Close is harmless.
func testClose(t *testing.T, ring []transport.Transport) {
	a := ring[0]
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := a.Multicast([][]byte{[]byte("late")}); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Multicast after Close = %v, want ErrClosed", err)
	}
	if err := a.Unicast(2, []byte("late")); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Unicast after Close = %v, want ErrClosed", err)
	}
	for name, ch := range map[string]<-chan transport.Run{"Data": a.Data(), "Token": a.Token()} {
		select {
		case r, ok := <-ch:
			if ok {
				t.Fatalf("%s() yielded %q after Close on an idle ring", name, r.Buf)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s() still open after Close", name)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
