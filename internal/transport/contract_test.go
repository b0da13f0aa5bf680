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
		case <-peer.Data():
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

// recvN collects n packets from ch as a multiset (UDP does not promise
// order), failing the test if they do not arrive in time.
func recvN(t *testing.T, ch <-chan []byte, n int) map[string]int {
	t.Helper()
	got := make(map[string]int, n)
	deadline := time.After(5 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case pkt, ok := <-ch:
			if !ok {
				t.Fatalf("channel closed after %d/%d packets", i, n)
			}
			got[string(pkt)]++
		case <-deadline:
			t.Fatalf("received %d/%d packets before the deadline", i, n)
		}
	}
	return got
}

// expectQuiet fails the test if anything arrives on ch within the settle
// window.
func expectQuiet(t *testing.T, ch <-chan []byte, what string) {
	t.Helper()
	select {
	case pkt := <-ch:
		t.Fatalf("%s: unexpected packet %q", what, pkt)
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
			t.Run("unicast", func(t *testing.T) { testUnicast(t, sub.ring(t, 2)) })
			t.Run("close", func(t *testing.T) { testClose(t, sub.ring(t, 2)) })
		})
	}
	// The one row whose mechanism differs by udpnet mode: a run leaves a
	// connected multicast socket as a group too.
	t.Run("udpnet multicast group/run of equal packets", func(t *testing.T) {
		testEqualRun(t, udpnetMulticastRing(t, 3))
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
		for k, want := range run {
			select {
			case got := <-peer.Data():
				if string(got) != string(want) {
					t.Fatalf("peer %d packet %d: %d bytes, want the run's packet %d (%d bytes) unchanged", i+2, k, len(got), k, len(want))
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("peer %d received %d/%d packets before the deadline", i+2, k, len(run))
			}
		}
		expectQuiet(t, peer.Data(), "peer data channel after the run")
	}
	expectQuiet(t, sender.Data(), "sender received its own run")
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
	for name, ch := range map[string]<-chan []byte{"Data": a.Data(), "Token": a.Token()} {
		select {
		case pkt, ok := <-ch:
			if ok {
				t.Fatalf("%s() yielded %q after Close on an idle ring", name, pkt)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s() still open after Close", name)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
