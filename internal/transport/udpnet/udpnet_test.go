package udpnet

import (
	"net"
	"testing"
	"time"

	"accelring/internal/wire"
)

// freePorts grabs n distinct free UDP ports on localhost.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, 0, n)
	conns := make([]*net.UDPConn, 0, n)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for len(ports) < n {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatalf("allocating port: %v", err)
		}
		conns = append(conns, c)
		ports = append(ports, c.LocalAddr().(*net.UDPAddr).Port)
	}
	return ports
}

// localConn opens an idle loopback socket, closed when the test ends.
func localConn(t *testing.T) *net.UDPConn {
	t.Helper()
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// pair opens two emulation-mode transports on loopback.
func pair(t *testing.T) (*Transport, *Transport) {
	t.Helper()
	return pairLogf(t, nil)
}

// pairLogf is pair with the transports' diagnostics sent to logf.
func pairLogf(t *testing.T, logf func(string, ...any)) (*Transport, *Transport) {
	t.Helper()
	ports := freePorts(t, 4)
	peers := map[wire.ParticipantID]Peer{
		1: {Host: "127.0.0.1", DataPort: ports[0], TokenPort: ports[1]},
		2: {Host: "127.0.0.1", DataPort: ports[2], TokenPort: ports[3]},
	}
	a, err := New(Config{MyID: 1, Peers: peers, Logf: logf})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{MyID: 2, Peers: peers, Logf: logf})
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return a, b
}

func recvWithin(t *testing.T, ch <-chan []byte, d time.Duration) []byte {
	t.Helper()
	select {
	case pkt := <-ch:
		return pkt
	case <-time.After(d):
		t.Fatal("no packet within deadline")
		return nil
	}
}

func TestNewRequiresSelfPeer(t *testing.T) {
	_, err := New(Config{MyID: 1, Peers: map[wire.ParticipantID]Peer{2: {Host: "127.0.0.1"}}})
	if err == nil {
		t.Fatal("accepted config without self peer")
	}
}

func TestLargeDatagram(t *testing.T) {
	a, b := pair(t)
	// The 8850-byte payload configuration of Section IV-A3: the kernel
	// fragments/reassembles the datagram.
	big := make([]byte, 9000)
	for i := range big {
		big[i] = byte(i)
	}
	if err := a.Multicast([][]byte{big}); err != nil {
		t.Fatal(err)
	}
	got := recvWithin(t, b.Data(), 2*time.Second)
	if len(got) != len(big) {
		t.Fatalf("got %d bytes, want %d", len(got), len(big))
	}
	for i := range got {
		if got[i] != big[i] {
			t.Fatalf("corruption at %d", i)
		}
	}
}

// TestReceiveQueueOverflowCounted saturates a tiny receive queue and
// checks the overflow is accounted: accepted plus dropped equals sent, and
// the queue can never accept more than its capacity while undrained.
func TestReceiveQueueOverflowCounted(t *testing.T) {
	ports := freePorts(t, 4)
	peers := map[wire.ParticipantID]Peer{
		1: {Host: "127.0.0.1", DataPort: ports[0], TokenPort: ports[1]},
		2: {Host: "127.0.0.1", DataPort: ports[2], TokenPort: ports[3]},
	}
	a, err := New(Config{MyID: 1, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	const queue = 4
	b, err := New(Config{MyID: 2, Peers: peers, QueueLen: queue})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const sent = 64
	for i := 0; i < sent; i++ {
		if err := a.Multicast([][]byte{{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	// b never drains Data(); the read loop must fill the queue and count
	// every further packet as a drop. Loopback UDP is reliable at this
	// volume, so the accounting converges to exactly `sent`.
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := b.MetricsSnapshot()
		if snap.DatagramsIn+snap.RecvQueueDrops == sent {
			if snap.DatagramsIn > queue {
				t.Fatalf("accepted %d packets into a queue of %d", snap.DatagramsIn, queue)
			}
			if snap.RecvQueueDrops < sent-queue {
				t.Fatalf("drops = %d, want >= %d", snap.RecvQueueDrops, sent-queue)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("accounting never converged: %+v (sent %d)", snap, sent)
		}
		time.Sleep(time.Millisecond)
	}
}

// floodBothPeers opens a two-member ring in the given mode (multicast
// group, or unicast emulation when group is empty), floods `count`
// distinct multicasts from member 1, and returns the packet streams each
// member's engine would see on its data channel. ok is false when nothing
// was delivered — multicast is unavailable in some container networks.
func floodBothPeers(t *testing.T, group string, count int) (self, peer [][]byte, sender *Transport, ok bool) {
	t.Helper()
	ports := freePorts(t, 4)
	peers := map[wire.ParticipantID]Peer{
		1: {Host: "127.0.0.1", DataPort: ports[0], TokenPort: ports[1]},
		2: {Host: "127.0.0.1", DataPort: ports[2], TokenPort: ports[3]},
	}
	a, err := New(Config{MyID: 1, Peers: peers, MulticastGroup: group})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{MyID: 2, Peers: peers, MulticastGroup: group})
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})

	for i := 0; i < count; i++ {
		if err := a.Multicast([][]byte{{byte('f'), byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(2 * time.Second)
	for len(peer) < count {
		select {
		case pkt := <-b.Data():
			peer = append(peer, pkt)
		case <-deadline:
			return self, peer, a, len(peer) > 0
		}
	}
	// Give any (buggy) self-delivery time to surface on the sender side.
	settle := time.After(100 * time.Millisecond)
	for {
		select {
		case pkt := <-a.Data():
			self = append(self, pkt)
		case <-settle:
			return self, peer, a, true
		}
	}
}

// TestFloodIdenticalAcrossModes is the regression test for the
// self-delivery asymmetry: in multicast mode the sender used to receive
// its own multicasts via IP loopback, while unicast emulation skipped
// self at send time — so the engine saw different packet streams
// depending on deployment mode. Both modes must now present identical
// streams: everything at the peer, nothing at the sender.
func TestFloodIdenticalAcrossModes(t *testing.T) {
	const count = 32
	emuSelf, emuPeer, _, ok := floodBothPeers(t, "", count)
	if !ok || len(emuPeer) != count {
		t.Fatalf("emulation mode delivered %d/%d packets", len(emuPeer), count)
	}
	mcSelf, mcPeer, mcSender, ok := floodBothPeers(t, "239.192.77.42:17412", count)
	if !ok {
		t.Skip("multicast unavailable in this environment")
	}
	if len(mcPeer) != count {
		t.Fatalf("multicast mode delivered %d/%d packets", len(mcPeer), count)
	}

	if len(emuSelf) != 0 {
		t.Fatalf("emulation mode: sender saw %d of its own multicasts", len(emuSelf))
	}
	if len(mcSelf) != 0 {
		t.Fatalf("multicast mode: sender saw %d of its own multicasts (loopback not filtered)", len(mcSelf))
	}

	// The engine-visible streams must carry the same packets in both
	// modes. UDP does not guarantee ordering, so compare as multisets.
	emuSet := make(map[string]int, count)
	for _, pkt := range emuPeer {
		emuSet[string(pkt)]++
	}
	for _, pkt := range mcPeer {
		emuSet[string(pkt)]--
		if emuSet[string(pkt)] < 0 {
			t.Fatalf("multicast mode delivered %q more often than emulation mode", pkt)
		}
	}
	for pkt, n := range emuSet {
		if n != 0 {
			t.Fatalf("packet %q seen %d more times in emulation mode", pkt, n)
		}
	}

	// The filtered loopback copies are accounted, not invisible.
	if snap := mcSender.MetricsSnapshot(); snap.SelfFiltered == 0 {
		t.Fatal("no loopback copies filtered — self-filter accounting missing")
	}
}
