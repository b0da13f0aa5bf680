package udpnet

import (
	"fmt"
	"net"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"accelring/internal/transport"
	"accelring/internal/wire"
)

// scriptedReader drives readLoop through an exact sequence of results —
// the deterministic stand-in for a socket hit by ICMP-induced errors or
// momentary kernel memory pressure. Each step is one read: a batch of
// messages, or an error; past the script's end it returns loop (nil means
// net.ErrClosed) forever. reads, when set, is signalled per read call
// (without blocking, so an unwatched loop never wedges in the fake). Like
// the real reader it keeps one pooled buffer per message slot, refilled
// after a detach; fills counts the buffers it took from the pool.
type scriptedReader struct {
	steps []readStep
	loop  error
	reads chan struct{}

	i     int
	msgs  []scripted
	bufs  [][]byte
	fills int
}

// readStep is one read: an error, or the messages msgs.
type readStep struct {
	msgs []scripted
	err  error
}

// scripted is one message of a read: pkt as one datagram, or with seg set
// a coalesced run of seg-byte datagrams.
type scripted struct {
	pkt string
	seg int
}

// msg is a read of one message.
func msg(pkt string, seg int) readStep { return readStep{msgs: []scripted{{pkt, seg}}} }

func (s *scriptedReader) read() (int, error) {
	select {
	case s.reads <- struct{}{}:
	default:
	}
	st := readStep{err: s.loop}
	if s.i < len(s.steps) {
		st = s.steps[s.i]
		s.i++
	} else if st.err == nil {
		st.err = net.ErrClosed
	}
	if st.err != nil {
		return 0, st.err
	}
	s.msgs = st.msgs
	for i, m := range s.msgs {
		if i == len(s.bufs) {
			s.bufs = append(s.bufs, nil)
		}
		if s.bufs[i] == nil {
			s.bufs[i] = transport.Buffers.Get()
			s.fills++
		}
		copy(s.bufs[i], m.pkt)
	}
	return len(s.msgs), nil
}

func (s *scriptedReader) message(i int) []byte { return s.bufs[i][:len(s.msgs[i].pkt)] }
func (s *scriptedReader) segment(i int) int    { return s.msgs[i].seg }
func (s *scriptedReader) addr(int) netip.AddrPort {
	return netip.MustParseAddrPort("127.0.0.1:9999")
}
func (s *scriptedReader) detach(i int) { s.bufs[i] = nil }
func (s *scriptedReader) release()     { transport.Buffers.PutBatch(s.bufs) }

// loopTransport is a Transport just real enough to run readLoop against a
// scripted reader and then Close: live (idle) sockets, no receive loops of
// its own.
func loopTransport(t *testing.T, logf func(string, ...any)) *Transport {
	t.Helper()
	return &Transport{
		cfg:       Config{Logf: logf},
		tokenConn: localConn(t),
		dataConn:  localConn(t),
		data:      make(chan transport.Run, 4),
		token:     make(chan transport.Run, 4),
		done:      make(chan struct{}),
	}
}

// TestReadLoopSurvivesTransientErrors is the regression test for the
// receive-loop resilience fix: a loop that returns on ANY read error lets
// a single ICMP port-unreachable (surfaced as ECONNREFUSED) silently kill
// the node's receive path forever. The loop must instead count the error,
// log once per burst, back off, and keep serving — exiting only on
// net.ErrClosed.
func TestReadLoopSurvivesTransientErrors(t *testing.T) {
	refused := &net.OpError{Op: "read", Net: "udp", Err: syscall.ECONNREFUSED}
	nobufs := &net.OpError{Op: "read", Net: "udp", Err: syscall.ENOBUFS}
	reader := &scriptedReader{steps: []readStep{
		{err: refused},
		{err: refused},
		msg("first", 0),
		{err: nobufs},
		msg("second", 0),
	}}

	var logCalls atomic.Int64
	tr := loopTransport(t, func(string, ...any) { logCalls.Add(1) })
	ch := make(chan transport.Run, 4)
	done := make(chan struct{})
	tr.wg.Add(1)
	go func() {
		defer close(done)
		tr.readLoop(reader, ch, netip.AddrPort{})
	}()

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("read loop did not exit on net.ErrClosed")
	}
	if got := len(ch); got != 2 {
		t.Fatalf("loop delivered %d packets across the error bursts, want 2", got)
	}
	for i, want := range []string{"first", "second"} {
		if got := string((<-ch).Buf); got != want {
			t.Fatalf("packet %d = %q, want %q", i, got, want)
		}
	}
	snap := tr.MetricsSnapshot()
	if snap.RecvTransientErrors != 3 {
		t.Fatalf("RecvTransientErrors = %d, want 3", snap.RecvTransientErrors)
	}
	if snap.DatagramsIn != 2 {
		t.Fatalf("DatagramsIn = %d, want 2", snap.DatagramsIn)
	}
	// One log line per error burst (two bursts), not one per error.
	if got := logCalls.Load(); got != 2 {
		t.Fatalf("logged %d times, want 2 (once per burst)", got)
	}
}

// TestReadLoopCutsCoalescedMessage: a message that carries a segment size
// reaches the channel as one run of its datagrams, in the one pooled buffer
// it was read into — readLoop takes no buffer of its own — and every buffer
// comes back to the pool exactly once: the consumer's when it is done with
// a run, the reader's own on release. The counters count datagrams, and a
// run that finds the queue full is a counted drop like any other.
func TestReadLoopCutsCoalescedMessage(t *testing.T) {
	reader := &scriptedReader{steps: []readStep{
		msg("aaaabbbbcc", 4),
		msg("lone", 4), // a segment size that cuts nothing
		{msgs: []scripted{{"dddd", 4}, {"eeee", 4}}},
	}}
	tr := loopTransport(t, func(string, ...any) {})
	ch := make(chan transport.Run, 3)
	before := transport.Buffers.Snapshot()
	tr.wg.Add(1)
	tr.readLoop(reader, ch, netip.AddrPort{})

	var got []string
	seen := map[*byte]bool{}
	for len(ch) > 0 {
		r := <-ch
		if cap(r.Buf) != transport.MaxPacket || seen[&r.Buf[:1][0]] {
			t.Fatalf("run %q is not in a pooled buffer of its own (cap %d)", r.Buf, cap(r.Buf))
		}
		seen[&r.Buf[:1][0]] = true
		for _, pkt := range datagrams(r) {
			got = append(got, string(pkt))
		}
		transport.Buffers.Put(r.Buf)
	}
	if want := "aaaa bbbb cc lone dddd"; strings.Join(got, " ") != want {
		t.Fatalf("delivered %q, want %q", got, want)
	}
	after := transport.Buffers.Snapshot()
	gets := after.Hits + after.Misses - before.Hits - before.Misses
	if gets != uint64(reader.fills) || after.Puts-before.Puts != gets {
		t.Fatalf("%d pool gets (%d by the reader), %d puts: want one buffer per run, each released once",
			gets, reader.fills, after.Puts-before.Puts)
	}
	snap := tr.MetricsSnapshot()
	if snap.DatagramsIn != 5 || snap.RecvQueueDrops != 1 {
		t.Fatalf("DatagramsIn = %d, RecvQueueDrops = %d, want 5 and 1", snap.DatagramsIn, snap.RecvQueueDrops)
	}
	if rb := snap.RecvBatch; rb.Count != 3 || rb.Sum != 6 || rb.Max != 3 {
		t.Fatalf("RecvBatch = %d reads, %d datagrams, max %d; want 3, 6, 3", rb.Count, rb.Sum, rb.Max)
	}
}

// TestReadLoopRunShapes: the edges of a run's shape. A short last segment
// is a datagram of its own; a segment size not below the message's length
// makes the message one datagram, however the kernel labelled it.
func TestReadLoopRunShapes(t *testing.T) {
	reader := &scriptedReader{steps: []readStep{
		msg("aaaabbbbc", 4),
		msg("abcd", 4),
		msg("abc", 8),
	}}
	tr := loopTransport(t, func(string, ...any) {})
	ch := make(chan transport.Run, 3)
	tr.wg.Add(1)
	tr.readLoop(reader, ch, netip.AddrPort{})
	for _, want := range []string{"[aaaa bbbb c]", "[abcd]", "[abc]"} {
		r := <-ch
		if got := fmt.Sprintf("%s", datagrams(r)); got != want {
			t.Fatalf("run %q with segment %d cut as %s, want %s", r.Buf, r.Seg, got, want)
		}
		transport.Buffers.Put(r.Buf)
	}
	if snap := tr.MetricsSnapshot(); snap.DatagramsIn != 5 || snap.RecvBatch.Sum != 5 {
		t.Fatalf("DatagramsIn = %d, RecvBatch.Sum = %d, want 5 and 5", snap.DatagramsIn, snap.RecvBatch.Sum)
	}
}

// TestCloseDuringRecvBackoff: Close must not wait out a receive loop's
// error backoff. A reader that always fails drives the loop up its backoff
// ladder (1 ms doubling to 128 ms); Close issued while the loop sits in
// the longest wait must still return promptly.
func TestCloseDuringRecvBackoff(t *testing.T) {
	reader := &scriptedReader{
		loop:  &net.OpError{Op: "read", Net: "udp", Err: syscall.ENOBUFS},
		reads: make(chan struct{}, 16),
	}
	tr := loopTransport(t, func(string, ...any) {})
	tr.wg.Add(1)
	go tr.readLoop(reader, tr.data, netip.AddrPort{})

	// The backoff after the k-th failed read is 2^(k-1) ms, capped at 128:
	// once the 8th read has been taken the loop is in (or about to enter)
	// its 128 ms wait, and the 9th is 128 ms away.
	for k := 0; k < 8; k++ {
		select {
		case <-reader.reads:
		case <-time.After(5 * time.Second):
			t.Fatalf("read loop stalled after %d reads", k)
		}
	}
	time.Sleep(5 * time.Millisecond) // let the loop settle into the wait

	start := time.Now()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= 20*time.Millisecond {
		t.Fatalf("Close took %v with a receive loop in error backoff, want < 20ms", took)
	}
	if got := tr.MetricsSnapshot().RecvTransientErrors; got != 8 {
		t.Fatalf("RecvTransientErrors = %d, want 8", got)
	}
}

// mixedRing builds the partial-failure fixture: sender 1 and receiver 4
// are real loopback transports; peers 2 and 3 are IPv6 destinations that
// the sender's IPv4-bound data socket can never reach, so every send to
// them fails deterministically at the socket layer. Fan-out order is
// sorted by ID, so the bad peers come first — old code aborted there and
// peer 4 (behind the failures) never received anything.
func mixedRing(t *testing.T) (sender, receiver *Transport) {
	t.Helper()
	ports := freePorts(t, 8)
	peers := map[wire.ParticipantID]Peer{
		1: {Host: "127.0.0.1", DataPort: ports[0], TokenPort: ports[1]},
		2: {Host: "::1", DataPort: ports[2], TokenPort: ports[3]},
		3: {Host: "::1", DataPort: ports[4], TokenPort: ports[5]},
		4: {Host: "127.0.0.1", DataPort: ports[6], TokenPort: ports[7]},
	}
	quiet := Config{Logf: func(string, ...any) {}}.Logf
	a, err := New(Config{MyID: 1, Peers: peers, Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{MyID: 4, Peers: peers, Logf: quiet})
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		a.Close()
		d.Close()
	})
	return a, d
}

// TestMulticastFanOutContinuesPastFailure is the regression test for the
// emulated-multicast abort bug: one unreachable peer used to end the
// fan-out loop, partitioning every peer after it in iteration order. The
// fan-out must now complete, aggregate every per-peer failure, and count
// them.
func TestMulticastFanOutContinuesPastFailure(t *testing.T) {
	a, d := mixedRing(t)
	err := a.Multicast([][]byte{[]byte("payload")})
	if err == nil {
		t.Fatal("multicast with unreachable peers reported no error")
	}
	if n := strings.Count(err.Error(), "emulated multicast to"); n != 2 {
		t.Fatalf("aggregated error reports %d peer failures, want 2:\n%v", n, err)
	}
	// The peer behind the failures still got the packet.
	if got := recvWithin(t, d.Data(), 2*time.Second); string(got) != "payload" {
		t.Fatalf("reachable peer received %q", got)
	}
	snap := a.MetricsSnapshot()
	if snap.PeerSendErrors != 2 {
		t.Fatalf("PeerSendErrors = %d, want 2", snap.PeerSendErrors)
	}
	if snap.DatagramsOut != 1 || snap.FanoutSends != 1 {
		t.Fatalf("out=%d fanout=%d, want 1/1 (only the successful send counts)",
			snap.DatagramsOut, snap.FanoutSends)
	}
}

// TestMulticastVectorContinuesPastFailure: a multi-packet vector keeps the
// same partial-failure contract — unencodable/unreachable destinations are
// skipped and reported per peer, the rest of the vector is delivered.
func TestMulticastVectorContinuesPastFailure(t *testing.T) {
	a, d := mixedRing(t)
	err := a.Multicast([][]byte{[]byte("m1"), []byte("m2")})
	if err == nil {
		t.Fatal("multicast vector with unreachable peers reported no error")
	}
	if n := strings.Count(err.Error(), "emulated multicast to"); n != 4 {
		t.Fatalf("aggregated error reports %d peer failures, want 4 (2 pkts x 2 bad peers):\n%v", n, err)
	}
	got := map[string]bool{}
	for _, pkt := range recvDatagrams(t, d.Data(), 2) {
		got[string(pkt)] = true
	}
	if !got["m1"] || !got["m2"] {
		t.Fatalf("reachable peer received %v, want m1 and m2", got)
	}
	snap := a.MetricsSnapshot()
	if snap.PeerSendErrors != 4 {
		t.Fatalf("PeerSendErrors = %d, want 4", snap.PeerSendErrors)
	}
	if snap.DatagramsOut != 2 {
		t.Fatalf("DatagramsOut = %d, want 2", snap.DatagramsOut)
	}
}

// TestListenAddrPolicy pins the bind-address selection rules.
func TestListenAddrPolicy(t *testing.T) {
	cases := []struct {
		host     string
		wildcard bool
		wantIP   string
	}{
		{host: "", wildcard: true},
		{host: "127.0.0.1", wantIP: "127.0.0.1"},
		{host: "::1", wantIP: "::1"},
		{host: "localhost", wildcard: true}, // hostname -> loopback: keep wildcard
	}
	for _, tc := range cases {
		addr, err := listenAddr(tc.host, 7400)
		if err != nil {
			t.Fatalf("listenAddr(%q): %v", tc.host, err)
		}
		if addr.Port != 7400 {
			t.Fatalf("listenAddr(%q) port = %d", tc.host, addr.Port)
		}
		if tc.wildcard {
			if addr.IP != nil && !addr.IP.IsUnspecified() {
				t.Fatalf("listenAddr(%q) = %v, want wildcard", tc.host, addr.IP)
			}
			continue
		}
		if !addr.IP.Equal(net.ParseIP(tc.wantIP)) {
			t.Fatalf("listenAddr(%q) = %v, want %s", tc.host, addr.IP, tc.wantIP)
		}
	}
}

// TestSocketsBindConfiguredHost is the regression test for the wildcard
// bind bug: the listen sockets ignored Peer.Host and bound every
// interface. A concrete configured address must be honored on both the
// token and data sockets.
func TestSocketsBindConfiguredHost(t *testing.T) {
	ports := freePorts(t, 2)
	peers := map[wire.ParticipantID]Peer{
		1: {Host: "127.0.0.1", DataPort: ports[0], TokenPort: ports[1]},
	}
	tr, err := New(Config{MyID: 1, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for name, conn := range map[string]*net.UDPConn{"token": tr.tokenConn, "data": tr.dataConn} {
		ip := conn.LocalAddr().(*net.UDPAddr).IP
		if !ip.Equal(net.IPv4(127, 0, 0, 1)) {
			t.Fatalf("%s socket bound %v, want 127.0.0.1", name, ip)
		}
	}
}

// TestMulticastSingletonRing: with no peers to fan out to, a multicast
// succeeds silently and hands nothing to the network.
func TestMulticastSingletonRing(t *testing.T) {
	ports := freePorts(t, 2)
	peers := map[wire.ParticipantID]Peer{1: {Host: "127.0.0.1", DataPort: ports[0], TokenPort: ports[1]}}
	tr, err := New(Config{MyID: 1, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Multicast([][]byte{[]byte("solo")}); err != nil {
		t.Fatalf("singleton ring multicast: %v", err)
	}
	if snap := tr.MetricsSnapshot(); snap.DatagramsOut != 0 || snap.SendSyscalls != 0 {
		t.Fatalf("singleton ring multicast sent %d datagrams in %d syscalls, want 0/0",
			snap.DatagramsOut, snap.SendSyscalls)
	}
}

// TestCloseRacesConcurrentSends hammers the send paths while Close runs.
// Run under -race (CI does): the invariants are no data race, no send on
// a closed socket panic, and no pooled-buffer corruption — errors from
// the losing senders are expected and ignored.
func TestCloseRacesConcurrentSends(t *testing.T) {
	for round := 0; round < 5; round++ {
		ports := freePorts(t, 4)
		peers := map[wire.ParticipantID]Peer{
			1: {Host: "127.0.0.1", DataPort: ports[0], TokenPort: ports[1]},
			2: {Host: "127.0.0.1", DataPort: ports[2], TokenPort: ports[3]},
		}
		a, err := New(Config{MyID: 1, Peers: peers, Logf: func(string, ...any) {}})
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(3)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 200; i++ {
					_ = a.Multicast([][]byte{[]byte("mc")})
				}
			}()
			go func() {
				defer wg.Done()
				<-start
				burst := [][]byte{[]byte("b1"), []byte("b2"), []byte("b3")}
				for i := 0; i < 100; i++ {
					_ = a.Multicast(burst)
				}
			}()
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 200; i++ {
					_ = a.Unicast(2, []byte("tk"))
				}
			}()
		}
		close(start)
		time.Sleep(time.Duration(round) * 500 * time.Microsecond)
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if err := a.Close(); err != nil {
			t.Fatal("double close errored")
		}
	}
}
