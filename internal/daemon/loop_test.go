package daemon

import (
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"accelring"
	"accelring/internal/client"
	"accelring/internal/faultplan"
	"accelring/internal/ipc"
	"accelring/internal/wire"
)

// pipeListener accepts in-memory net.Pipe connections, on which a write
// blocks until the other end reads it: a client that stops reading holds
// whoever writes to it.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "unix"} }

// dial returns the client end of a new connection the daemon accepts.
func (l *pipeListener) dial(t *testing.T) net.Conn {
	t.Helper()
	near, far := net.Pipe()
	select {
	case l.conns <- far:
	case <-time.After(5 * time.Second):
		t.Fatal("the daemon never accepted the pipe")
	}
	t.Cleanup(func() { near.Close() })
	return near
}

// startPipeDaemon runs one daemon with session resume on a one-member ring,
// serving clients over pipeListener.
func startPipeDaemon(t *testing.T) (*Daemon, *pipeListener) {
	t.Helper()
	node, err := accelring.Start(accelring.Options{
		ID:        1,
		Transport: accelring.NewMemoryNetwork(31).Endpoint(1),
		Members:   []accelring.ParticipantID{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln := newPipeListener()
	d, err := New(Config{Node: node, Listener: ln, ResumeWindow: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, ln
}

// roundTrip multicasts one message from c to a group c belongs to and
// returns how long it took to come back.
func roundTrip(t *testing.T, c *client.Conn, payload string) time.Duration {
	t.Helper()
	start := time.Now()
	if err := c.Multicast(wire.ServiceAgreed, []byte(payload), "g"); err != nil {
		t.Fatal(err)
	}
	wantPayloads(t, c, payload)
	return time.Since(start)
}

// TestResumeReplyDoesNotBlockLoop: the daemon runs on the ring's loop, so
// it must never write a client socket itself. A client resumes its session
// over a connection it never reads; the EvtResumed announcement waits in
// the session's queue, and another client on the same daemon sees its
// deliveries on time. Read later, the announcement is the first frame.
func TestResumeReplyDoesNotBlockLoop(t *testing.T) {
	d, ln := startPipeDaemon(t)
	other, err := client.New(ln.dial(t), "other")
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := other.Join("g"); err != nil {
		t.Fatal(err)
	}
	waitView(t, other, "g", 1)
	baseline := roundTrip(t, other, "before")

	// A session to resume: connect, learn the session ID, drop the
	// connection, and wait until the daemon holds the session detached.
	first := ln.dial(t)
	if err := ipc.WriteFrame(first, ipc.CmdConnect, ipc.PutString(nil, "stuck")); err != nil {
		t.Fatal(err)
	}
	typ, body, err := ipc.ReadFrame(first)
	if err != nil || typ != ipc.EvtWelcome {
		t.Fatalf("welcome: frame %d, %v", typ, err)
	}
	_, rest, _ := ipc.GetString(body)
	id, _, err := ipc.GetUint64(rest)
	if err != nil || id == 0 {
		t.Fatalf("welcome carries session %d, %v", id, err)
	}
	first.Close()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		st, err := other.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Detached == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the dropped session was never held for resume")
		}
	}

	// Resume over a connection that is never read, and give the loop time
	// to apply the handshake before measuring.
	stuck := ln.dial(t)
	bursts := d.Snapshot().Bursts
	resume := ipc.PutUint64(ipc.PutUint64(ipc.PutString(nil, "stuck"), id), 0)
	if err := ipc.WriteFrame(stuck, ipc.CmdResume, resume); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); d.Snapshot().Bursts == bursts; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the resume handshake never reached the loop")
		}
	}
	time.Sleep(50 * time.Millisecond)
	if delay := roundTrip(t, other, "during") - baseline; delay > 100*time.Millisecond {
		t.Fatalf("a resume on an unread connection delayed another client's delivery by %v", delay)
	}

	typ, body, err = ipc.ReadFrame(stuck)
	if err != nil || typ != ipc.EvtResumed || len(body) == 0 || body[0]&ipc.ResumedFlagResumed == 0 {
		t.Fatalf("first frame on the resumed connection: type %d, body %q, %v; want EvtResumed, resumed", typ, body, err)
	}
}

// TestCloseUnderFloodLeavesNoGoroutines: Close on a daemon whose loop has
// client input queued returns, and every goroutine the node, the daemon
// and its sessions started exits — a session reader waiting for room in
// the backlog of a ring that orders nothing (every token is dropped, and
// token loss is a minute away) or blocked handing a burst to a loop that
// has exited gives up, and one waiting on a client that never spoke is
// woken. A Drain and a resume-window expiry that come after Close neither
// block nor panic.
func TestCloseUnderFloodLeavesNoGoroutines(t *testing.T) {
	const window = time.Second
	net0 := accelring.NewMemoryNetwork(37)
	before := runtime.NumGoroutine()
	// The ring's second member, a library node: a unicast to self is never
	// faulted, so a ring of one cannot be stalled.
	members := []accelring.ParticipantID{1, 2}
	var nodes []*accelring.Node
	for _, id := range members {
		node, err := accelring.Start(accelring.Options{
			ID:               id,
			Transport:        net0.Endpoint(id),
			Members:          members,
			TokenLossTimeout: time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	node, peer := nodes[0], nodes[1]
	go func() {
		for range peer.Events() {
		}
	}()
	sock := filepath.Join(t.TempDir(), "ringd.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{Node: node, Listener: ln, ResumeWindow: window})
	if err != nil {
		t.Fatal(err)
	}

	// A connection that never says a word, whose session the loop never
	// hears of, and a session held for resume, whose window ends after
	// Close.
	silent, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	for deadline := time.Now().Add(5 * time.Second); d.Snapshot().Subscribers == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the silent connection was never accepted")
		}
	}
	gone := rawConnect(t, sock, "gone")
	gone.conn.Close()
	goneAt := time.Now()
	net0.ApplyFaults(&faultplan.Plan{Links: []faultplan.LinkFault{{Kinds: faultplan.MaskToken, Loss: 1}}})

	// Flooders: open-loop multicasts until their connection dies.
	var frames []byte
	for i := 0; i < 64; i++ {
		frames, _ = ipc.AppendMulticast(frames, "", wire.ServiceAgreed, 0, []string{"flood"}, make([]byte, 64))
	}
	var flooders sync.WaitGroup
	for i := 0; i < 4; i++ {
		r := rawConnect(t, sock, "flood"+string(rune('a'+i)))
		flooders.Add(1)
		go func() {
			defer flooders.Done()
			for {
				if _, err := r.conn.Write(frames); err != nil {
					return
				}
			}
		}()
	}
	// A reader waits once the flood has filled the node's backlog.
	for deadline := time.Now().Add(10 * time.Second); d.Snapshot().Holds == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the flood never filled the node's backlog (%d frames in)", d.Snapshot().BurstFrames)
		}
	}

	returnsWithin(t, "Close under a flood", 5*time.Second, d.Close)
	peer.Close()
	returnsWithin(t, "Drain after Close", 2*time.Second, func() error { return d.Drain(time.Minute) })
	time.Sleep(time.Until(goneAt.Add(window + 100*time.Millisecond))) // the expiry fires on a stopped daemon
	flooders.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after Close:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// lateListener hands the daemon one connection that never speaks, and
// only once the listener is closed and after has closed: a connection
// accepted while the daemon closes, after its loop has stopped it.
type lateListener struct {
	*pipeListener
	after <-chan struct{}
	near  net.Conn // the client end, never written
}

func (l *lateListener) Accept() (net.Conn, error) {
	<-l.done
	if l.near != nil {
		return nil, net.ErrClosed
	}
	<-l.after
	near, far := net.Pipe()
	l.near = near
	return far, nil
}

// TestCloseReapsSessionAcceptedWhileClosing: Close returns although a
// connection is accepted after the daemon's loop has stopped it and closed
// every subscriber the tier knew: the late session's subscriber is closed
// at once, and its exit closes the connection its reader waits on.
func TestCloseReapsSessionAcceptedWhileClosing(t *testing.T) {
	node, err := accelring.Start(accelring.Options{
		ID:        1,
		Transport: accelring.NewMemoryNetwork(41).Endpoint(1),
		Members:   []accelring.ParticipantID{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln := &lateListener{pipeListener: newPipeListener()}
	d, err := New(Config{Node: node, Listener: ln})
	if err != nil {
		t.Fatal(err)
	}
	ln.after = d.done
	returnsWithin(t, "Close with a connection accepted while it closed", 3*time.Second, d.Close)
	if ln.near == nil {
		t.Fatal("the late connection was never accepted")
	}
	ln.near.Close()
}

// returnsWithin fails the test unless f returns within limit.
func returnsWithin(t *testing.T, what string, limit time.Duration, f func() error) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		f()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(limit):
		t.Fatalf("%s still blocked after %v", what, limit)
	}
}
