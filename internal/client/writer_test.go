package client

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accelring/internal/ipc"
	"accelring/internal/wire"
)

// heldConn is a transport whose Writes the test lets through one at a
// time. While holding is set, every Write first announces its bytes on
// entered and then waits for a verdict on release: nil forwards it to the
// wrapped connection, an error is returned in its place. open lets every
// later Write through. With holding clear (the handshake, the allocation
// gate) a Write is forwarded untouched and only counted.
type heldConn struct {
	net.Conn
	holding atomic.Bool
	entered chan []byte
	release chan error
	opened  sync.Once
	written atomic.Int64
}

func (h *heldConn) open() { h.opened.Do(func() { close(h.release) }) }

func hold(conn net.Conn) *heldConn {
	// 64: more Writes than any test here leaves unobserved, so announcing
	// one never blocks the writer.
	return &heldConn{Conn: conn, entered: make(chan []byte, 64), release: make(chan error)}
}

func (h *heldConn) Write(p []byte) (int, error) {
	if h.holding.Load() {
		h.entered <- append([]byte(nil), p...)
		if err := <-h.release; err != nil {
			return 0, err
		}
	}
	n, err := h.Conn.Write(p)
	h.written.Add(int64(n))
	return n, err
}

// nextWrite returns the bytes of the next Write the writer has entered.
func (h *heldConn) nextWrite(t *testing.T) []byte {
	t.Helper()
	select {
	case p := <-h.entered:
		return p
	case <-time.After(5 * time.Second):
		t.Fatal("the writer entered no Write")
		return nil
	}
}

// heldClient connects an unmanaged client through a heldConn to the fake
// daemon and returns both with the daemon's end of the connection. Writes
// are held from here on; the test ends by letting them go and closing the
// client.
func heldClient(t *testing.T) (*Conn, *heldConn, net.Conn) {
	t.Helper()
	f := newFakeDaemon(t)
	ch := f.serveWelcome("n@0.0.0.1", 1)
	conn, err := net.Dial("unix", f.addr)
	if err != nil {
		t.Fatal(err)
	}
	h := hold(conn)
	c, err := New(h, "n")
	if err != nil {
		t.Fatal(err)
	}
	h.holding.Store(true)
	t.Cleanup(func() {
		h.open()
		c.Close()
	})
	return c, h, recvConn(t, ch)
}

// multicastFrame is the frame Multicast(Agreed, payload, "g") puts on the
// wire.
func multicastFrame(t *testing.T, payload string) []byte {
	t.Helper()
	b, err := ipc.AppendMulticast(nil, "n@0.0.0.1", wire.ServiceAgreed, 0, []string{"g"}, []byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func send(t *testing.T, c *Conn, payload string) {
	t.Helper()
	if err := c.Multicast(wire.ServiceAgreed, []byte(payload), "g"); err != nil {
		t.Fatalf("Multicast %q: %v", payload, err)
	}
}

// queued reports the bytes waiting for the writer.
func queued(c *Conn) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.out)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWriterOneWritePerRun: everything queued while a Write is in flight
// leaves in the next one, in call order — and a lone frame is written at
// once, with nothing behind it to wait for.
func TestWriterOneWritePerRun(t *testing.T) {
	c, h, far := heldClient(t)
	send(t, c, "lone")
	if got := h.nextWrite(t); !bytes.Equal(got, multicastFrame(t, "lone")) {
		t.Fatalf("a lone Multicast was written as %q", got)
	}
	// The Write is held; the hundred behind it are one run.
	var want []byte
	for i := 0; i < 100; i++ {
		p := string(rune('a'+i%26)) + string(rune('0'+i/26))
		send(t, c, p)
		want = append(want, multicastFrame(t, p)...)
	}
	h.release <- nil
	if got := h.nextWrite(t); !bytes.Equal(got, want) {
		t.Fatalf("the run behind a held Write is %d bytes, want the 100 frames in call order (%d bytes)", len(got), len(want))
	}
	h.release <- nil
	// Both Writes reach the daemon, and there is no third.
	all := append(multicastFrame(t, "lone"), want...)
	got := make([]byte, len(all))
	far.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(far, got); err != nil || !bytes.Equal(got, all) {
		t.Fatalf("daemon read %v, bytes equal %v", err, bytes.Equal(got, all))
	}
	if n := len(h.entered); n != 0 || queued(c) != 0 {
		t.Fatalf("%d more Writes entered, %d bytes still queued", n, queued(c))
	}
}

// TestWriterKeepsOrderAcrossFrameKinds: interest ops, multicasts and stats
// requests go through the one queue, so the daemon sees them in call
// order.
func TestWriterKeepsOrderAcrossFrameKinds(t *testing.T) {
	c, h, far := heldClient(t)
	send(t, c, "first") // occupies the writer
	h.nextWrite(t)
	if err := c.Join("g"); err != nil {
		t.Fatal(err)
	}
	send(t, c, "second")
	afterMulticast := queued(c)
	stats := make(chan error, 1)
	go func() {
		_, err := c.Stats()
		stats <- err
	}()
	waitFor(t, "the stats request to be queued", func() bool { return queued(c) > afterMulticast })
	h.open()
	f := &fakeDaemon{t: t}
	f.expect(far, ipc.CmdMulticast)
	if g, _, err := ipc.GetString(f.expect(far, ipc.CmdJoin)); err != nil || g != "g" {
		t.Fatalf("join frame names %q (%v)", g, err)
	}
	if body := f.expect(far, ipc.CmdMulticast); !bytes.HasSuffix(body, []byte("second")) {
		t.Fatalf("multicast after the join carries %q", body)
	}
	f.expect(far, ipc.CmdStats)
	if err := ipc.WriteFrame(far, ipc.EvtStats, []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if err := <-stats; err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if n := len(h.entered); n != 1 {
		t.Fatalf("join, multicast and stats request left in %d Writes, want 1", n)
	}
}

// TestCloseFlushesQueue is the send-and-leave pattern of ringload's
// publishers and the examples: Multicast, then Close at once. Every queued
// frame reaches the daemon, then the goodbye, then end of stream.
func TestCloseFlushesQueue(t *testing.T) {
	c, h, far := heldClient(t)
	const n = 50
	send(t, c, "0")
	h.nextWrite(t)
	for i := 1; i < n; i++ {
		send(t, c, "unflushed")
	}
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	waitFor(t, "Close to mark the connection closed", c.isClosed)
	h.open()
	f := &fakeDaemon{t: t}
	for i := 0; i < n; i++ {
		f.expect(far, ipc.CmdMulticast)
	}
	f.expect(far, ipc.CmdGoodbye)
	if _, _, err := ipc.ReadFrame(far); !errors.Is(err, io.EOF) {
		t.Fatalf("after the goodbye: %v, want EOF", err)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned")
	}
	if err := c.Multicast(wire.ServiceAgreed, nil, "g"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Multicast after Close: %v, want ErrClosed", err)
	}
}

var errInjected = errors.New("injected write failure")

// TestWriteErrorUnmanaged: a failed Write ends an unmanaged connection the
// way a dropped one ends — Events closes — and what was queued behind the
// failed run is dropped, not written.
func TestWriteErrorUnmanaged(t *testing.T) {
	c, h, far := heldClient(t)
	send(t, c, "in the failed run")
	h.nextWrite(t)
	for i := 0; i < 10; i++ {
		send(t, c, "queued behind it")
	}
	h.release <- errInjected
	select {
	case ev, ok := <-c.Events():
		if ok {
			t.Fatalf("event %#v, want Events closed", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Events still open after a failed Write")
	}
	if n := queued(c); n != 0 {
		t.Fatalf("%d bytes still queued for a dead connection", n)
	}
	if err := c.Multicast(wire.ServiceAgreed, nil, "g"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Multicast after the failure: %v, want ErrClosed", err)
	}
	far.SetReadDeadline(time.Now().Add(5 * time.Second))
	if b, err := io.ReadAll(far); err != nil || len(b) != 0 {
		t.Fatalf("daemon received %d bytes (%v), want none", len(b), err)
	}
	if n := len(h.entered); n != 0 {
		t.Fatalf("%d Writes after the failed one", n)
	}
}

// TestWriteErrorManaged: on a managed connection the failed Write is one
// Disconnected carrying the write error; the queue is dropped; and on the
// next attachment the resume handshake and the interest replay precede the
// first frame the application sends.
func TestWriteErrorManaged(t *testing.T) {
	f := newFakeDaemon(t)
	ch := f.serveWelcome("n@0.0.0.1", 42)
	// Dial, with the transport wrapped before the handshake.
	raw, err := net.Dial("unix", f.addr)
	if err != nil {
		t.Fatal(err)
	}
	h := hold(raw)
	c, err := newConn(h, "n")
	if err != nil {
		t.Fatal(err)
	}
	c.network, c.addr, c.managed = "unix", f.addr, true
	c.opts = Options{Reconnect: true, BackoffMin: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond, DialTimeout: 2 * time.Second}
	c.start()
	defer c.Close()
	defer h.open()
	conn1 := recvConn(t, ch)
	if err := c.Join("g"); err != nil {
		t.Fatal(err)
	}
	f.expect(conn1, ipc.CmdJoin)

	h.holding.Store(true)
	send(t, c, "in the failed run")
	h.nextWrite(t)
	for i := 0; i < 10; i++ {
		send(t, c, "dropped")
	}
	h.release <- errInjected
	d, ok := nextEvent(t, c).(Disconnected)
	if !ok || !errors.Is(d.Err, errInjected) {
		t.Fatalf("expected Disconnected with the write error, got %#v", d)
	}
	if n := queued(c); n != 0 {
		t.Fatalf("%d bytes kept for an absent daemon", n)
	}

	conn2 := f.accept()
	f.expect(conn2, ipc.CmdResume)
	resp := ipc.PutUint64(ipc.PutString([]byte{ipc.ResumedFlagResumed}, "n@0.0.0.1"), 42)
	if err := ipc.WriteFrame(conn2, ipc.EvtResumed, resp); err != nil {
		t.Fatal(err)
	}
	if rec, ok := nextEvent(t, c).(Reconnected); !ok || !rec.Resumed {
		t.Fatalf("expected Reconnected{Resumed:true}, got %#v", rec)
	}
	send(t, c, "after")
	f.expect(conn2, ipc.CmdJoin) // the replay comes first
	if body := f.expect(conn2, ipc.CmdMulticast); !bytes.HasSuffix(body, []byte("after")) {
		t.Fatalf("first application frame of the new attachment carries %q: a dropped frame was sent", body)
	}
	// One Disconnected only: the next event is the daemon's next message.
	ipc.WriteFrame(conn2, ipc.EvtMessage, msgBody(wire.ServiceAgreed, 1, "a@1", []string{"g"}, []uint64{1}, "m"))
	wantMsg(t, c, "m")
}

// TestMulticastBlocksOnFullQueue: with sendQueueBytes queued a Multicast
// blocks — it wakes when the writer takes the run, and returns ErrClosed
// when the connection is closed under it.
func TestMulticastBlocksOnFullQueue(t *testing.T) {
	c, h, far := heldClient(t)
	go io.Copy(io.Discard, far)
	big := make([]byte, 32<<10)
	fill := func() {
		t.Helper()
		for queued(c) < sendQueueBytes {
			if err := c.Multicast(wire.ServiceAgreed, big, "g"); err != nil {
				t.Fatal(err)
			}
		}
	}
	blocked := func() chan error {
		done := make(chan error, 1)
		go func() { done <- c.Multicast(wire.ServiceAgreed, big, "g") }()
		select {
		case err := <-done:
			t.Fatalf("Multicast on a full queue returned %v, want it blocked", err)
		case <-time.After(50 * time.Millisecond):
		}
		return done
	}
	send(t, c, "occupies the writer")
	h.nextWrite(t)

	fill()
	done := blocked()
	h.release <- nil // the writer comes back and takes the full queue
	h.nextWrite(t)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Multicast woken by the drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Multicast still blocked after the writer took the run")
	}

	fill()
	done = blocked()
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Multicast blocked across Close: %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Multicast still blocked after Close")
	}
	h.open()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned")
	}
}

// TestWriterAllocs gates the writer at zero allocations per frame in
// steady state: runs alternate between two buffers that have both grown
// to their working size.
func TestWriterAllocs(t *testing.T) {
	c, h, far := heldClient(t)
	go io.Copy(io.Discard, far)
	const perRun = 32
	handshake := h.written.Load()
	payload := make([]byte, 64)
	burst := func(n int) {
		for i := 0; i < n; i++ {
			if err := c.Multicast(wire.ServiceAgreed, payload, "g"); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Grow both buffers past any run the measurement makes: each takes a
	// larger burst while the other is held in a Write.
	burst(1)
	h.nextWrite(t)
	for i := 0; i < 2; i++ {
		burst(4 * perRun)
		h.release <- nil
		h.nextWrite(t)
	}
	h.holding.Store(false)
	h.release <- nil
	frame := int64(len(multicastFrame(t, string(payload))))
	target := handshake + (1+2*4*perRun)*frame
	waitFor(t, "the warm-up runs to be written", func() bool { return h.written.Load() == target })

	allocs := testing.AllocsPerRun(200, func() {
		burst(perRun)
		target += perRun * frame
		for h.written.Load() < target {
			runtime.Gosched()
		}
	})
	if allocs != 0 {
		t.Errorf("%d queued frames and the Writes that carry them allocate %.1f times, want 0", perRun, allocs)
	}
}
