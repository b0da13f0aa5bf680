package client

import (
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"accelring/internal/ipc"
	"accelring/internal/wire"
)

// pipeStub is the daemon end of an in-memory connection: it answers the
// handshake and then runs feed.
func pipeStub(t *testing.T, feed func(far net.Conn)) *Conn {
	t.Helper()
	near, far := net.Pipe()
	go func() {
		defer far.Close()
		if typ, _, err := ipc.ReadFrame(far); err != nil || typ != ipc.CmdConnect {
			return
		}
		welcome := ipc.PutUint64(ipc.PutString(nil, "n@0.0.0.1"), 1)
		if ipc.WriteFrame(far, ipc.EvtWelcome, welcome) != nil {
			return
		}
		feed(far)
	}()
	c, err := New(near, "n")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCloseWithFullEvents: Close on a connection whose consumer stopped
// draining Events must return — the reader parked on the full queue has to
// notice the close — and leave no goroutine behind. The stub keeps feeding
// messages until its connection dies; the test waits for the feed to stall
// (queue full, reader parked on it) and only then closes.
func TestCloseWithFullEvents(t *testing.T) {
	before := runtime.NumGoroutine()
	var fed atomic.Int64
	c := pipeStub(t, func(far net.Conn) {
		msg := msgBody(wire.ServiceAgreed, 0, "a@1", []string{"g"}, []uint64{0}, "payload")
		for i := 0; i < 100000; i++ {
			if ipc.WriteFrame(far, ipc.EvtMessage, msg) != nil {
				return
			}
			fed.Add(1)
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for last := int64(-1); ; {
		if time.Now().After(deadline) {
			t.Fatalf("feed never stalled: %d frames in, %d events queued", fed.Load(), len(c.Events()))
		}
		now := fed.Load()
		if len(c.Events()) == cap(c.Events()) && now == last {
			break
		}
		last = now
		time.Sleep(20 * time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("Close still blocked after 3s with a full Events queue")
	}
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after Close:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRejectedBeforeSending is the client half of the validation table:
// every shape the daemon would drop, or PutString would corrupt, fails at
// the caller with the typed error, and nothing reaches the daemon — the
// first frame the stub sees is the valid multicast sent afterwards.
func TestRejectedBeforeSending(t *testing.T) {
	type got struct {
		typ  byte
		body []byte
	}
	first := make(chan got, 1)
	c := pipeStub(t, func(far net.Conn) {
		typ, body, err := ipc.ReadFrame(far)
		if err == nil {
			first <- got{typ, body}
		}
		io.Copy(io.Discard, far)
	})
	defer c.Close()
	long := strings.Repeat("g", wire.MaxGroupName+1)
	many := make([]string, wire.MaxGroups+1)
	for i := range many {
		many[i] = "g"
	}
	// Fits a frame, but not a ring message once the daemon has put the
	// sender in front of it.
	big := make([]byte, wire.MaxPayload-8)
	cases := []struct {
		name    string
		groups  []string
		payload []byte
		want    error
	}{
		{"empty group name", []string{""}, nil, ipc.ErrBadGroup},
		{"group name too long", []string{"ok", long}, nil, ipc.ErrBadGroup},
		{"group name past the length prefix", []string{strings.Repeat("g", 1<<16+5)}, nil, ipc.ErrBadGroup},
		{"too many groups", many, nil, ipc.ErrGroupCount},
		{"payload the ring would refuse", []string{"g"}, big, ipc.ErrPayloadTooLarge},
	}
	for _, tc := range cases {
		if err := c.Multicast(wire.ServiceAgreed, tc.payload, tc.groups...); !errors.Is(err, tc.want) {
			t.Errorf("Multicast, %s: %v, want %v", tc.name, err, tc.want)
		}
	}
	for _, op := range []func(string) error{c.Join, c.Leave, c.Subscribe, c.Unsubscribe} {
		for _, g := range []string{"", long} {
			if err := op(g); !errors.Is(err, ipc.ErrBadGroup) {
				t.Errorf("interest op on a %d-byte group: %v, want ErrBadGroup", len(g), err)
			}
		}
	}
	if err := c.Multicast(wire.ServiceAgreed, []byte("fine"), "g"); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-first:
		if f.typ != ipc.CmdMulticast || !strings.HasSuffix(string(f.body), "fine") {
			t.Fatalf("first frame at the daemon is (%d, %q): a rejected call sent something", f.typ, f.body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the valid multicast never arrived")
	}
}

// TestMulticastAllocs gates the send path at zero allocations: header and
// body are encoded onto the end of the connection's outbound queue, which
// the writer empties as fast as the socket takes it (TestWriterAllocs gates
// the writer with both of its buffers at a known size).
func TestMulticastAllocs(t *testing.T) {
	f := newFakeDaemon(t)
	ch := f.serveWelcome("n@0.0.0.1", 1)
	c, err := Connect("unix", f.addr, "n")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go io.Copy(io.Discard, recvConn(t, ch))
	for _, size := range []int{64, 1350} {
		payload := make([]byte, size)
		allocs := testing.AllocsPerRun(500, func() {
			if err := c.Multicast(wire.ServiceAgreed, payload, "bench"); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("Multicast of %d B allocates %.1f times, want 0", size, allocs)
		}
	}
}
