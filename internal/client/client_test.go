package client

import (
	"errors"
	"net"
	"path/filepath"
	"testing"
	"time"

	"accelring/internal/ipc"
	"accelring/internal/wire"
)

// msgBody builds an EvtMessage body in the daemon's stamped wire format:
// [service][stamp][sender][count][(group, seq)...][payload].
func msgBody(svc wire.Service, stamp uint64, sender string, groups []string, seqs []uint64, payload string) []byte {
	body := []byte{byte(svc)}
	body = ipc.PutUint64(body, stamp)
	body = ipc.PutString(body, sender)
	body = append(body, byte(len(groups)>>8), byte(len(groups)))
	for i, g := range groups {
		body = ipc.PutString(body, g)
		body = ipc.PutUint64(body, seqs[i])
	}
	return append(body, []byte(payload)...)
}

func TestDecodeMessage(t *testing.T) {
	body := msgBody(wire.ServiceSafe, 7, "alice@0.0.0.1", []string{"g1", "g2"}, []uint64{3, 9}, "payload")
	m, err := decodeMessage(body, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Sender != "alice@0.0.0.1" || m.Service != wire.ServiceSafe || m.Stamp != 7 {
		t.Fatalf("decoded %+v", m)
	}
	if len(m.Groups) != 2 || m.Groups[0] != "g1" || m.Groups[1] != "g2" {
		t.Fatalf("groups %v", m.Groups)
	}
	if len(m.Seqs) != 2 || m.Seqs[0] != 3 || m.Seqs[1] != 9 {
		t.Fatalf("seqs %v", m.Seqs)
	}
	if string(m.Payload) != "payload" {
		t.Fatalf("payload %q", m.Payload)
	}
}

func TestDecodeMessageTruncated(t *testing.T) {
	full := msgBody(wire.ServiceAgreed, 5, "a@1", []string{"g"}, []uint64{1}, "")
	for n := 0; n < len(full); n++ {
		if _, err := decodeMessage(full[:n], nil); err == nil {
			t.Errorf("decodeMessage of %d/%d bytes succeeded", n, len(full))
		}
	}
}

func TestDecodeView(t *testing.T) {
	body := ipc.PutString(nil, "room")
	body = ipc.PutStrings(body, []string{"a@1", "b@2"})
	v, err := decodeView(body)
	if err != nil {
		t.Fatal(err)
	}
	if v.Group != "room" || len(v.Members) != 2 {
		t.Fatalf("decoded %+v", v)
	}
}

func TestDecodeViewTruncated(t *testing.T) {
	if _, err := decodeView([]byte{0}); err == nil {
		t.Fatal("accepted truncated view")
	}
}

func TestConnectValidatesName(t *testing.T) {
	if _, err := Connect("unix", "/nonexistent.sock", ""); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestConnectDialFailure(t *testing.T) {
	if _, err := Connect("unix", "/nonexistent-accelring.sock", "x"); err == nil {
		t.Fatal("dial to nonexistent socket succeeded")
	}
}

func TestMulticastValidation(t *testing.T) {
	c := &Conn{} // not connected; validation happens before any I/O
	if err := c.Multicast(wire.ServiceAgreed, []byte("x")); err == nil {
		t.Fatal("multicast with no groups accepted")
	}
	if err := c.Multicast(wire.Service(99), []byte("x"), "g"); err == nil {
		t.Fatal("invalid service accepted")
	}
}

func TestJitterBounds(t *testing.T) {
	d := 100 * time.Millisecond
	for i := 0; i < 100; i++ {
		j := jitter(d)
		if j < 3*d/4 || j > 5*d/4 {
			t.Fatalf("jitter(%v) = %v out of [3d/4, 5d/4]", d, j)
		}
	}
}

func TestTrackMessageDedupAndGap(t *testing.T) {
	c := &Conn{
		managed:   true,
		groupSeqs: map[string]uint64{},
		joined:    map[string]bool{"g": true},
		subscribed: map[string]bool{},
	}
	deliver := func(stamp, seq uint64) ([]Event, bool) {
		m := Message{Stamp: stamp, Groups: []string{"g"}, Seqs: []uint64{seq}}
		return c.trackMessage(&m)
	}
	if gaps, dup := deliver(1, 1); dup || len(gaps) != 0 {
		t.Fatalf("first message: gaps=%v dup=%v", gaps, dup)
	}
	if _, dup := deliver(1, 1); !dup {
		t.Fatal("replayed stamp not suppressed")
	}
	if gaps, dup := deliver(2, 2); dup || len(gaps) != 0 {
		t.Fatalf("in-order message: gaps=%v dup=%v", gaps, dup)
	}
	gaps, dup := deliver(5, 5)
	if dup {
		t.Fatal("new stamp treated as dup")
	}
	if len(gaps) != 1 {
		t.Fatalf("expected one gap event, got %v", gaps)
	}
	if g := gaps[0].(Gap); g.Group != "g" || g.Missed != 2 {
		t.Fatalf("gap %+v, want group g missed 2", g)
	}
	// An uninteresting group's sequence numbers are not tracked.
	m := Message{Stamp: 6, Groups: []string{"other"}, Seqs: []uint64{50}}
	if gaps, _ := c.trackMessage(&m); len(gaps) != 0 {
		t.Fatalf("untracked group produced gaps %v", gaps)
	}
}

// fakeDaemon accepts IPC connections on a unix socket and lets tests
// script the daemon side of the protocol.
type fakeDaemon struct {
	t     *testing.T
	ln    net.Listener
	addr  string
	conns chan net.Conn
}

func newFakeDaemon(t *testing.T) *fakeDaemon {
	t.Helper()
	addr := filepath.Join(t.TempDir(), "ringd.sock")
	ln, err := net.Listen("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeDaemon{t: t, ln: ln, addr: addr, conns: make(chan net.Conn, 8)}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			f.conns <- c
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return f
}

func (f *fakeDaemon) accept() net.Conn {
	f.t.Helper()
	select {
	case c := <-f.conns:
		return c
	case <-time.After(5 * time.Second):
		f.t.Fatal("no connection arrived")
		return nil
	}
}

func (f *fakeDaemon) expect(conn net.Conn, typ byte) []byte {
	f.t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, body, err := ipc.ReadFrame(conn)
	if err != nil {
		f.t.Fatalf("reading frame (want type %d): %v", typ, err)
	}
	if got != typ {
		f.t.Fatalf("frame type %d, want %d", got, typ)
	}
	return body
}

// serveWelcome answers the next connection's CmdConnect handshake in the
// background (Dial blocks until the welcome arrives, so the test cannot
// serve it inline) and hands the served connection back.
func (f *fakeDaemon) serveWelcome(private string, sid uint64) <-chan net.Conn {
	ch := make(chan net.Conn, 1)
	go func() {
		select {
		case conn := <-f.conns:
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			typ, _, err := ipc.ReadFrame(conn)
			if err != nil || typ != ipc.CmdConnect {
				conn.Close()
				return
			}
			conn.SetReadDeadline(time.Time{})
			body := ipc.PutString(nil, private)
			body = ipc.PutUint64(body, sid)
			if ipc.WriteFrame(conn, ipc.EvtWelcome, body) == nil {
				ch <- conn
			}
		case <-time.After(5 * time.Second):
		}
	}()
	return ch
}

func recvConn(t *testing.T, ch <-chan net.Conn) net.Conn {
	t.Helper()
	select {
	case c := <-ch:
		return c
	case <-time.After(5 * time.Second):
		t.Fatal("fake daemon never served the handshake")
		return nil
	}
}

func nextEvent(t *testing.T, c *Conn) Event {
	t.Helper()
	select {
	case ev, ok := <-c.Events():
		if !ok {
			t.Fatal("events channel closed")
		}
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("no event arrived")
		return nil
	}
}

func TestHandshakeParsesSessionID(t *testing.T) {
	f := newFakeDaemon(t)
	ch := f.serveWelcome("n@0.0.0.1", 42)
	c, err := Connect("unix", f.addr, "n")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	recvConn(t, ch)
	if c.PrivateName() != "n@0.0.0.1" {
		t.Fatalf("private name %q", c.PrivateName())
	}
	if c.SessionID() != 42 {
		t.Fatalf("session ID %d, want 42", c.SessionID())
	}
}

func TestCloseIdempotentAndGoodbye(t *testing.T) {
	f := newFakeDaemon(t)
	ch := f.serveWelcome("n@0.0.0.1", 1)
	c, err := Connect("unix", f.addr, "n")
	if err != nil {
		t.Fatal(err)
	}
	conn := recvConn(t, ch)
	if err := c.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	f.expect(conn, ipc.CmdGoodbye)
	if err := c.Join("g"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Join after close: %v, want ErrClosed", err)
	}
	if err := c.Multicast(wire.ServiceAgreed, nil, "g"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Multicast after close: %v, want ErrClosed", err)
	}
	if _, err := c.Stats(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Stats after close: %v, want ErrClosed", err)
	}
}

func TestConnectWaitRetriesInitialDial(t *testing.T) {
	dir := t.TempDir()
	addr := filepath.Join(dir, "late.sock")
	// Bring the socket up only after the client has started dialing.
	go func() {
		time.Sleep(150 * time.Millisecond)
		ln, err := net.Listen("unix", addr)
		if err != nil {
			return
		}
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		_, _, _ = ipc.ReadFrame(conn) // CmdConnect
		body := ipc.PutString(nil, "n@0.0.0.1")
		body = ipc.PutUint64(body, 1)
		ipc.WriteFrame(conn, ipc.EvtWelcome, body)
	}()
	c, err := Dial("unix", addr, "n", Options{
		ConnectWait: 5 * time.Second,
		BackoffMin:  20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("dial with ConnectWait failed: %v", err)
	}
	c.Close()

	// Without ConnectWait the same situation fails immediately.
	if _, err := Dial("unix", filepath.Join(dir, "never.sock"), "n", Options{}); err == nil {
		t.Fatal("dial to absent socket without ConnectWait succeeded")
	}
}

// TestManagedResume drives a full outage: the fake daemon drops the
// connection mid-stream, honors the resume handshake, and replays from
// the client's stamp. The client must dedup the replayed frame and emit
// Disconnected/Reconnected{Resumed:true} with no Gap.
func TestManagedResume(t *testing.T) {
	f := newFakeDaemon(t)
	ch := f.serveWelcome("n@0.0.0.1", 42)
	c, err := dialManaged(t, f)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn1 := recvConn(t, ch)
	if err := c.Join("g"); err != nil {
		t.Fatal(err)
	}
	f.expect(conn1, ipc.CmdJoin)

	// Two messages, then the daemon drops the connection.
	ipc.WriteFrame(conn1, ipc.EvtMessage, msgBody(wire.ServiceAgreed, 1, "a@1", []string{"g"}, []uint64{1}, "m1"))
	ipc.WriteFrame(conn1, ipc.EvtMessage, msgBody(wire.ServiceAgreed, 2, "a@1", []string{"g"}, []uint64{2}, "m2"))
	wantMsg(t, c, "m1")
	wantMsg(t, c, "m2")
	conn1.Close()

	if _, ok := nextEvent(t, c).(Disconnected); !ok {
		t.Fatal("expected Disconnected")
	}

	// Serve the resume: expect CmdResume with session 42, stamp 2.
	conn2 := f.accept()
	body := f.expect(conn2, ipc.CmdResume)
	name, rest, err := ipc.GetString(body)
	if err != nil || name != "n" {
		t.Fatalf("resume name %q err %v", name, err)
	}
	sid, rest, _ := ipc.GetUint64(rest)
	stamp, rest, _ := ipc.GetUint64(rest)
	if sid != 42 || stamp != 2 {
		t.Fatalf("resume sid=%d stamp=%d, want 42/2", sid, stamp)
	}
	if len(rest) < 2 || int(rest[0])<<8|int(rest[1]) != 1 {
		t.Fatalf("resume cursor count bytes %v, want one group", rest)
	}
	resp := []byte{ipc.ResumedFlagResumed}
	resp = ipc.PutString(resp, "n@0.0.0.1")
	resp = ipc.PutUint64(resp, 42)
	ipc.WriteFrame(conn2, ipc.EvtResumed, resp)
	// The client reconciles interest on every reconnect; drain the join.
	f.expect(conn2, ipc.CmdJoin)

	rec, ok := nextEvent(t, c).(Reconnected)
	if !ok || !rec.Resumed {
		t.Fatalf("expected Reconnected{Resumed:true}, got %#v", rec)
	}
	// Daemon replays from its queue tail: stamp 2 again (dup), then 3.
	ipc.WriteFrame(conn2, ipc.EvtMessage, msgBody(wire.ServiceAgreed, 2, "a@1", []string{"g"}, []uint64{2}, "m2"))
	ipc.WriteFrame(conn2, ipc.EvtMessage, msgBody(wire.ServiceAgreed, 3, "a@1", []string{"g"}, []uint64{3}, "m3"))
	wantMsg(t, c, "m3") // m2 deduped
	if got := c.Reconnects(); got != 1 {
		t.Fatalf("Reconnects() = %d, want 1", got)
	}
	if got := c.Resumes(); got != 1 {
		t.Fatalf("Resumes() = %d, want 1", got)
	}
}

// TestManagedFreshFallback: the daemon cannot resume (EvtResumed without
// the resumed flag) — the client must reset cursors, replay its joins,
// and report the break as a Gap.
func TestManagedFreshFallback(t *testing.T) {
	f := newFakeDaemon(t)
	ch := f.serveWelcome("n@0.0.0.1", 42)
	c, err := dialManaged(t, f)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn1 := recvConn(t, ch)
	if err := c.Join("g"); err != nil {
		t.Fatal(err)
	}
	f.expect(conn1, ipc.CmdJoin)
	ipc.WriteFrame(conn1, ipc.EvtMessage, msgBody(wire.ServiceAgreed, 9, "a@1", []string{"g"}, []uint64{5}, "m"))
	wantMsg(t, c, "m")
	conn1.Close()
	if _, ok := nextEvent(t, c).(Disconnected); !ok {
		t.Fatal("expected Disconnected")
	}

	conn2 := f.accept()
	f.expect(conn2, ipc.CmdResume)
	resp := []byte{0} // not resumed: fresh session
	resp = ipc.PutString(resp, "n@0.0.0.2")
	resp = ipc.PutUint64(resp, 77)
	ipc.WriteFrame(conn2, ipc.EvtResumed, resp)
	f.expect(conn2, ipc.CmdJoin) // interest replayed into the fresh session

	rec, ok := nextEvent(t, c).(Reconnected)
	if !ok || rec.Resumed {
		t.Fatalf("expected Reconnected{Resumed:false}, got %#v", rec)
	}
	gap, ok := nextEvent(t, c).(Gap)
	if !ok || gap.Group != "" {
		t.Fatalf("expected session-loss Gap, got %#v", gap)
	}
	if c.SessionID() != 77 || c.PrivateName() != "n@0.0.0.2" {
		t.Fatalf("fresh identity not adopted: sid=%d private=%q", c.SessionID(), c.PrivateName())
	}
	// Cursors reset: a low stamp must not be treated as a duplicate.
	ipc.WriteFrame(conn2, ipc.EvtMessage, msgBody(wire.ServiceAgreed, 1, "a@1", []string{"g"}, []uint64{1}, "fresh"))
	wantMsg(t, c, "fresh")
}

// TestManagedResumeGapFlag: daemon resumes but admits loss — the client
// surfaces it as a Gap event.
func TestManagedResumeGapFlag(t *testing.T) {
	f := newFakeDaemon(t)
	ch := f.serveWelcome("n@0.0.0.1", 42)
	c, err := dialManaged(t, f)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn1 := recvConn(t, ch)
	conn1.Close()
	if _, ok := nextEvent(t, c).(Disconnected); !ok {
		t.Fatal("expected Disconnected")
	}
	conn2 := f.accept()
	f.expect(conn2, ipc.CmdResume)
	resp := []byte{ipc.ResumedFlagResumed | ipc.ResumedFlagGap}
	resp = ipc.PutString(resp, "n@0.0.0.1")
	resp = ipc.PutUint64(resp, 42)
	ipc.WriteFrame(conn2, ipc.EvtResumed, resp)
	if rec, ok := nextEvent(t, c).(Reconnected); !ok || !rec.Resumed {
		t.Fatalf("expected Reconnected{Resumed:true}, got %#v", rec)
	}
	if gap, ok := nextEvent(t, c).(Gap); !ok || gap.Group != "" || gap.Missed != 0 {
		t.Fatalf("expected unknown-size Gap, got %#v", gap)
	}
}

// TestOpsWhileReconnecting: interest ops succeed (recorded for replay),
// transport ops fail with ErrReconnecting.
func TestOpsWhileReconnecting(t *testing.T) {
	f := newFakeDaemon(t)
	ch := f.serveWelcome("n@0.0.0.1", 42)
	c, err := dialManaged(t, f)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn1 := recvConn(t, ch)
	conn1.Close()
	if _, ok := nextEvent(t, c).(Disconnected); !ok {
		t.Fatal("expected Disconnected")
	}
	// No daemon is accepting resumes yet (the accept loop holds conns in a
	// channel; the handshake stalls), so the client is between attempts at
	// some point. Poll until the transport observably drops.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := c.Multicast(wire.ServiceAgreed, []byte("x"), "g")
		if errors.Is(err, ErrReconnecting) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("Multicast never returned ErrReconnecting (last: %v)", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := c.Join("g2"); err != nil {
		t.Fatalf("Join while reconnecting: %v", err)
	}
	if err := c.Leave("g2"); err != nil {
		t.Fatalf("Leave while reconnecting: %v", err)
	}
	if err := c.Subscribe("s"); err != nil {
		t.Fatalf("Subscribe while reconnecting: %v", err)
	}
}

// TestMaxAttemptsGivesUp: a managed connection with a bounded retry
// budget eventually closes its Events channel.
func TestMaxAttemptsGivesUp(t *testing.T) {
	f := newFakeDaemon(t)
	ch := f.serveWelcome("n@0.0.0.1", 42)
	c, err := Dial("unix", f.addr, "n", Options{
		Reconnect:   true,
		BackoffMin:  5 * time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
		MaxAttempts: 3,
		DialTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn1 := recvConn(t, ch)
	// Kill the daemon entirely: no more accepts.
	f.ln.Close()
	conn1.Close()
	if _, ok := nextEvent(t, c).(Disconnected); !ok {
		t.Fatal("expected Disconnected")
	}
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-c.Events():
			if !ok {
				if err := c.Join("g"); !errors.Is(err, ErrClosed) {
					t.Fatalf("Join after give-up: %v, want ErrClosed", err)
				}
				return
			}
		case <-deadline:
			t.Fatal("events channel never closed after MaxAttempts")
		}
	}
}

func dialManaged(t *testing.T, f *fakeDaemon) (*Conn, error) {
	t.Helper()
	return Dial("unix", f.addr, "n", Options{
		Reconnect:   true,
		BackoffMin:  5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		DialTimeout: 2 * time.Second,
	})
}

func wantMsg(t *testing.T, c *Conn, payload string) {
	t.Helper()
	for {
		ev := nextEvent(t, c)
		switch m := ev.(type) {
		case Message:
			if string(m.Payload) != payload {
				t.Fatalf("message %q, want %q", m.Payload, payload)
			}
			return
		case View:
			// membership noise; skip
		default:
			t.Fatalf("unexpected event %#v while waiting for message %q", ev, payload)
		}
	}
}
