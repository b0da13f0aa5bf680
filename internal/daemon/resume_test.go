package daemon

import (
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"accelring"
	"accelring/internal/client"
	"accelring/internal/fanout"
	"accelring/internal/ipc"
	"accelring/internal/wire"
)

// startDaemonsResume is the cluster fixture with session resume enabled:
// disconnected clients are held for window, with histDepth frames of
// already-written history for replay.
func startDaemonsResume(t *testing.T, n int, window time.Duration, fcfg fanout.Config) *cluster {
	t.Helper()
	net0 := accelring.NewMemoryNetwork(17)
	dir := t.TempDir()
	members := make([]accelring.ParticipantID, 0, n)
	for i := 1; i <= n; i++ {
		members = append(members, accelring.ParticipantID(i))
	}
	c := &cluster{t: t}
	for _, id := range members {
		node, err := accelring.Start(accelring.Options{
			ID:               id,
			Transport:        net0.Endpoint(id),
			Members:          members,
			TokenLossTimeout: 300 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
		sock := filepath.Join(dir, fmt.Sprintf("ringd-%d.sock", id))
		ln, err := net.Listen("unix", sock)
		if err != nil {
			t.Fatalf("listen %s: %v", sock, err)
		}
		d, err := New(Config{Node: node, Listener: ln, Fanout: fcfg, ResumeWindow: window})
		if err != nil {
			t.Fatalf("daemon %d: %v", id, err)
		}
		c.daemons = append(c.daemons, d)
		c.socks = append(c.socks, sock)
	}
	t.Cleanup(func() {
		for _, d := range c.daemons {
			d.Close()
		}
	})
	return c
}

// cutProxy forwards a Unix socket to a daemon socket and can sever every
// forwarded connection on demand, simulating a transport drop without
// touching the daemon — the client then redials through the proxy.
type cutProxy struct {
	t      *testing.T
	addr   string
	ln     net.Listener
	mu     sync.Mutex
	wires  []net.Conn
	paused bool
}

func newCutProxy(t *testing.T, target string) *cutProxy {
	t.Helper()
	addr := filepath.Join(t.TempDir(), "proxy.sock")
	ln, err := net.Listen("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	p := &cutProxy{t: t, addr: addr, ln: ln}
	go func() {
		for {
			up, err := ln.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			paused := p.paused
			p.mu.Unlock()
			if paused {
				up.Close()
				continue
			}
			down, err := net.Dial("unix", target)
			if err != nil {
				up.Close()
				continue
			}
			p.mu.Lock()
			p.wires = append(p.wires, up, down)
			p.mu.Unlock()
			go func() { io.Copy(down, up); down.Close() }()
			go func() { io.Copy(up, down); up.Close() }()
		}
	}()
	t.Cleanup(func() { ln.Close(); p.cut() })
	return p
}

// cut severs every live forwarded connection.
func (p *cutProxy) cut() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.wires {
		c.Close()
	}
	p.wires = nil
}

// pause makes new connections fail until resume is called, holding the
// client in its backoff loop.
func (p *cutProxy) pause(v bool) {
	p.mu.Lock()
	p.paused = v
	p.mu.Unlock()
}

func dialResumable(t *testing.T, addr, name string) *client.Conn {
	t.Helper()
	c, err := client.Dial("unix", addr, name, client.Options{
		Reconnect:  true,
		BackoffMin: 10 * time.Millisecond,
		BackoffMax: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// wantPayloads asserts the client's next messages carry exactly these
// payloads in order (views and other events are skipped).
func wantPayloads(t *testing.T, c *client.Conn, want ...string) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for _, w := range want {
		for {
			var ev client.Event
			var ok bool
			select {
			case ev, ok = <-c.Events():
				if !ok {
					t.Fatalf("events closed waiting for %q", w)
				}
			case <-deadline:
				t.Fatalf("timed out waiting for %q", w)
			}
			m, isMsg := ev.(client.Message)
			if !isMsg {
				continue
			}
			if string(m.Payload) != w {
				t.Fatalf("got payload %q, want %q", m.Payload, w)
			}
			break
		}
	}
}

// TestResumeBodyIsNameSessionStamp: a CmdResume body is exactly the
// name, the session ID and the stamp. That body is answered (here with a
// fresh session, the ID being unknown); a body with anything after the
// stamp, or one cut short, gets the connection closed.
func TestResumeBodyIsNameSessionStamp(t *testing.T) {
	exact := ipc.PutUint64(ipc.PutUint64(ipc.PutString(nil, "r"), 12345), 7)
	for _, tc := range []struct {
		name     string
		body     []byte
		answered bool
	}{
		{"name, session and stamp", exact, true},
		{"trailing bytes", append(append([]byte(nil), exact...), 0, 0), false},
		{"stamp cut short", exact[:len(exact)-1], false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := startDaemonsResume(t, 1, 5*time.Second, fanout.Config{})
			conn, err := net.Dial("unix", cl.socks[0])
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := ipc.WriteFrame(conn, ipc.CmdResume, tc.body); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			typ, _, err := ipc.ReadFrame(conn)
			switch {
			case tc.answered && (err != nil || typ != ipc.EvtResumed):
				t.Fatalf("resume not answered: frame %d, %v", typ, err)
			case !tc.answered && (err == nil || isTimeout(err)):
				t.Fatalf("session still open after a bad resume body (frame %d, %v)", typ, err)
			}
		})
	}
}

// TestDaemonResumeMidBurst is the live end-to-end resume path: a client
// loses its transport mid-stream, messages keep flowing while it is away
// (accumulating in its detached delivery queue), and on reconnect the
// daemon resumes the session and replays exactly the suffix after the
// client's acknowledged stamp — no gaps, no duplicates, no re-join.
func TestDaemonResumeMidBurst(t *testing.T) {
	cl := startDaemonsResume(t, 1, 5*time.Second, fanout.Config{HistoryDepth: 64})
	proxy := newCutProxy(t, cl.socks[0])

	sub := dialResumable(t, proxy.addr, "sub")
	if err := sub.Join("g"); err != nil {
		t.Fatal(err)
	}
	waitView(t, sub, "g", 1)

	pub := cl.connect(0, "pub")
	send := func(from, to int) {
		for i := from; i <= to; i++ {
			if err := pub.Multicast(wire.ServiceAgreed, []byte(fmt.Sprintf("m%d", i)), "g"); err != nil {
				t.Fatalf("multicast m%d: %v", i, err)
			}
		}
	}
	send(1, 3)
	wantPayloads(t, sub, "m1", "m2", "m3")

	// Sever the client; hold it off while messages accumulate in the
	// detached session's queue.
	proxy.pause(true)
	proxy.cut()
	ev := <-sub.Events()
	if _, ok := ev.(client.Disconnected); !ok {
		t.Fatalf("expected Disconnected, got %#v", ev)
	}
	send(4, 7)
	// Give the daemon time to route the burst into the detached queue.
	time.Sleep(300 * time.Millisecond)
	proxy.pause(false)

	// The resumed stream is exactly the suffix.
	deadline := time.After(10 * time.Second)
	var rec client.Reconnected
	for {
		var ok bool
		select {
		case ev, okc := <-sub.Events():
			if !okc {
				t.Fatal("events closed waiting for Reconnected")
			}
			rec, ok = ev.(client.Reconnected)
		case <-deadline:
			t.Fatal("never reconnected")
		}
		if ok {
			break
		}
	}
	if !rec.Resumed {
		t.Fatalf("session not resumed: %+v", rec)
	}
	wantPayloads(t, sub, "m4", "m5", "m6", "m7")

	// The stream continues live, and the daemon counted the resume.
	send(8, 8)
	wantPayloads(t, sub, "m8")
	snap, err := pub.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Fanout.Resumes != 1 || snap.Fanout.ResumeGaps != 0 {
		t.Fatalf("daemon stats resumes=%d gaps=%d, want 1/0", snap.Fanout.Resumes, snap.Fanout.ResumeGaps)
	}
	if got := sub.Resumes(); got != 1 {
		t.Fatalf("client resumes=%d, want 1", got)
	}
}

// TestDaemonResumeExpired: past the resume window the daemon drops the
// detached session; the reconnecting client gets a fresh session and must
// report the continuity break as a Gap.
func TestDaemonResumeExpired(t *testing.T) {
	cl := startDaemonsResume(t, 1, 100*time.Millisecond, fanout.Config{HistoryDepth: 16})
	proxy := newCutProxy(t, cl.socks[0])

	sub := dialResumable(t, proxy.addr, "sub")
	if err := sub.Join("g"); err != nil {
		t.Fatal(err)
	}
	waitView(t, sub, "g", 1)

	proxy.pause(true)
	proxy.cut()
	if ev := <-sub.Events(); ev == nil {
		t.Fatal("no disconnect event")
	}
	time.Sleep(400 * time.Millisecond) // well past the window
	proxy.pause(false)

	deadline := time.After(10 * time.Second)
	var sawFresh, sawGap bool
	for !(sawFresh && sawGap) {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				t.Fatal("events closed")
			}
			switch e := ev.(type) {
			case client.Reconnected:
				if e.Resumed {
					t.Fatal("expired session was resumed")
				}
				sawFresh = true
			case client.Gap:
				sawGap = true
			}
		case <-deadline:
			t.Fatalf("fresh=%v gap=%v after expiry", sawFresh, sawGap)
		}
	}
	// The fresh session replayed the join: the client is a member again.
	waitView(t, sub, "g", 1)
	pub := cl.connect(0, "pub")
	if err := pub.Multicast(wire.ServiceAgreed, []byte("alive"), "g"); err != nil {
		t.Fatal(err)
	}
	wantPayloads(t, sub, "alive")
	snap, err := pub.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Fanout.ResumeExpired == 0 {
		t.Fatal("daemon never counted the expired session")
	}
}

// TestDaemonShedWhileDetachedReportsGap: a detached session under the
// shed policy overflows its queue while away; the resume must succeed but
// admit the loss, and the client must surface a typed Gap.
func TestDaemonShedWhileDetachedReportsGap(t *testing.T) {
	cl := startDaemonsResume(t, 1, 5*time.Second,
		fanout.Config{Policy: fanout.PolicyShed, QueueDepth: 8, HistoryDepth: 8})
	proxy := newCutProxy(t, cl.socks[0])

	sub := dialResumable(t, proxy.addr, "sub")
	if err := sub.Join("g"); err != nil {
		t.Fatal(err)
	}
	waitView(t, sub, "g", 1)

	proxy.pause(true)
	proxy.cut()
	<-sub.Events() // Disconnected

	pub := cl.connect(0, "pub")
	for i := 0; i < 64; i++ { // far past QueueDepth 8: most are shed
		if err := pub.Multicast(wire.ServiceAgreed, []byte(fmt.Sprintf("m%d", i)), "g"); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(300 * time.Millisecond)
	proxy.pause(false)

	deadline := time.After(10 * time.Second)
	var resumed, gap bool
	for !(resumed && gap) {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				t.Fatal("events closed")
			}
			switch e := ev.(type) {
			case client.Reconnected:
				if !e.Resumed {
					t.Fatal("resume failed outright; want resumed-with-gap")
				}
				resumed = true
			case client.Gap:
				gap = true
			}
		case <-deadline:
			t.Fatalf("resumed=%v gap=%v", resumed, gap)
		}
	}
	snap, err := pub.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Fanout.ResumeGaps == 0 {
		t.Fatal("daemon never counted the resume gap")
	}
}

// TestDrainDeliversQueuedMessages: a draining daemon must announce the
// drain and flush every queued delivery before closing.
func TestDrainDeliversQueuedMessages(t *testing.T) {
	cl := startDaemons(t, 1)
	sub := cl.connect(0, "sub")
	if err := sub.Join("g"); err != nil {
		t.Fatal(err)
	}
	waitView(t, sub, "g", 1)
	pub := cl.connect(0, "pub")
	if err := pub.Join("g"); err != nil {
		t.Fatal(err)
	}
	waitView(t, pub, "g", 2)

	const n = 200
	for i := 0; i < n; i++ {
		if err := pub.Multicast(wire.ServiceAgreed, []byte(fmt.Sprintf("m%d", i)), "g"); err != nil {
			t.Fatal(err)
		}
	}
	// The publisher's own echo of the last message proves the daemon routed
	// the full burst into the delivery queues.
	count := 0
	deadline := time.After(10 * time.Second)
	for count < n {
		select {
		case ev, ok := <-pub.Events():
			if !ok {
				t.Fatal("publisher events closed early")
			}
			if _, isMsg := ev.(client.Message); isMsg {
				count++
			}
		case <-deadline:
			t.Fatalf("publisher saw %d/%d", count, n)
		}
	}

	d := cl.daemons[0]
	if err := d.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The subscriber must have received the drain announcement and every
	// queued message before its connection closed.
	got, sawDrain := 0, false
	for ev := range sub.Events() {
		switch ev.(type) {
		case client.Message:
			got++
		case client.Draining:
			sawDrain = true
		}
	}
	if got != n {
		t.Fatalf("subscriber got %d/%d messages across the drain", got, n)
	}
	if !sawDrain {
		t.Fatal("subscriber never saw the drain announcement")
	}
	if !d.draining.Load() {
		t.Fatal("draining flag not set")
	}
}
