package daemon

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"accelring/internal/fanout"
	"accelring/internal/ipc"
	"accelring/internal/wire"
)

// scriptedConn hands out its chunks one Read at a time — each chunk is
// what one socket wake-up finds — then EOF.
type scriptedConn struct{ chunks [][]byte }

func (c *scriptedConn) Read(p []byte) (int, error) {
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

// TestBurstIsWhatOneWakeUpFinds: k frames that arrive in one write reach
// the loop as one burst; k and a half arrive as k now and one later;
// no frame is ever torn.
func TestBurstIsWhatOneWakeUpFinds(t *testing.T) {
	const k = 5
	var stream []byte
	var ends []int
	for i := 0; i <= k; i++ {
		stream, _ = ipc.AppendFrame(stream, ipc.CmdSubscribe, ipc.PutString(nil, strings.Repeat("g", i+1)))
		ends = append(ends, len(stream))
	}
	torn := ends[k-1] + (ends[k]-ends[k-1])/2
	check := func(b *burst, first, count int) {
		t.Helper()
		if len(b.frames) != count {
			t.Fatalf("burst of %d frames, want %d", len(b.frames), count)
		}
		start := 0
		for i, f := range b.frames {
			group, rest, err := ipc.GetString(b.slab[start:f.end])
			if err != nil || len(rest) != 0 || f.typ != ipc.CmdSubscribe || group != strings.Repeat("g", first+i+1) {
				t.Fatalf("frame %d of the burst is torn: (%d, %q, %v)", i, f.typ, b.slab[start:f.end], err)
			}
			start = f.end
		}
	}
	t.Run("one write, one burst", func(t *testing.T) {
		rd := ipc.NewReader(&scriptedConn{chunks: [][]byte{append([]byte(nil), stream[:ends[k-1]]...)}})
		var b burst
		if err := b.fill(rd); err != nil {
			t.Fatal(err)
		}
		check(&b, 0, k)
		if err := b.fill(rd); err != io.EOF || len(b.frames) != 0 {
			t.Fatalf("after the stream: %d frames, %v", len(b.frames), err)
		}
	})
	t.Run("k and a half", func(t *testing.T) {
		rd := ipc.NewReader(&scriptedConn{chunks: [][]byte{
			append([]byte(nil), stream[:torn]...), append([]byte(nil), stream[torn:]...)}})
		var b burst
		if err := b.fill(rd); err != nil {
			t.Fatal(err)
		}
		check(&b, 0, k)
		if err := b.fill(rd); err != nil {
			t.Fatal(err)
		}
		check(&b, k, 1)
	})
	t.Run("good frames in front of a bad one are handed over", func(t *testing.T) {
		bad := append(append([]byte(nil), stream[:ends[1]]...), 0, 0, 0, 0)
		rd := ipc.NewReader(&scriptedConn{chunks: [][]byte{bad}})
		var b burst
		if err := b.fill(rd); err != ipc.ErrFrameTooLarge {
			t.Fatalf("fill: %v, want ErrFrameTooLarge", err)
		}
		check(&b, 0, 2)
	})
}

// TestBurstCountersOverSocket: the same through a real daemon — k frames
// in one write to the Unix socket move Bursts by one and BurstFrames by k.
func TestBurstCountersOverSocket(t *testing.T) {
	const k = 8
	c := startDaemons(t, 1)
	r := rawConnect(t, c.socks[0], "raw")
	observer := c.connect(0, "obs")
	waitSubscriptions(t, observer, r.private, 0)
	before := c.daemons[0].Snapshot()
	var run []byte
	for i := 0; i < k; i++ {
		run, _ = ipc.AppendFrame(run, ipc.CmdSubscribe, ipc.PutString(nil, strings.Repeat("s", i+1)))
	}
	if _, err := r.conn.Write(run); err != nil {
		t.Fatal(err)
	}
	waitSubscriptions(t, observer, r.private, k)
	after := c.daemons[0].Snapshot()
	// The observer's own stats polls are bursts of one frame each.
	frames, bursts := after.BurstFrames-before.BurstFrames, after.Bursts-before.Bursts
	if frames-bursts != k-1 {
		t.Fatalf("%d frames in %d bursts: the %d frames of one write did not arrive as one burst", frames, bursts, k)
	}
}

// TestSendAndLeave is the publisher that multicasts and closes at once
// (ringload's, the examples'): Multicast only queues, so it is Close that
// must get the queue to the daemon, and the daemon must order every frame
// it read ahead of the goodbye. A member on another daemon receives all of
// them, in call order.
func TestSendAndLeave(t *testing.T) {
	const n = 2000
	c := startDaemons(t, 2)
	member := c.connect(0, "member")
	if err := member.Join("topic"); err != nil {
		t.Fatal(err)
	}
	waitView(t, member, "topic", 1)
	pub := c.connect(1, "pub")
	for i := 0; i < n; i++ {
		if err := pub.Multicast(wire.ServiceAgreed, []byte(fmt.Sprint(i)), "topic"); err != nil {
			t.Fatal(err)
		}
	}
	pub.Close()
	for i, m := range collectMessages(t, member, n) {
		if string(m.Payload) != fmt.Sprint(i) {
			t.Fatalf("message %d carries %q", i, m.Payload)
		}
	}
}

// TestMalformedMulticastClosesSession is the daemon half of the validation
// table: each shape a well-behaved client refuses to send gets the session
// closed, as for every other malformed frame, and orders nothing.
func TestMalformedMulticastClosesSession(t *testing.T) {
	long := strings.Repeat("g", wire.MaxGroupName+1)
	many := make([]string, wire.MaxGroups+1)
	for i := range many {
		many[i] = "g"
	}
	body := func(groups []string, payload int) []byte {
		b := ipc.PutStrings([]byte{byte(wire.ServiceAgreed), 0}, groups)
		return append(b, make([]byte, payload)...)
	}
	cases := []struct {
		name string
		body []byte
	}{
		{"empty group name", body([]string{"g", ""}, 4)},
		{"group name too long", body([]string{long}, 4)},
		{"no groups", body(nil, 4)},
		{"too many groups", body(many, 4)},
		{"payload the ring would refuse", body([]string{"g"}, wire.MaxPayload-8)},
		{"group list runs past the body", []byte{byte(wire.ServiceAgreed), 0, 0, 2, 0, 1, 'g'}},
		{"invalid service", append([]byte{0xFF, 0}, ipc.PutStrings(nil, []string{"g"})...)},
		{"truncated", []byte{byte(wire.ServiceAgreed)}},
	}
	c := startDaemons(t, 1)
	member := c.connect(0, "member")
	if err := member.Join("g"); err != nil {
		t.Fatal(err)
	}
	waitView(t, member, "g", 1)
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rawConnect(t, c.socks[0], fmt.Sprintf("raw%d", i))
			if err := ipc.WriteFrame(r.conn, ipc.CmdMulticast, tc.body); err != nil {
				t.Fatal(err)
			}
			r.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, _, err := ipc.ReadFrame(r.conn); err == nil || isTimeout(err) {
				t.Fatalf("session still open after a malformed multicast (%v)", err)
			}
		})
	}
	// Nothing above was ordered: the first message the member sees is this.
	if err := member.Multicast(wire.ServiceAgreed, []byte("valid"), "g"); err != nil {
		t.Fatal(err)
	}
	if got := collectMessages(t, member, 1)[0]; string(got.Payload) != "valid" {
		t.Fatalf("a malformed multicast was ordered: member saw %q first", got.Payload)
	}
}

func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}

// TestEncodeAppLayout ties the daemon's ring encoding to the size rule
// ipc validates against — the ring payload is the CmdMulticast body plus
// the length-prefixed sender — and round-trips it through decodeApp.
func TestEncodeAppLayout(t *testing.T) {
	const sender = "alice@0.0.0.1"
	groups := []string{"g1", "group-two"}
	frame, err := ipc.AppendMulticast(nil, sender, wire.ServiceSafe, flagSelfDiscard, groups, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	body := frame[5:]
	encoded, svc, err := encodeApp(body, sender)
	if err != nil || svc != wire.ServiceSafe {
		t.Fatalf("encodeApp: svc %d, %v", svc, err)
	}
	if len(encoded) != len(body)+2+len(sender) {
		t.Fatalf("ring payload %d bytes for a %d-byte body and a %d-byte sender: ipc's payload limit assumes body+2+sender",
			len(encoded), len(body), len(sender))
	}
	p, err := decodeApp(encoded[1:])
	if err != nil {
		t.Fatal(err)
	}
	if encoded[0] != ringApp || p.flags != flagSelfDiscard || string(p.sender) != sender || string(p.payload) != "payload" {
		t.Fatalf("decoded %+v", p)
	}
	var names []string
	for g := p.groups; len(g) > 0; {
		name, rest, err := ipc.GetString(g)
		if err != nil {
			t.Fatal(err)
		}
		names, g = append(names, name), rest
	}
	if strings.Join(names, ",") != strings.Join(groups, ",") {
		t.Fatalf("groups %q, want %q", names, groups)
	}
	for n := range encoded[1:] {
		if _, err := decodeApp(encoded[1 : 1+n]); err == nil && n < len(encoded)-1-len("payload") {
			t.Fatalf("decodeApp accepted a %d-byte prefix", n)
		}
	}
}

// refillConn serves whatever the test last put in data.
type refillConn struct{ data []byte }

func (r *refillConn) Read(p []byte) (int, error) {
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestIngestAllocs gates CmdMulticast ingest — socket buffer to ring
// payload — at one allocation per message (the payload the engine keeps)
// plus at most one per burst.
func TestIngestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops bursts at random under the race detector")
	}
	const k, sender = 16, "alice@0.0.0.1"
	var run []byte
	for i := 0; i < k; i++ {
		run, _ = ipc.AppendMulticast(run, sender, wire.ServiceAgreed, 0, []string{"bench"}, make([]byte, 64))
	}
	src := &refillConn{}
	rd := ipc.NewReader(src)
	allocs := testing.AllocsPerRun(200, func() {
		src.data = run
		b := burstPool.Get().(*burst)
		if err := b.fill(rd); err != nil || len(b.frames) != k {
			t.Fatalf("burst of %d, %v", len(b.frames), err)
		}
		start := 0
		for _, f := range b.frames {
			if _, _, err := encodeApp(b.slab[start:f.end], sender); err != nil {
				t.Fatal(err)
			}
			start = f.end
		}
		burstPool.Put(b)
	})
	if allocs > k+1 {
		t.Fatalf("a burst of %d multicasts allocates %.1f times, want <= %d", k, allocs, k+1)
	}
}

// blockedSink parks the writer so the measurement sees only the publisher.
type blockedSink struct{ gate chan struct{} }

func (s blockedSink) WriteFrame(byte, []byte) error {
	<-s.gate
	return nil
}

// TestRouteAppAllocs gates the delivery side: one allocation — the frame
// body the queues retain — for a message somebody local wants, none at all
// for one nobody does; the stamp and the group sequences advance either
// way.
func TestRouteAppAllocs(t *testing.T) {
	const sender = "alice@0.0.0.1"
	encode := func(group string) appMessage {
		frame, err := ipc.AppendMulticast(nil, sender, wire.ServiceAgreed, 0, []string{group, "also"}, make([]byte, 64))
		if err != nil {
			t.Fatal(err)
		}
		encoded, _, err := encodeApp(frame[5:], sender)
		if err != nil {
			t.Fatal(err)
		}
		p, err := decodeApp(encoded[1:])
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	gate := make(chan struct{})
	defer close(gate)
	d := &Daemon{
		tier:     fanout.NewTier(fanout.Config{QueueDepth: 8, Policy: fanout.PolicyShed}),
		local:    make(map[string]*session),
		groupSeq: make(map[string]*groupStream),
	}
	sub := d.tier.Register(blockedSink{gate}, nil, nil)
	d.tier.Subscribe(sub, "wanted", fanout.SourceExplicit)
	for _, tc := range []struct {
		group string
		want  float64
	}{{"wanted", 1}, {"unwanted", 0}} {
		p := encode(tc.group)
		d.routeApp(p, wire.ServiceAgreed) // interns the names, parks the writer
		deadline := time.Now().Add(5 * time.Second)
		for tc.want > 0 && sub.Backlog() != 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		stamp, seq := d.deliverySeq, d.groupSeq[tc.group].seq
		allocs := testing.AllocsPerRun(200, func() { d.routeApp(p, wire.ServiceAgreed) })
		if allocs != tc.want {
			t.Errorf("routeApp to a %s group allocates %.1f times, want %.0f", tc.group, allocs, tc.want)
		}
		if d.deliverySeq != stamp+201 || d.groupSeq[tc.group].seq != seq+201 {
			t.Errorf("%s: stamp advanced %d, group seq %d, want 201 each", tc.group, d.deliverySeq-stamp, d.groupSeq[tc.group].seq-seq)
		}
	}
	if !bytes.Equal([]byte(d.groupSeq["also"].name), []byte("also")) || d.groupSeq["also"].seq != d.deliverySeq {
		t.Errorf("group %q numbered %d of %d messages", "also", d.groupSeq["also"].seq, d.deliverySeq)
	}
}

// TestDeliverAllocs gates the daemon's half of a delivery, from the loop's
// hand-off (Deliver) through routeApp: a message somebody local wants
// costs routeApp's one allocation, the body the queues retain, and one
// nobody wants costs none — parsing the ring payload and numbering it
// allocate nothing. The node's half is the root package's
// TestServedDeliverAllocs.
func TestDeliverAllocs(t *testing.T) {
	const sender = "alice@0.0.0.1"
	gate := make(chan struct{})
	defer close(gate)
	d := &Daemon{
		tier:     fanout.NewTier(fanout.Config{QueueDepth: 8, Policy: fanout.PolicyShed}),
		local:    make(map[string]*session),
		groupSeq: make(map[string]*groupStream),
	}
	sub := d.tier.Register(blockedSink{gate}, nil, nil)
	d.tier.Subscribe(sub, "wanted", fanout.SourceExplicit)
	for _, tc := range []struct {
		group string
		want  float64
	}{{"wanted", 1}, {"unwanted", 0}} {
		frame, err := ipc.AppendMulticast(nil, sender, wire.ServiceAgreed, 0, []string{tc.group}, make([]byte, 64))
		if err != nil {
			t.Fatal(err)
		}
		payload, svc, err := encodeApp(frame[5:], sender)
		if err != nil {
			t.Fatal(err)
		}
		(*server)(d).Deliver(1, svc, payload) // interns the name, parks the writer
		deadline := time.Now().Add(5 * time.Second)
		for tc.want > 0 && sub.Backlog() != 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		seq := d.groupSeq[tc.group].seq
		allocs := testing.AllocsPerRun(200, func() { (*server)(d).Deliver(1, svc, payload) })
		if allocs != tc.want {
			t.Errorf("Deliver to a %s group allocates %.1f times, want %.0f", tc.group, allocs, tc.want)
		}
		if d.groupSeq[tc.group].seq != seq+201 {
			t.Errorf("%s: group seq advanced %d, want 201", tc.group, d.groupSeq[tc.group].seq-seq)
		}
	}
}
