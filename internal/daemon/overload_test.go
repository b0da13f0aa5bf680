package daemon

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"accelring"
	"accelring/internal/client"
	"accelring/internal/core"
	"accelring/internal/fanout"
	"accelring/internal/faultplan"
	"accelring/internal/ipc"
	"accelring/internal/wire"
)

// TestOverloadHoldsClientInput floods one daemon open-loop with more
// messages than its node's backlog holds. The session's reader must wait
// for room before it hands over what does not fit, neither dropping nor
// reordering it, so a client at a second daemon receives every message,
// in the order it was sent.
func TestOverloadHoldsClientInput(t *testing.T) {
	const total = core.DefaultMaxPending + 20000
	// The receiver's queue holds the whole flood: this test is about the
	// sender's side, not about a slow reader.
	c := startDaemonsWith(t, 2, accelring.NewMemoryNetwork(11), fanout.Config{QueueDepth: total})
	sender := c.connect(0, "sender")
	receiver := c.connect(1, "receiver")
	if err := receiver.Join("flood"); err != nil {
		t.Fatal(err)
	}
	waitView(t, receiver, "flood", 1)

	sendErr := make(chan error, 1)
	go func() {
		var p [8]byte
		for i := 0; i < total; i++ {
			binary.BigEndian.PutUint64(p[:], uint64(i))
			if err := sender.Multicast(accelring.Agreed, p[:], "flood"); err != nil {
				sendErr <- fmt.Errorf("multicast %d: %w", i, err)
				return
			}
		}
	}()

	next := 0
	deadline := time.After(60 * time.Second)
	for next < total {
		select {
		case ev, ok := <-receiver.Events():
			if !ok {
				t.Fatalf("receiver's events closed after %d/%d messages", next, total)
			}
			if m, isMsg := ev.(client.Message); isMsg {
				if got := binary.BigEndian.Uint64(m.Payload); got != uint64(next) {
					t.Fatalf("message %d carries %d: the daemon lost or reordered input", next, got)
				}
				next++
			}
		case err := <-sendErr:
			t.Fatal(err)
		case <-deadline:
			t.Fatalf("received %d/%d messages (holds %d)", next, total, c.daemons[0].Snapshot().Holds)
		}
	}
	if c.daemons[0].Snapshot().Holds == 0 {
		t.Fatalf("the flood never filled the node's backlog: the test did not test overload")
	}
}

// TestFullBacklog stalls a two-daemon ring — every token is dropped, and
// token loss is three seconds away (the stall lasts about 0.1 s), so
// nobody sends and the view stays — while a raw client floods the first
// daemon open-loop until its reader waits for room in the node's backlog.
// The token's resends, every 300 ms, restart the ring once the faults
// clear.
//
// "others are served": the waiting reader holds no other session up. A
// second client's Stats and a third client's connect each complete within
// two seconds, while the ring still orders nothing.
//
// "a dropped member leaves every view": a member of the first daemon, in
// more groups than the flood's largest burst has frames (so the room a
// refused burst leaves below any bound cannot hold its leaves), says
// goodbye while the backlog is full. Its leaves are the daemon's own
// submissions and go in past the clients' bound, so once the ring runs
// again a member of the second daemon sees it leave, and the engine
// refused nothing the node admitted.
func TestFullBacklog(t *testing.T) {
	net0 := accelring.NewMemoryNetwork(13)
	c := startDaemonsWith(t, 2, net0, fanout.Config{}, func(o *accelring.Options) { o.TokenLossTimeout = 3 * time.Second })
	const groups = 1000 // the reader's buffer holds at most 853 of the flood's 81-byte frames
	leaver := c.connect(0, "leaver")
	observer := c.connect(1, "observer")
	for i := 0; i < groups; i++ {
		if err := leaver.Join(fmt.Sprint("m", i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []*client.Conn{leaver, observer} {
		if err := m.Join("g"); err != nil {
			t.Fatal(err)
		}
	}
	waitView(t, leaver, "g", 2) // behind every join of the leaver's
	waitView(t, observer, "g", 2)
	asker := c.connect(0, "asker")

	net0.ApplyFaults(&faultplan.Plan{Links: []faultplan.LinkFault{{Kinds: faultplan.MaskToken, Loss: 1}}})
	flooder := rawConnect(t, c.socks[0], "flooder")
	var frames []byte
	for i := 0; i < 64; i++ {
		frames, _ = ipc.AppendMulticast(frames, "", wire.ServiceAgreed, 0, []string{"nobody"}, make([]byte, 64))
	}
	flooded := make(chan struct{})
	go func() {
		defer close(flooded)
		for {
			if _, err := flooder.conn.Write(frames); err != nil {
				return
			}
		}
	}()
	for deadline := time.Now().Add(20 * time.Second); c.daemons[0].Snapshot().Holds == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the flood never filled the node's backlog (%d frames in)", c.daemons[0].Snapshot().BurstFrames)
		}
	}

	t.Run("others are served", func(t *testing.T) {
		returnsWithin(t, "Stats beside a waiting reader", 2*time.Second, func() error {
			_, err := asker.Stats()
			return err
		})
		returnsWithin(t, "a connect beside a waiting reader", 2*time.Second, func() error {
			late, err := client.Connect("unix", c.socks[0], "late")
			if err == nil {
				late.Close()
			}
			return err
		})
		if st, err := asker.Stats(); err != nil || st.Fanout.Holds == 0 {
			t.Fatalf("stats %+v, %v: the flooder no longer waits", st.Fanout, err)
		}
	})

	t.Run("a dropped member leaves every view", func(t *testing.T) {
		leaver.Close()
		flooder.conn.Close()
		<-flooded
		net0.ApplyFaults(nil)
		waitView(t, observer, "g", 1)
		m, err := c.daemons[0].node.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		if m.Runtime.SubmitErrors != 0 {
			t.Fatalf("the engine refused %d submissions the node admitted", m.Runtime.SubmitErrors)
		}
	})
}
