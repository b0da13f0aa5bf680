package daemon

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"accelring"
	"accelring/internal/client"
	"accelring/internal/evscheck"
	"accelring/internal/faultplan"
	"accelring/internal/wire"
)

// TestManyClientsTotalOrder stresses the full stack: 3 daemons × 4 clients
// each, all flooding one group concurrently. Every client must observe the
// identical delivery order.
func TestManyClientsTotalOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const (
		daemons       = 3
		clientsPerD   = 4
		perClientMsgs = 25
	)
	c := startDaemons(t, daemons)

	var conns []*client.Conn
	for d := 0; d < daemons; d++ {
		for i := 0; i < clientsPerD; i++ {
			conn := c.connect(d, fmt.Sprintf("c%d", i))
			if err := conn.Join("flood"); err != nil {
				t.Fatal(err)
			}
			conns = append(conns, conn)
		}
	}
	total := daemons * clientsPerD
	for _, conn := range conns {
		waitView(t, conn, "flood", total)
	}

	// All clients send concurrently.
	var wg sync.WaitGroup
	for _, conn := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClientMsgs; i++ {
				payload := []byte(fmt.Sprintf("%s/%d", conn.PrivateName(), i))
				if err := conn.Multicast(wire.ServiceAgreed, payload, "flood"); err != nil {
					t.Errorf("multicast: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	want := total * perClientMsgs
	streams := make([][]client.Message, len(conns))
	var collectWg sync.WaitGroup
	for i, conn := range conns {
		collectWg.Add(1)
		go func() {
			defer collectWg.Done()
			streams[i] = collectMessages(t, conn, want)
		}()
	}
	collectWg.Wait()
	if t.Failed() {
		return
	}

	for i := 1; i < len(streams); i++ {
		for k := range streams[0] {
			if string(streams[i][k].Payload) != string(streams[0][k].Payload) {
				t.Fatalf("clients 0 and %d disagree at %d: %q vs %q",
					i, k, streams[0][k].Payload, streams[i][k].Payload)
			}
		}
	}
	// Per-sender FIFO within the total order.
	positions := map[string]int{}
	for _, m := range streams[0] {
		sender := m.Sender
		var idx int
		if _, err := fmt.Sscanf(string(m.Payload[len(sender)+1:]), "%d", &idx); err != nil {
			t.Fatalf("bad payload %q", m.Payload)
		}
		if last, ok := positions[sender]; ok && idx != last+1 {
			t.Fatalf("sender %s: message %d delivered after %d", sender, idx, last)
		}
		positions[sender] = idx
	}
}

// TestFloodUnderNetworkFaults floods the full stack — daemons, IPC,
// transport — while the in-memory network loses, duplicates and reorders
// packets, then submits every client's delivery stream to the EVS
// conformance checker: one total order, duplicate-free, per-sender FIFO.
func TestFloodUnderNetworkFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const (
		daemons       = 3
		clientsPerD   = 2
		perClientMsgs = 20
	)
	net0 := accelring.NewMemoryNetwork(777)
	net0.ApplyFaults(&faultplan.Plan{Seed: 777, Links: []faultplan.LinkFault{
		{Loss: 0.005, Dup: 0.02, DelayProb: 0.02, Delay: 300 * time.Microsecond},
	}})
	c := startDaemonsOn(t, daemons, net0)

	var conns []*client.Conn
	for d := 0; d < daemons; d++ {
		for i := 0; i < clientsPerD; i++ {
			conn := c.connect(d, fmt.Sprintf("x%d", i))
			if err := conn.Join("chaos"); err != nil {
				t.Fatal(err)
			}
			conns = append(conns, conn)
		}
	}
	total := daemons * clientsPerD
	for _, conn := range conns {
		waitView(t, conn, "chaos", total)
	}
	senderID := make(map[string]wire.ParticipantID, total)
	for i, conn := range conns {
		senderID[conn.PrivateName()] = wire.ParticipantID(i + 1)
	}

	var wg sync.WaitGroup
	for _, conn := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClientMsgs; i++ {
				payload := []byte(fmt.Sprintf("%s/%d", conn.PrivateName(), i))
				if err := conn.Multicast(wire.ServiceAgreed, payload, "chaos"); err != nil {
					t.Errorf("multicast: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	want := total * perClientMsgs
	streams := make([][]client.Message, len(conns))
	var collectWg sync.WaitGroup
	for i, conn := range conns {
		collectWg.Add(1)
		go func() {
			defer collectWg.Done()
			streams[i] = collectMessages(t, conn, want)
		}()
	}
	collectWg.Wait()
	if t.Failed() {
		return
	}

	// The client streams carry no configuration events (the view is per
	// group, not per ring), so check them as one uniform configuration.
	log := evscheck.Log{}
	for i, stream := range streams {
		nl := log.Node(fmt.Sprintf("client-%d", i))
		for _, m := range stream {
			var idx int
			if _, err := fmt.Sscanf(string(m.Payload[len(m.Sender)+1:]), "%d", &idx); err != nil {
				t.Fatalf("bad payload %q", m.Payload)
			}
			nl.Deliver(string(m.Payload), senderID[m.Sender], uint64(idx+1), wire.ServiceAgreed)
		}
	}
	if vs := evscheck.CheckUniform(log, evscheck.Options{Quiescent: true}); len(vs) > 0 {
		for _, v := range vs {
			t.Errorf("EVS violation under faults: %v", v)
		}
	}
}

// TestClientReconnectSameName verifies a client can disconnect and
// reconnect under the same name once the daemon has processed the drop.
func TestClientReconnectSameName(t *testing.T) {
	c := startDaemons(t, 1)
	first := c.connect(0, "phoenix")
	if err := first.Join("g"); err != nil {
		t.Fatal(err)
	}
	waitView(t, first, "g", 1)
	first.Close()

	// Reconnection races the daemon noticing the disconnect; retry briefly.
	var second *client.Conn
	var err error
	for attempt := 0; attempt < 100; attempt++ {
		second, err = client.Connect("unix", c.socks[0], "phoenix")
		if err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("reconnect failed: %v", err)
	}
	defer second.Close()
	if second.PrivateName() != "phoenix@0.0.0.1" {
		t.Fatalf("private name %q", second.PrivateName())
	}
	if err := second.Join("g2"); err != nil {
		t.Fatal(err)
	}
	waitView(t, second, "g2", 1)
}

func TestConnectValidation(t *testing.T) {
	c := startDaemons(t, 1)
	if _, err := client.Connect("unix", c.socks[0], ""); err == nil {
		t.Fatal("empty name accepted")
	}
	// Names with '@' would break private-name parsing; the daemon must
	// reject them by closing the connection.
	if conn, err := client.Connect("unix", c.socks[0], "bad@name"); err == nil {
		conn.Close()
		t.Fatal("name with @ accepted")
	}
}

func TestSelfDiscard(t *testing.T) {
	c := startDaemons(t, 2)
	a := c.connect(0, "a")
	b := c.connect(1, "b")
	if err := a.Join("g"); err != nil {
		t.Fatal(err)
	}
	if err := b.Join("g"); err != nil {
		t.Fatal(err)
	}
	waitView(t, a, "g", 2)
	waitView(t, b, "g", 2)

	// a sends with self-discard, then plainly; a must see only the second.
	if err := a.MulticastWith(client.MulticastOptions{SelfDiscard: true},
		wire.ServiceAgreed, []byte("discarded"), "g"); err != nil {
		t.Fatal(err)
	}
	if err := a.Multicast(wire.ServiceAgreed, []byte("kept"), "g"); err != nil {
		t.Fatal(err)
	}
	bMsgs := collectMessages(t, b, 2)
	if string(bMsgs[0].Payload) != "discarded" || string(bMsgs[1].Payload) != "kept" {
		t.Fatalf("b got %q then %q", bMsgs[0].Payload, bMsgs[1].Payload)
	}
	aMsgs := collectMessages(t, a, 1)
	if string(aMsgs[0].Payload) != "kept" {
		t.Fatalf("a got %q, want only the non-discarded message", aMsgs[0].Payload)
	}
}
