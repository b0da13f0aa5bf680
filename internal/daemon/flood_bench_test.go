package daemon

import (
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"accelring"
	"accelring/internal/ipc"
	"accelring/internal/wire"
)

// BenchmarkDaemonFlood is the traffic that fills the node's backlog and
// so runs the daemon's admission rule: four raw clients of a one-member
// memnet daemon send 64-byte multicasts open-loop, 64 frames per write, to
// a group nobody listens to — ingest and ordering alone, no fan-out. An op
// is one ordered message. It reports ordered msgs/s, from the first write
// to the last delivery, and the posts that waited for room per op
// (holds/op).
func BenchmarkDaemonFlood(b *testing.B) {
	const clients, perWrite = 4, 64
	node, err := accelring.Start(accelring.Options{
		ID:        1,
		Transport: accelring.NewMemoryNetwork(43).Endpoint(1),
		Members:   []accelring.ParticipantID{1},
	})
	if err != nil {
		b.Fatal(err)
	}
	sock := filepath.Join(b.TempDir(), "ringd.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		b.Fatal(err)
	}
	d, err := New(Config{Node: node, Listener: ln})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()

	conns := make([]net.Conn, clients)
	for i := range conns {
		conns[i] = floodConnect(b, sock, string(rune('a'+i)))
		defer conns[i].Close()
	}
	var frames []byte
	for i := 0; i < perWrite; i++ {
		frames, _ = ipc.AppendMulticast(frames, "", wire.ServiceAgreed, 0, []string{"nobody"}, make([]byte, 64))
	}
	writes := (b.N + clients*perWrite - 1) / (clients * perWrite)
	total := uint64(writes * clients * perWrite)
	base := delivered(b, node)
	holds := d.Snapshot().Holds

	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range writes {
				if _, err := c.Write(frames); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	for delivered(b, node) < base+total {
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start)
	b.StopTimer()
	wg.Wait()
	b.ReportMetric(float64(total)/elapsed.Seconds(), "msgs/s")
	b.ReportMetric(float64(d.Snapshot().Holds-holds)/float64(b.N), "holds/op")
}

// floodConnect opens a raw session named name and reads its welcome.
func floodConnect(b *testing.B, sock, name string) net.Conn {
	b.Helper()
	conn, err := net.Dial("unix", sock)
	if err != nil {
		b.Fatal(err)
	}
	if err := ipc.WriteFrame(conn, ipc.CmdConnect, ipc.PutString(nil, name)); err != nil {
		b.Fatal(err)
	}
	if typ, _, err := ipc.ReadFrame(conn); err != nil || typ != ipc.EvtWelcome {
		b.Fatalf("welcome: frame %d, %v", typ, err)
	}
	return conn
}

// delivered is how many events the node has handed its daemon.
func delivered(b *testing.B, node *accelring.Node) uint64 {
	m, err := node.Metrics()
	if err != nil {
		b.Fatal(err)
	}
	return m.Runtime.EventsDelivered
}
