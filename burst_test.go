package accelring

import (
	"testing"

	"accelring/internal/core"
	"accelring/internal/transport"
	"accelring/internal/wire"
)

// recordingBatchTransport records which send path each packet took, so the
// tests can pin the runtime's burst-accumulation policy: runs of >= 2
// consecutive SendData actions go through MulticastBatch, everything else
// through the single-send paths.
type recordingBatchTransport struct {
	batches  [][]string // one entry per MulticastBatch call, decoded payloads
	singles  []string   // payloads sent via Multicast
	unicasts int
}

func (r *recordingBatchTransport) Multicast(pkt []byte) error {
	r.singles = append(r.singles, decodePayload(pkt))
	return nil
}

func (r *recordingBatchTransport) MulticastBatch(pkts [][]byte) error {
	batch := make([]string, len(pkts))
	for i, p := range pkts {
		batch[i] = decodePayload(p)
	}
	r.batches = append(r.batches, batch)
	return nil
}

func (r *recordingBatchTransport) Unicast(wire.ParticipantID, []byte) error {
	r.unicasts++
	return nil
}

func (r *recordingBatchTransport) Data() <-chan []byte  { return nil }
func (r *recordingBatchTransport) Token() <-chan []byte { return nil }
func (r *recordingBatchTransport) Close() error         { return nil }

func decodePayload(pkt []byte) string {
	m, err := wire.DecodeData(pkt)
	if err != nil {
		return "decode-error: " + err.Error()
	}
	return string(m.Payload)
}

func dataAction(payload string) core.SendData {
	return core.SendData{Msg: &wire.DataMessage{
		RingID:  wire.RingID{Rep: 1, Seq: 1},
		Seq:     1,
		PID:     1,
		Service: wire.ServiceAgreed,
		Payload: []byte(payload),
	}}
}

// TestExecuteBatchesSendDataRuns: a mixed action stream — like the
// engine's token hand-off output (pre-token run, token Send, post-token
// accelerated flush) — must batch each multi-frame run, keep lone frames
// on the single path, and preserve the frames' order and contents.
func TestExecuteBatchesSendDataRuns(t *testing.T) {
	ft := &recordingBatchTransport{}
	n := &Node{tr: ft, batcher: ft, nm: newNodeMetrics()}
	tok := &wire.Token{RingID: wire.RingID{Rep: 1, Seq: 1}}

	n.execute(nil, []core.Action{
		dataAction("pre-1"),
		dataAction("pre-2"),
		dataAction("pre-3"),
		core.Send{To: 2, Frame: tok},
		dataAction("post-1"),
		dataAction("post-2"),
		core.Send{To: 2, Frame: tok},
		dataAction("lone"),
	})

	if len(ft.batches) != 2 {
		t.Fatalf("MulticastBatch called %d times, want 2: %v", len(ft.batches), ft.batches)
	}
	wantPre := []string{"pre-1", "pre-2", "pre-3"}
	for i, p := range wantPre {
		if ft.batches[0][i] != p {
			t.Fatalf("pre-token batch = %v, want %v", ft.batches[0], wantPre)
		}
	}
	wantPost := []string{"post-1", "post-2"}
	for i, p := range wantPost {
		if ft.batches[1][i] != p {
			t.Fatalf("post-token batch = %v, want %v", ft.batches[1], wantPost)
		}
	}
	if len(ft.singles) != 1 || ft.singles[0] != "lone" {
		t.Fatalf("single-send path saw %v, want [lone]", ft.singles)
	}
	if ft.unicasts != 2 {
		t.Fatalf("unicasts = %d, want 2", ft.unicasts)
	}
	snap := n.nm.runtimeSnapshot(n)
	if snap.SendBursts != 2 || snap.SendBurstMsgs != 5 {
		t.Fatalf("burst counters = %d/%d, want 2 bursts carrying 5 frames",
			snap.SendBursts, snap.SendBurstMsgs)
	}
}

// TestExecuteWithoutBatcherUsesSinglePath: a transport without a batch
// path (memnet, external transports) keeps today's one-send-per-action
// behavior even for long runs.
func TestExecuteWithoutBatcherUsesSinglePath(t *testing.T) {
	ft := &recordingBatchTransport{}
	n := &Node{tr: ft, nm: newNodeMetrics()} // batcher deliberately nil
	n.execute(nil, []core.Action{
		dataAction("a"), dataAction("b"), dataAction("c"),
	})
	if len(ft.batches) != 0 {
		t.Fatalf("batch path used without a batcher: %v", ft.batches)
	}
	if len(ft.singles) != 3 {
		t.Fatalf("singles = %v, want 3 frames", ft.singles)
	}
	if snap := n.nm.runtimeSnapshot(n); snap.SendBursts != 0 {
		t.Fatalf("SendBursts = %d without a batcher", snap.SendBursts)
	}
}

// TestSendBurstRecyclesBuffers: a burst's pooled encode buffers must all
// return to the pool, and the retained scratch vectors must not alias
// recycled buffers afterwards.
func TestSendBurstRecyclesBuffers(t *testing.T) {
	ft := &recordingBatchTransport{}
	n := &Node{tr: ft, batcher: ft, nm: newNodeMetrics()}
	before := transport.Buffers.Snapshot()
	n.execute(nil, []core.Action{
		dataAction("r1"), dataAction("r2"), dataAction("r3"), dataAction("r4"),
	})
	after := transport.Buffers.Snapshot()
	gets := (after.Hits + after.Misses) - (before.Hits + before.Misses)
	puts := after.Puts - before.Puts
	if gets != 4 || puts != 4 {
		t.Fatalf("burst of 4 did %d pool gets and %d puts, want 4/4", gets, puts)
	}
	for i, b := range n.burstPkts[:cap(n.burstPkts)] {
		if b != nil {
			t.Fatalf("burstPkts[%d] still aliases a recycled buffer", i)
		}
	}
}
