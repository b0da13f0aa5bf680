package memnet

import (
	"strings"
	"testing"
	"time"

	"accelring/internal/faultplan"
	"accelring/internal/wire"
)

// wirePkt builds a packet with a valid four-byte wire header so the hub's
// kind classifier sees the given kind.
func wirePkt(kind wire.Kind, body string) []byte {
	pkt := []byte{'A', 'R', 1, byte(kind)}
	return append(pkt, body...)
}

// onEveryLink is a plan of one link fault on every link, drawing from seed.
func onEveryLink(seed int64, f faultplan.LinkFault) *faultplan.Plan {
	return &faultplan.Plan{Seed: seed, Links: []faultplan.LinkFault{f}}
}

func drain(ch <-chan []byte, d time.Duration) []string {
	var got []string
	deadline := time.After(d)
	for {
		select {
		case pkt := <-ch:
			got = append(got, string(pkt))
		case <-deadline:
			return got
		}
	}
}

func TestDuplicationDeliversTwice(t *testing.T) {
	h := NewHub()
	h.SetLatency(0)
	h.ApplyFaults(onEveryLink(3, faultplan.LinkFault{Dup: 1}))
	a, b := h.Join(1), h.Join(2)
	defer a.Close()
	defer b.Close()
	if err := a.Multicast([][]byte{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
	got := drain(b.Data(), 50*time.Millisecond)
	if len(got) != 2 {
		t.Fatalf("dup rate ~1 delivered %d copies, want 2", len(got))
	}
}

func TestReorderOvertakesDelayedPacket(t *testing.T) {
	h := NewHub()
	h.SetLatency(0)
	a, b := h.Join(1), h.Join(2)
	defer a.Close()
	defer b.Close()

	// Delay every packet sent while the plan is on, then send a fast one.
	h.ApplyFaults(onEveryLink(3, faultplan.LinkFault{DelayProb: 1, Delay: 50 * time.Millisecond}))
	if err := a.Multicast([][]byte{[]byte("slow")}); err != nil {
		t.Fatal(err)
	}
	h.ApplyFaults(nil)
	if err := a.Multicast([][]byte{[]byte("fast")}); err != nil {
		t.Fatal(err)
	}
	got := drain(b.Data(), 200*time.Millisecond)
	if len(got) != 2 || got[0] != "fast" || got[1] != "slow" {
		t.Fatalf("want [fast slow], got %v", got)
	}
}

func TestFIFOPreservedWithoutReordering(t *testing.T) {
	h := NewHub()
	h.SetLatency(time.Millisecond)
	a, b := h.Join(1), h.Join(2)
	defer a.Close()
	defer b.Close()
	want := []string{"1", "2", "3", "4", "5"}
	for _, s := range want {
		if err := a.Multicast([][]byte{[]byte(s)}); err != nil {
			t.Fatal(err)
		}
	}
	got := drain(b.Data(), 100*time.Millisecond)
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order broken: %v", got)
		}
	}
}

// TestPlannedHeal: a plan's heal event reconnects its partition at its
// time, with no timer of the test's own.
func TestPlannedHeal(t *testing.T) {
	h := NewHub()
	h.SetLatency(0)
	a, b := h.Join(1), h.Join(2)
	defer a.Close()
	defer b.Close()
	h.ApplyFaults(&faultplan.Plan{Events: []faultplan.NodeEvent{
		{Kind: faultplan.EventPartition, Node: 2, Group: 1},
		{At: 30 * time.Millisecond, Kind: faultplan.EventHeal},
	}})

	if err := a.Multicast([][]byte{[]byte("lost")}); err != nil {
		t.Fatal(err)
	}
	if got := drain(b.Data(), 10*time.Millisecond); len(got) != 0 {
		t.Fatalf("partitioned delivery: %v", got)
	}
	time.Sleep(40 * time.Millisecond)
	if err := a.Multicast([][]byte{[]byte("healed")}); err != nil {
		t.Fatal(err)
	}
	got := drain(b.Data(), 100*time.Millisecond)
	if len(got) != 1 || got[0] != "healed" {
		t.Fatalf("after the planned heal got %v", got)
	}
}

func TestApplyFaultsDropsByKind(t *testing.T) {
	h := NewHub()
	h.SetLatency(0)
	a, b := h.Join(1), h.Join(2)
	defer a.Close()
	defer b.Close()
	// Drop all tokens, pass all data.
	h.ApplyFaults(&faultplan.Plan{Seed: 1, Links: []faultplan.LinkFault{{
		Kinds: faultplan.MaskToken, Loss: 1.0,
	}}})

	for i := 0; i < 20; i++ {
		if err := a.Unicast(2, wirePkt(wire.KindToken, "tok")); err != nil {
			t.Fatal(err)
		}
	}
	if got := drain(b.Token(), 30*time.Millisecond); len(got) != 0 {
		t.Fatalf("token loss 1.0 delivered %d tokens", len(got))
	}
	if err := a.Multicast([][]byte{wirePkt(wire.KindData, "data")}); err != nil {
		t.Fatal(err)
	}
	if got := drain(b.Data(), 100*time.Millisecond); len(got) != 1 {
		t.Fatalf("data should pass untouched, got %v", got)
	}

	h.ApplyFaults(nil)
	if err := a.Unicast(2, wirePkt(wire.KindToken, "tok")); err != nil {
		t.Fatal(err)
	}
	if got := drain(b.Token(), 100*time.Millisecond); len(got) != 1 {
		t.Fatalf("cleared plan still dropping: got %d tokens", len(got))
	}
}

// TestApplyFaultsClassifiesByWireHeader checks the hub classifies packets
// with the wire package's own header parser: a control frame (which
// travels on the data socket) is bitten by a data-masked fault, a token
// is not, and a packet with no valid header — kind 0 — only by unmasked
// faults.
func TestApplyFaultsClassifiesByWireHeader(t *testing.T) {
	h := NewHub()
	h.SetLatency(0)
	a, b := h.Join(1), h.Join(2)
	defer a.Close()
	defer b.Close()
	h.ApplyFaults(&faultplan.Plan{Seed: 1, Links: []faultplan.LinkFault{{
		Kinds: faultplan.MaskData, Loss: 1.0,
	}}})
	for _, pkt := range [][]byte{wirePkt(wire.KindControl, "ctl"), wirePkt(wire.KindData, "data")} {
		if err := a.Multicast([][]byte{pkt}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Multicast([][]byte{[]byte("no header")}); err != nil {
		t.Fatal(err)
	}
	if got := drain(b.Data(), 100*time.Millisecond); len(got) != 1 || got[0] != "no header" {
		t.Fatalf("data-masked loss 1.0 let through %q, want only the headerless packet", got)
	}
	if err := a.Unicast(2, wirePkt(wire.KindToken, "tok")); err != nil {
		t.Fatal(err)
	}
	if got := drain(b.Token(), 100*time.Millisecond); len(got) != 1 {
		t.Fatalf("token should pass a data-masked fault, got %v", got)
	}
}

// TestSameSeedSameFaultSequence feeds two hubs with identically seeded
// plans the same single-threaded packet sequence and requires the same
// survivors at every endpoint: the fault decisions must depend only on the
// seed and the packet sequence, never on timing or map iteration order.
func TestSameSeedSameFaultSequence(t *testing.T) {
	survivors := func(seed int64) string {
		h := NewHub()
		h.SetLatency(0)
		h.ApplyFaults(onEveryLink(seed, faultplan.LinkFault{Loss: 0.5}))
		a := h.Join(1)
		defer a.Close()
		eps := make([]*Endpoint, 0, 4)
		for id := wire.ParticipantID(2); id <= 5; id++ {
			ep := h.Join(id)
			defer ep.Close()
			eps = append(eps, ep)
		}
		for i := 0; i < 40; i++ {
			if err := a.Multicast([][]byte{{byte(i)}}); err != nil {
				t.Fatal(err)
			}
		}
		// With no latency every surviving copy is queued long before this;
		// reading after the last send makes the result independent of when
		// each one arrived.
		time.Sleep(50 * time.Millisecond)
		var got []byte
		for _, ep := range eps {
			for len(ep.Data()) > 0 {
				got = append(got, (<-ep.Data())[0])
			}
			got = append(got, '|')
		}
		return string(got)
	}
	a, b := survivors(99), survivors(99)
	if a != b {
		t.Fatalf("same seed, different survivors:\n%q\n%q", a, b)
	}
	if survivors(100) == a {
		t.Fatal("different seeds produced the identical 160-draw loss pattern")
	}
}

// TestVectorDrawsLikeSuccessiveSingles: a vector Multicast must consume
// each link's fault stream exactly as the same packets sent one call at a
// time, so seed digests recorded against single sends stay valid.
func TestVectorDrawsLikeSuccessiveSingles(t *testing.T) {
	survivors := func(vector bool) [][]string {
		h := NewHub()
		h.SetLatency(0)
		h.ApplyFaults(onEveryLink(7, faultplan.LinkFault{Loss: 0.5}))
		a := h.Join(1)
		defer a.Close()
		var eps []*Endpoint
		for id := wire.ParticipantID(4); id >= 2; id-- { // joined in descending order
			ep := h.Join(id)
			defer ep.Close()
			eps = append(eps, ep)
		}
		pkts := make([][]byte, 12)
		for i := range pkts {
			pkts[i] = []byte{'p', byte('a' + i)}
		}
		if vector {
			if err := a.Multicast(pkts); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, pkt := range pkts {
				if err := a.Multicast([][]byte{pkt}); err != nil {
					t.Fatal(err)
				}
			}
		}
		got := make([][]string, len(eps))
		for i, ep := range eps {
			got[i] = drain(ep.Data(), 50*time.Millisecond)
		}
		return got
	}
	one, many := survivors(true), survivors(false)
	lost := 0
	for i := range one {
		if strings.Join(one[i], ",") != strings.Join(many[i], ",") {
			t.Fatalf("endpoint %d: vector delivered %v, single sends delivered %v", i, one[i], many[i])
		}
		lost += 12 - len(one[i])
	}
	if lost == 0 || lost == 36 {
		t.Fatalf("loss rate 0.5 dropped %d/36 copies: the comparison is vacuous", lost)
	}
}
