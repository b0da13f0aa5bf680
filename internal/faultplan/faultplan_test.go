package faultplan

import (
	"reflect"
	"testing"
	"time"

	"accelring/internal/wire"
)

func TestInjectorDeterministic(t *testing.T) {
	p := Plan{Seed: 42, Links: []LinkFault{
		{Loss: 0.3, Dup: 0.1, DelayProb: 0.2, Delay: time.Millisecond},
	}}
	run := func() []Verdict {
		in := p.Injector()
		var out []Verdict
		for i := 0; i < 200; i++ {
			now := time.Duration(i) * time.Millisecond
			out = append(out, in.Decide(now, 1, 2, wire.KindData))
			out = append(out, in.Decide(now, 2, 1, wire.KindToken))
		}
		return out
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("identical call sequences produced different verdicts")
	}
}

func TestPerLinkStreamsIndependent(t *testing.T) {
	// Interleaving traffic on another link must not perturb a link's fault
	// sequence: decisions are drawn from per-link streams.
	p := Plan{Seed: 7, Links: []LinkFault{{Loss: 0.5}}}
	alone := p.Injector()
	mixed := p.Injector()
	var a, b []Verdict
	for i := 0; i < 100; i++ {
		now := time.Duration(i) * time.Millisecond
		a = append(a, alone.Decide(now, 1, 2, wire.KindData))
		mixed.Decide(now, 3, 4, wire.KindData) // extra traffic elsewhere
		b = append(b, mixed.Decide(now, 1, 2, wire.KindData))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("traffic on link 3→4 perturbed the 1→2 fault sequence")
	}
}

func TestWindowsAndMatching(t *testing.T) {
	p := Plan{Seed: 1, Links: []LinkFault{
		{From: 1, To: 2, Kinds: MaskToken, Start: time.Second, End: 2 * time.Second, Loss: 1},
	}}
	in := p.Injector()
	if in.Decide(500*time.Millisecond, 1, 2, wire.KindToken).Drop {
		t.Fatal("fault fired before its window")
	}
	if !in.Decide(1500*time.Millisecond, 1, 2, wire.KindToken).Drop {
		t.Fatal("fault inactive inside its window")
	}
	if in.Decide(1500*time.Millisecond, 1, 2, wire.KindData).Drop {
		t.Fatal("token-only fault dropped a data packet")
	}
	if in.Decide(1500*time.Millisecond, 2, 1, wire.KindToken).Drop {
		t.Fatal("1→2 fault dropped a 2→1 packet")
	}
	if in.Decide(2500*time.Millisecond, 1, 2, wire.KindToken).Drop {
		t.Fatal("fault fired after its window")
	}
}

// TestMaskOf pins the kind → mask table. Control frames must map to
// MaskData (they share the data socket): an unmapped kind returns 0 and
// would silently dodge every fault with a non-zero Kinds mask.
func TestMaskOf(t *testing.T) {
	for _, c := range []struct {
		kind wire.Kind
		want KindMask
	}{
		{wire.KindData, MaskData},
		{wire.KindToken, MaskToken},
		{wire.KindJoin, MaskJoin},
		{wire.KindCommit, MaskCommit},
		{wire.KindControl, MaskData},
		{0, 0},
		{wire.KindControl + 1, 0},
	} {
		if got := MaskOf(c.kind); got != c.want {
			t.Errorf("MaskOf(%v) = %#x, want %#x", c.kind, got, c.want)
		}
	}
	in := (&Plan{Seed: 1, Links: []LinkFault{{Kinds: MaskData, Loss: 1}}}).Injector()
	if !in.Decide(0, 1, 2, wire.KindControl).Drop {
		t.Fatal("data-masked fault let a control frame through")
	}
	if in.Decide(0, 1, 2, wire.KindToken).Drop {
		t.Fatal("data-masked fault dropped a token")
	}
}

func TestPartitionEvents(t *testing.T) {
	p := Plan{Seed: 1, Events: []NodeEvent{
		{At: time.Second, Kind: EventPartition, Node: 3, Group: 1},
		{At: 2 * time.Second, Kind: EventHeal},
	}}
	in := p.Injector()
	if in.Decide(0, 1, 3, wire.KindData).Drop {
		t.Fatal("dropped before partition")
	}
	if !in.Decide(1500*time.Millisecond, 1, 3, wire.KindData).Drop {
		t.Fatal("cross-partition packet not dropped")
	}
	if in.Decide(1500*time.Millisecond, 1, 2, wire.KindData).Drop {
		t.Fatal("same-group packet dropped")
	}
	if in.Decide(2500*time.Millisecond, 1, 3, wire.KindData).Drop {
		t.Fatal("dropped after heal")
	}
}

func TestSelfSendsNeverFaulted(t *testing.T) {
	p := Plan{Seed: 1, Links: []LinkFault{{Loss: 1}}}
	in := p.Injector()
	if v := in.Decide(0, 2, 2, wire.KindToken); v.Drop || v.Dup || v.Delay != 0 {
		t.Fatalf("self-send faulted: %+v", v)
	}
}

func TestGenerateDeterministicAndBounded(t *testing.T) {
	const dur = time.Second
	a := Generate(99, 5, dur, ClassAll)
	b := Generate(99, 5, dur, ClassAll)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed generated different plans")
	}
	for _, f := range a.Links {
		if f.End == 0 || f.End > dur {
			t.Fatalf("link fault window %v..%v not bounded by %v", f.Start, f.End, dur)
		}
	}
	crashed := map[wire.ParticipantID]bool{}
	for _, ev := range a.NodeEvents() {
		if ev.At >= dur {
			t.Fatalf("event %v at %v past plan end %v", ev.Kind, ev.At, dur)
		}
		switch ev.Kind {
		case EventCrash:
			crashed[ev.Node] = true
		case EventRestart:
			if !crashed[ev.Node] {
				t.Fatalf("restart of %v before its crash", ev.Node)
			}
			delete(crashed, ev.Node)
		}
	}
	if len(crashed) != 0 {
		t.Fatalf("nodes left crashed at plan end: %v", crashed)
	}
	// Different seeds should explore different plans (probabilistic, but
	// 10 identical consecutive plans would mean the seed is ignored).
	distinct := false
	for seed := int64(0); seed < 10; seed++ {
		if !reflect.DeepEqual(Generate(seed, 5, dur, ClassAll), a) {
			distinct = true
			break
		}
	}
	if !distinct {
		t.Fatal("generator ignores its seed")
	}
}

func TestGenerateDegenerateInputs(t *testing.T) {
	// Degenerate inputs must yield empty/reduced plans, never panic.
	if p := Generate(1, 0, time.Second, ClassAll); len(p.Links) != 0 || len(p.Events) != 0 {
		t.Fatalf("zero nodes produced a non-empty plan: %v", &p)
	}
	if p := Generate(1, 5, 0, ClassAll); len(p.Links) != 0 || len(p.Events) != 0 {
		t.Fatalf("zero duration produced a non-empty plan: %v", &p)
	}
	for seed := int64(1); seed <= 20; seed++ {
		p := Generate(seed, 1, time.Second, ClassAll)
		for _, ev := range p.Events {
			if ev.Kind == EventPartition {
				t.Fatalf("seed %d partitioned a single-node cluster", seed)
			}
		}
	}
}
