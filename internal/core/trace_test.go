package core

import (
	"fmt"
	"testing"
	"time"

	"accelring/internal/wire"
)

// recordingTracer captures trace callbacks for assertions.
type recordingTracer struct {
	states  []string
	tokens  int
	configs []string
}

func (r *recordingTracer) StateChanged(from, to State) {
	r.states = append(r.states, fmt.Sprintf("%s->%s", from, to))
}

func (r *recordingTracer) TokenForwarded(to wire.ParticipantID, seq, aru wire.Seq, retrans, newMsgs int) {
	r.tokens++
}

func (r *recordingTracer) ConfigurationInstalled(cfg Configuration, transitional bool) {
	kind := "regular"
	if transitional {
		kind = "transitional"
	}
	r.configs = append(r.configs, fmt.Sprintf("%s:%d", kind, len(cfg.Members)))
}

func TestTracerSeesTokenForwards(t *testing.T) {
	tr := &recordingTracer{}
	cfg := accelConfig()
	cfg.Tracer = tr
	e := newMember(t, 2, 3, cfg)
	e.HandleToken(ringToken(e, 5, 1, 0, 0))
	e.HandleToken(ringToken(e, 6, 4, 0, 0))
	if tr.tokens != 2 {
		t.Fatalf("tracer saw %d token forwards, want 2", tr.tokens)
	}
	if len(tr.configs) != 1 || tr.configs[0] != "regular:3" {
		t.Fatalf("tracer configs = %v", tr.configs)
	}
	// Static start transitions straight to operational.
	if len(tr.states) != 1 || tr.states[0] != "state(0)->operational" {
		t.Fatalf("tracer states = %v", tr.states)
	}
}

func TestTracerSeesMembershipCycle(t *testing.T) {
	tracers := map[wire.ParticipantID]*recordingTracer{}
	tmpl := accelConfig()
	h := newHarness(t, 3, tmpl)
	// Attach tracers post-construction is impossible (config is copied),
	// so rebuild node 1's engine with one.
	tr := &recordingTracer{}
	cfg := h.nodes[0].eng.cfg
	cfg.Tracer = tr
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.nodes[0].eng = eng
	tracers[1] = tr

	h.startStatic()
	h.run(100 * time.Millisecond)
	h.crash(3)
	h.waitConfig(3*time.Second, []wire.ParticipantID{1, 2}, 1, 2)

	// Node 1 must have walked operational -> gather -> commit -> recovery
	// -> operational.
	want := []string{
		"state(0)->operational",
		"operational->gather",
		"gather->commit",
		"commit->recovery",
		"recovery->operational",
	}
	if len(tr.states) < len(want) {
		t.Fatalf("tracer states = %v, want at least %v", tr.states, want)
	}
	for i, w := range want {
		if tr.states[i] != w {
			t.Fatalf("state transition %d = %q, want %q (all: %v)", i, tr.states[i], w, tr.states)
		}
	}
	// Config events: initial regular:3, then transitional:2 + regular:2.
	if tr.configs[0] != "regular:3" {
		t.Fatalf("configs = %v", tr.configs)
	}
	foundTrans, foundReg2 := false, false
	for _, c := range tr.configs[1:] {
		if c == "transitional:2" {
			foundTrans = true
		}
		if c == "regular:2" {
			foundReg2 = true
		}
	}
	if !foundTrans || !foundReg2 {
		t.Fatalf("configs = %v, want transitional:2 and regular:2", tr.configs)
	}
}
