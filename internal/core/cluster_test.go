package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"accelring/internal/engine"
	"accelring/internal/enginetest"
	"accelring/internal/evscheck"
	"accelring/internal/faultplan"
	"accelring/internal/wire"
)

// The cluster tests run whole rings on internal/enginetest's virtual-time
// driver. harness adds what only core's tests need: engines with short
// timers (so membership runs in little virtual time), typed access to a
// node's *Engine, and the order checks the scenarios share.
type harness struct {
	*enginetest.Cluster
	t *testing.T
}

var payload = enginetest.Payload

// newHarness builds n engines with IDs 1..n from the config template (MyID
// and Incarnation are filled in per node). Nothing is started.
func newHarness(t *testing.T, n int, tmpl Config) *harness {
	t.Helper()
	c := enginetest.New(n, func(id wire.ParticipantID, inc uint32) enginetest.Engine {
		cfg := tmpl
		cfg.MyID, cfg.Incarnation = id, inc
		cfg.TokenLossTimeout = 50 * time.Millisecond
		cfg.TokenRetransPeriod = 10 * time.Millisecond
		cfg.JoinPeriod = 5 * time.Millisecond
		cfg.ConsensusTimeout = 25 * time.Millisecond
		cfg.CommitTimeout = 25 * time.Millisecond
		e, err := New(cfg)
		if err != nil {
			t.Fatalf("New engine %d: %v", id, err)
		}
		return e
	})
	return &harness{Cluster: c, t: t}
}

// eng is the node's current engine.
func eng(n *enginetest.Node) *Engine { return n.Engine.(*Engine) }

func (h *harness) submit(id wire.ParticipantID, p []byte, svc wire.Service) {
	h.t.Helper()
	if err := h.Submit(id, p, svc); err != nil {
		h.t.Fatalf("Submit at %s: %v", id, err)
	}
}

// checkTotalOrder verifies that the listed nodes' delivered payload
// sequences are equal up to the length of the shorter one.
func (h *harness) checkTotalOrder(ids ...wire.ParticipantID) {
	h.t.Helper()
	for i := range ids {
		for _, other := range ids[i+1:] {
			a, b := h.Node(ids[i]).Payloads(), h.Node(other).Payloads()
			for k := 0; k < len(a) && k < len(b); k++ {
				if a[k] != b[k] {
					h.t.Fatalf("total order violated: node %s delivered %q at %d, node %s delivered %q",
						ids[i], a[k], k, other, b[k])
				}
			}
		}
	}
}

// checkAllDelivered verifies that each listed node delivered exactly want
// application messages.
func (h *harness) checkAllDelivered(want int, ids ...wire.ParticipantID) {
	h.t.Helper()
	for _, id := range ids {
		if got := len(h.Node(id).Payloads()); got != want {
			h.t.Fatalf("node %s delivered %d messages, want %d", id, got, want)
		}
	}
}

// checkDeliveredRange verifies that each listed node delivered messages
// [from, to) of every sender 1..senders; checkEVS rules out duplicates.
func (h *harness) checkDeliveredRange(senders, from, to int, ids ...wire.ParticipantID) {
	h.t.Helper()
	for _, id := range ids {
		got := h.Node(id).Payloads()
		for s := wire.ParticipantID(1); int(s) <= senders; s++ {
			for i := from; i < to; i++ {
				if !slices.Contains(got, string(payload(s, i))) {
					h.t.Fatalf("node %s never delivered %s", id, payload(s, i))
				}
			}
		}
	}
}

// checkEVS applies the EVS axioms across all nodes and incarnations; with
// quiescent, also end-of-run completeness (only valid once the run has
// settled with no traffic in flight).
func (h *harness) checkEVS(quiescent bool) {
	h.t.Helper()
	if err := h.Check(evscheck.Options{Quiescent: quiescent}); err != nil {
		h.t.Fatalf("EVS violations:\n%v", err)
	}
}

// lastRegularConfig returns the node's most recent regular configuration.
func lastRegularConfig(n *enginetest.Node) (engine.Configuration, bool) {
	evs := n.Events()
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Msg == nil && !evs[i].Transitional {
			return evs[i].Config, true
		}
	}
	return engine.Configuration{}, false
}

// dataFault applies verdict to every data transmission and leaves every
// other frame kind alone; every copy also takes the default link's Delay.
func dataFault(verdict func() faultplan.Verdict) enginetest.Fault {
	return func(_ time.Duration, _, _ wire.ParticipantID, f wire.Frame) faultplan.Verdict {
		var v faultplan.Verdict
		if f.Kind() == wire.KindData {
			v = verdict()
		}
		v.Delay += enginetest.Delay
		return v
	}
}

// lossEvery drops every k-th data transmission.
func lossEvery(k int) enginetest.Fault {
	count := 0
	return dataFault(func() faultplan.Verdict { count++; return faultplan.Verdict{Drop: count%k == 0} })
}

// randomLoss drops data transmissions with probability p from a fixed seed.
func randomLoss(seed int64, p float64) enginetest.Fault {
	rng := rand.New(rand.NewSource(seed))
	return dataFault(func() faultplan.Verdict { return faultplan.Verdict{Drop: rng.Float64() < p} })
}

// partitioned places the nodes of groups in the given groups (all others in
// group 0) and drops every frame across groups; in-group frames go to link,
// when set.
func partitioned(groups map[wire.ParticipantID]int, link enginetest.Fault) enginetest.Fault {
	return func(now time.Duration, from, to wire.ParticipantID, f wire.Frame) faultplan.Verdict {
		if groups[from] != groups[to] {
			return faultplan.Verdict{Drop: true}
		}
		if link != nil {
			return link(now, from, to, f)
		}
		return faultplan.Verdict{Delay: enginetest.Delay}
	}
}
