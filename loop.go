package accelring

import (
	"fmt"
	"sync"
	"time"

	"accelring/internal/core"
	"accelring/internal/engine"
	"accelring/internal/metrics"
	"accelring/internal/transport"
	"accelring/internal/wire"
)

// timerSet tracks the runtime's armed timers on behalf of the engine.
//
// Expiries are recorded per kind in a pending map and the loop is woken
// through a one-slot channel, so a current-generation fire can never be
// lost: the pending entry persists until the loop consumes it, no matter
// how busy the loop is. (The earlier design pushed fires through a bounded
// channel and dropped on overflow — a burst of stale fires could then
// swallow a valid token-loss expiry and stall failure detection until some
// unrelated packet arrived.) The generation number invalidates expiries of
// timers that were re-armed or cancelled after the expiry was recorded.
type timerSet struct {
	wake chan struct{}

	mu      sync.Mutex
	gens    map[engine.TimerKind]uint64
	timers  map[engine.TimerKind]*armedTimer
	pending map[engine.TimerKind]uint64 // kind → generation of an unconsumed fire

	stale *metrics.Counter // expiries discarded as stale (never nil)
}

// armedTimer is a runtime timer and the generation its next expiry stands
// for (guarded by timerSet.mu). Holding the generation beside the timer,
// not in the callback's closure, is what lets set re-arm the same timer.
type armedTimer struct {
	t   *time.Timer
	gen uint64
}

func newTimerSet(stale *metrics.Counter) *timerSet {
	if stale == nil {
		stale = &metrics.Counter{}
	}
	return &timerSet{
		wake:    make(chan struct{}, 1),
		gens:    make(map[engine.TimerKind]uint64),
		timers:  make(map[engine.TimerKind]*armedTimer),
		pending: make(map[engine.TimerKind]uint64),
		stale:   stale,
	}
}

func (ts *timerSet) set(kind engine.TimerKind, after time.Duration) {
	ts.mu.Lock()
	ts.gens[kind]++
	gen := ts.gens[kind]
	if _, ok := ts.pending[kind]; ok {
		// An unconsumed fire of the previous generation is stale now.
		delete(ts.pending, kind)
		ts.stale.Inc()
	}
	if a := ts.timers[kind]; a != nil && a.t.Stop() {
		// The common case, twice per token hop: re-armed long before
		// expiry. Stop prevented the callback, so nothing else reads a.gen
		// until the Reset below fires.
		a.gen = gen
		a.t.Reset(after)
	} else {
		// No timer yet, or its callback may already be running with the
		// old generation still to read: leave that one to go stale.
		fresh := &armedTimer{gen: gen}
		fresh.t = time.AfterFunc(after, func() { ts.fire(kind, fresh) })
		ts.timers[kind] = fresh
	}
	ts.mu.Unlock()
}

func (ts *timerSet) cancel(kind engine.TimerKind) {
	ts.mu.Lock()
	ts.gens[kind]++
	if a, ok := ts.timers[kind]; ok {
		a.t.Stop()
		delete(ts.timers, kind)
	}
	if _, ok := ts.pending[kind]; ok {
		delete(ts.pending, kind)
		ts.stale.Inc()
	}
	ts.mu.Unlock()
}

// fire records an expiry and wakes the loop. Runs on the timer goroutine.
func (ts *timerSet) fire(kind engine.TimerKind, a *armedTimer) {
	ts.mu.Lock()
	gen := a.gen
	if ts.gens[kind] != gen {
		ts.mu.Unlock()
		ts.stale.Inc()
		return
	}
	ts.pending[kind] = gen
	ts.mu.Unlock()
	select {
	case ts.wake <- struct{}{}:
	default: // already signalled; the pending entry is what matters
	}
}

// takeOne removes and returns one still-current pending fire, validating
// freshness at consumption time (an earlier fire's engine step may have
// re-armed a kind that is also pending). It scans the fixed kind range in
// ascending order: the lowest kind goes first, so multi-fire draining is
// deterministic, and taking a fire allocates nothing.
func (ts *timerSet) takeOne() (engine.TimerKind, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for k := engine.TimerTokenLoss; k <= engine.TimerCommit && len(ts.pending) > 0; k++ {
		if gen, ok := ts.pending[k]; ok {
			delete(ts.pending, k)
			if ts.gens[k] == gen {
				return k, true
			}
			ts.stale.Inc()
		}
	}
	return 0, false
}

// pendingFires counts expiries recorded but not yet consumed by the loop
// — work the loop owes. The watchdog reads it from outside the protocol
// goroutine.
func (ts *timerSet) pendingFires() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.pending)
}

func (ts *timerSet) stopAll() {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, a := range ts.timers {
		a.t.Stop()
	}
}

// loop is the single protocol goroutine: it owns the engine. Each pass takes
// the input engine.Pick chooses from what is in hand (the frames queued on
// the token and data sockets, the queued submissions), as netsim's CPU does,
// then up to SubmitsPerInput more submissions; a timer fire (the wake
// channel here, driver events in netsim), a stats request or Close goes
// first. The one select waits when nothing is in hand.
func (n *Node) loop(eng core.OrderingEngine, initial []engine.Action) {
	ts := n.timers
	defer func() {
		ts.stopAll()
		n.tr.Close()
		close(n.events)
		close(n.done)
	}()

	n.execute(ts, initial)

	dataCh := n.tr.Data()
	tokenCh := n.tr.Token()

	for !n.closing.Load() {
		q := engine.Queued{Token: len(tokenCh), Data: len(dataCh), Submits: len(n.submitCh)}
		src, k := engine.Pick(q, eng.Progress().TokenPriority)
		kind, fired := ts.takeOne()
		submits := engine.SubmitsPerInput
		switch {
		case fired:
			n.nm.timerFires.Inc()
			n.execute(ts, eng.Step(engine.Input{Timer: kind}))
		case len(n.statsCh) > 0:
			(<-n.statsCh) <- eng.Snapshot()
		case src == engine.SourceToken:
			n.handlePacket(eng, ts, <-tokenCh)
		case src == engine.SourceData:
			n.handlePacket(eng, ts, <-dataCh)
		case src == engine.SourceSubmits:
			submits += k // Pick's quota, then the per-input one
		default:
			select {
			case pkt, ok := <-dataCh:
				if !ok {
					return
				}
				n.handlePacket(eng, ts, pkt)
			case pkt, ok := <-tokenCh:
				if !ok {
					return
				}
				n.handlePacket(eng, ts, pkt)
			case <-ts.wake: // the recorded fire is taken on the next pass
			case req := <-n.submitCh:
				n.submit(eng, ts, req)
			case ch := <-n.statsCh:
				ch <- eng.Snapshot()
			case <-n.stopCh:
				return
			}
		}
		for ; submits > 0 && len(n.submitCh) > 0; submits-- {
			n.submit(eng, ts, <-n.submitCh)
		}
	}
}

// submit hands one submission to the engine and answers its submitter.
func (n *Node) submit(eng core.OrderingEngine, ts *timerSet, req submitReq) {
	actions, err := eng.Submit(req.payload, req.service)
	if err != nil {
		n.nm.submitErrors.Inc()
	} else {
		n.nm.submits.Inc()
	}
	req.errCh <- err
	n.execute(ts, actions)
}

// handlePacket decodes one packet and feeds it to the engine. The packet
// buffer is returned to the shared pool on exit — the built-in transports
// hand the loop pooled buffers, and no frame the decoder returns aliases
// pkt (wire.Decoder) — so recycling here is safe and closes the
// Get-per-receive / Put-per-dispatch cycle that keeps the hot path
// allocation-free.
func (n *Node) handlePacket(eng core.OrderingEngine, ts *timerSet, pkt []byte) {
	defer transport.Buffers.Put(pkt)
	f, err := n.dec.Decode(pkt)
	if err != nil {
		n.nm.decodeFailures.Inc()
		n.noteErr(fmt.Errorf("accelring: bad packet: %w", err))
		return
	}
	kind := f.Kind()
	n.nm.pkts[kind].Inc()
	if kind != wire.KindToken {
		n.execute(ts, eng.Step(engine.Input{Frame: f}))
		return
	}
	// Token rotation time is the interval between consecutive accepted
	// tokens (duplicates filtered by the engine do not count); token
	// handle time is the full cost of processing one, through action
	// execution.
	start := time.Now()
	before := eng.Progress().Rotations
	actions := eng.Step(engine.Input{Frame: f})
	if eng.Progress().Rotations == before {
		n.execute(ts, actions)
		return
	}
	if !n.lastTokenAt.IsZero() {
		n.nm.tokenRotation.Observe(start.Sub(n.lastTokenAt))
	}
	n.lastTokenAt = start
	n.execute(ts, actions)
	n.nm.tokenHandle.Observe(time.Since(start))
}

// execute carries out engine actions in order.
//
// Every maximal run of consecutive SendData actions goes to the transport
// as one Multicast vector. The engine emits exactly such runs at token
// hand-off — the pre-token retransmission+window run, and the post-token
// accelerated flush of up to AcceleratedWindow frames that overlaps with
// the successor's round — and the token Send between them is its own
// action, so the run boundaries put the token on the wire where the
// protocol wants it. A lone SendData is a run of one.
func (n *Node) execute(ts *timerSet, actions []engine.Action) {
	for i := 0; i < len(actions); i++ {
		switch act := actions[i].(type) {
		case engine.SendData:
			j := i + 1
			for j < len(actions) {
				if _, ok := actions[j].(engine.SendData); !ok {
					break
				}
				j++
			}
			n.sendData(actions[i:j])
			i = j - 1
		case engine.Send:
			n.send(act.To, act.Frame)
		case engine.Deliver:
			n.deliver(Message{
				Sender:  act.Msg.PID,
				Service: act.Msg.Service,
				Payload: act.Msg.Payload,
			})
		case engine.DeliverConfig:
			n.deliver(ConfigChange{Config: act.Config, Transitional: act.Transitional})
		case engine.SetTimer:
			ts.set(act.Kind, act.After)
		case engine.CancelTimer:
			n.nm.timerCancels.Inc()
			ts.cancel(act.Kind)
		}
	}
}

// send encodes one control-plane frame (token, join, commit, engine
// control) into the node's reused scratch buffer and transmits it: unicast
// to a participant, or — when to is zero — multicast as a vector of one.
// The Transport contract says sends borrow their packets only for the
// duration of the call, so the scratch is free again by the time the next
// action encodes.
func (n *Node) send(to wire.ParticipantID, f wire.Frame) {
	pkt, err := f.AppendTo(n.encBuf[:0])
	if err != nil {
		n.nm.encodeFailures.Inc()
		n.noteErr(err)
		return
	}
	n.encBuf = pkt
	if to == 0 {
		n.encVec[0] = pkt
		err = n.tr.Multicast(n.encVec[:])
	} else {
		err = n.tr.Unicast(to, pkt)
	}
	if err != nil {
		n.nm.sendFailures.Inc()
		n.noteErr(err)
	}
}

// sendData encodes a run of SendData actions and flushes it with one
// Multicast call. Every packet must stay valid until the call returns, so
// each frame gets its own pooled buffer, borrowed for the duration of the
// call and recycled immediately after. Encode failures skip that frame;
// the rest of the run still goes out.
func (n *Node) sendData(run []engine.Action) {
	n.burstBufs = transport.Buffers.GetBatch(n.burstBufs[:0], len(run))
	pkts := n.burstPkts[:0]
	for k, a := range run {
		act := a.(engine.SendData)
		pkt, err := wire.AppendData(n.burstBufs[k][:0], act.Msg)
		if err != nil {
			n.nm.encodeFailures.Inc()
			n.noteErr(err)
			continue
		}
		n.burstBufs[k] = pkt[:cap(pkt)]
		pkts = append(pkts, pkt)
	}
	if len(pkts) > 0 {
		if err := n.tr.Multicast(pkts); err != nil {
			n.nm.sendFailures.Inc()
			n.noteErr(err)
		}
		n.nm.sendBursts.Inc()
		n.nm.sendBurstMsgs.Add(uint64(len(pkts)))
	}
	transport.Buffers.PutBatch(n.burstBufs)
	n.burstBufs = n.burstBufs[:0]
	for k := range pkts {
		pkts[k] = nil
	}
	n.burstPkts = pkts[:0]
}

// deliver blocks until the application accepts the event (or the node is
// stopped): ordered events must never be dropped.
func (n *Node) deliver(ev Event) {
	select {
	case n.events <- ev:
		n.nm.eventsDelivered.Inc()
	case <-n.stopCh:
	}
}

// errRingCap bounds the recent-error ring. A burst of decode or send
// failures stays visible (count plus the most recent instances) instead of
// collapsing into one overwritten slot.
const errRingCap = 16

func (n *Node) noteErr(err error) {
	n.nm.errors.Inc()
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.errs) < errRingCap {
		n.errs = append(n.errs, err)
		return
	}
	n.errs[n.errHead] = err
	n.errHead = (n.errHead + 1) % errRingCap
}
