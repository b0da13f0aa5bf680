package accelring

import (
	"fmt"
	"sync/atomic"
	"time"

	"accelring/internal/core"
	"accelring/internal/daemon/hook"
	"accelring/internal/engine"
	"accelring/internal/transport"
	"accelring/internal/wire"
)

// deadlines holds the engine's timers as deadlines the loop owns: one per
// kind (zero when not armed) and one runtime timer armed at or before the
// earliest. The timer's callback only signals wake, the one timer state
// another goroutine touches; the signal stays in its slot until a pass
// finds nothing due. A fire is not a message, so it cannot go stale: a
// kind an earlier step re-armed or cancelled is simply not due.
type deadlines struct {
	at    [engine.TimerCommit + 1]time.Time // by kind; zero when not armed
	t     *time.Timer
	armed time.Time // when t fires for a deadline; zero when none is left
	wake  chan struct{}
}

func newDeadlines() *deadlines {
	d := &deadlines{wake: make(chan struct{}, 1)}
	d.t = time.AfterFunc(time.Hour, d.signal)
	d.t.Stop()
	return d
}

// signal fills wake's slot if it is empty: the runtime timer's callback,
// and the loop's select putting back the signal it took, for take.
func (d *deadlines) signal() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// set arms kind after the given delay. The runtime timer moves only when
// the new deadline is earlier than the one it is armed for, so a deadline
// that moves later — the token-loss re-arm on every hop — is an array
// write. A timer armed in the past has signalled, or is about to, and the
// loop re-arms it when the wake finds nothing due.
func (d *deadlines) set(kind engine.TimerKind, after time.Duration) {
	at := time.Now().Add(after)
	d.at[kind] = at
	if d.armed.IsZero() || at.Before(d.armed) {
		d.armed = at
		d.t.Reset(after)
	}
}

// cancel disarms kind. The runtime timer is left alone: an early wake
// finds nothing due and re-arms it.
func (d *deadlines) cancel(kind engine.TimerKind) {
	d.at[kind] = time.Time{}
}

// take fires (returns and disarms) the lowest kind due while wake is
// signalled, one per call, so each fire is its own loop pass; with no wake
// it costs a len. The call that finds nothing due drains wake and re-arms
// the runtime timer at the earliest deadline left, if any: with none, the
// timer may wake the loop once more, early and harmlessly.
func (d *deadlines) take() (engine.TimerKind, bool) {
	if len(d.wake) == 0 {
		return 0, false
	}
	now := time.Now()
	var next time.Time
	for k := engine.TimerTokenLoss; k <= engine.TimerCommit; k++ {
		switch at := d.at[k]; {
		case at.IsZero():
		case !now.Before(at):
			d.at[k] = time.Time{}
			return k, true
		case next.IsZero() || at.Before(next):
			next = at
		}
	}
	<-d.wake
	if d.armed = next; !next.IsZero() {
		d.t.Reset(next.Sub(now))
	}
	return 0, false
}

// held is a receive run the loop has taken off a transport channel and
// steps one datagram per pass, where it lies in the run's buffer; the
// buffer goes back to the pool once, after the last. left is the datagrams
// not yet stepped, which Metrics and the watchdog count with the channel's.
type held struct {
	run  transport.Run
	off  int
	left atomic.Int64
}

// pending returns how many of the run's datagrams are not yet stepped.
func (h *held) pending() int { return int(h.left.Load()) }

// hold takes r in hand; the run held before must be spent.
func (h *held) hold(r transport.Run) {
	h.run, h.off = r, 0
	h.left.Store(int64(r.Len()))
}

// step hands the next datagram of the held run to the engine, first taking
// a run off ch if none is in hand (the caller has seen one queued there).
func (n *Node) step(h *held, ch <-chan transport.Run) {
	if h.pending() == 0 {
		h.hold(<-ch)
	}
	var pkt []byte
	pkt, h.off = h.run.Cut(h.off)
	left := h.left.Load() - 1
	h.left.Store(left)
	n.handlePacket(pkt)
	if left == 0 {
		transport.Buffers.Put(h.run.Buf)
		h.run = transport.Run{}
	}
}

// loop is the single protocol goroutine: it owns the engine, and the
// daemon's state when a daemon serves the node (hook). Each pass takes the
// input engine.Pick chooses from what is in hand (the datagrams queued on
// the token and data sockets, a run's rest counting as queued, and the
// entries on the intake with the submissions in hand), as netsim's CPU
// does, then up to SubmitsPerInput more entries; a due timer (after a wake
// here, a scheduled event in netsim) or Close goes first. The one select
// waits when nothing is in hand. The submissions a pass takes are one run
// (submit), a served node's daemon's among them.
func (n *Node) loop(initial []engine.Action) {
	defer func() {
		n.closing.Store(true) // enqueue refuses from here on
		n.timers.t.Stop()
		n.tr.Close()
		close(n.events)
		close(n.done)
		if n.srv != nil {
			n.srv.Stop() // after done: a Post from here on fails
		}
	}()

	n.execute(initial)

	dataCh := n.tr.Data()
	tokenCh := n.tr.Token()

	for !n.closing.Load() {
		p := n.eng.Progress()
		if int64(p.Pending) < n.backlog.Swap(int64(p.Pending)) {
			n.signalRoom() // the last pass made room
		}
		q := engine.Queued{
			Token:   len(tokenCh) + n.tokenRun.pending(),
			Data:    len(dataCh) + n.dataRun.pending(),
			Submits: len(n.inHand) + len(n.intake),
		}
		src, k := engine.Pick(q, p.TokenPriority)
		kind, fired := n.timers.take()
		more := engine.SubmitsPerInput
		switch {
		case fired:
			n.nm.timerFires.Inc()
			n.execute(n.eng.Step(engine.Input{Timer: kind}))
		case src == engine.SourceToken:
			n.step(&n.tokenRun, tokenCh)
		case src == engine.SourceData:
			n.step(&n.dataRun, dataCh)
		case src == engine.SourceSubmits:
			more += k // Pick's quota, then the per-input one
		default:
			select {
			case r, ok := <-dataCh:
				if !ok {
					return
				}
				n.dataRun.hold(r)
				n.step(&n.dataRun, dataCh)
			case r, ok := <-tokenCh:
				if !ok {
					return
				}
				n.tokenRun.hold(r)
				n.step(&n.tokenRun, tokenCh)
			case <-n.timers.wake:
				n.timers.signal() // kept for take: the due kinds fire from the next pass
			case e := <-n.intake:
				n.take(e)
				more = engine.SubmitQuota - 1
			case <-n.stopCh:
				return
			}
		}
		for ; more > 0 && len(n.intake) > 0; more-- {
			n.take(<-n.intake)
		}
		if len(n.inHand) > 0 {
			n.submit()
		}
	}
}

// submit steps the submissions in hand as one run: each one's actions are
// appended in order to the loop-owned runActs — copied, because an engine
// may reuse the slice it returns — and the run is executed once, so its
// consecutive data frames leave as one Multicast. The run's reservations
// are released only after the engine's grown backlog is stored, so Submit
// never sees room the engine lacks. The engine should never refuse a
// submission Submit accepted; if it does, the refusal is counted and
// recorded like any loop error.
func (n *Node) submit() {
	run := n.runActs[:0]
	for _, e := range n.inHand {
		actions, err := n.eng.Submit(e.payload, e.service)
		if err != nil {
			n.nm.submitErrors.Inc()
			n.noteErr(err)
		} else {
			n.nm.submits.Inc()
		}
		run = append(run, actions...)
	}
	taken := int64(len(n.inHand))
	clear(n.inHand)
	n.inHand = n.inHand[:0]
	n.backlog.Store(int64(n.eng.Progress().Pending))
	n.reserved.Add(-taken)
	n.execute(run)
	clear(run)
	n.runActs = run[:0]
}

// handlePacket decodes one datagram where it lies and feeds it to the
// engine. No frame the decoder returns aliases pkt (wire.Decoder), so the
// buffer holding it may be recycled once this returns.
func (n *Node) handlePacket(pkt []byte) {
	f, err := n.dec.Decode(pkt)
	if err != nil {
		n.nm.decodeFailures.Inc()
		n.noteErr(fmt.Errorf("accelring: bad packet: %w", err))
		return
	}
	kind := f.Kind()
	n.nm.pkts[kind].Inc()
	if kind != wire.KindToken {
		n.execute(n.eng.Step(engine.Input{Frame: f}))
		return
	}
	// Token rotation time is the interval between consecutive accepted
	// tokens (duplicates filtered by the engine do not count); token
	// handle time is the full cost of processing one, through action
	// execution.
	start := time.Now()
	before := n.eng.Progress().Rotations
	actions := n.eng.Step(engine.Input{Frame: f})
	if n.eng.Progress().Rotations == before {
		n.execute(actions)
		return
	}
	if !n.lastTokenAt.IsZero() {
		n.nm.tokenRotation.Observe(start.Sub(n.lastTokenAt))
	}
	n.lastTokenAt = start
	n.execute(actions)
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
func (n *Node) execute(actions []engine.Action) {
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
			if n.srv != nil {
				n.srv.Deliver(act.Msg.PID, act.Msg.Service, act.Msg.Payload)
				n.nm.eventsDelivered.Inc()
				continue
			}
			n.deliver(Message{
				Sender:  act.Msg.PID,
				Service: act.Msg.Service,
				Payload: act.Msg.Payload,
			})
		case engine.DeliverConfig:
			if n.srv != nil {
				n.srv.Configure(act.Config, act.Transitional)
				n.nm.eventsDelivered.Inc()
				continue
			}
			n.deliver(ConfigChange{Config: act.Config, Transitional: act.Transitional})
		case engine.SetTimer:
			n.timers.set(act.Kind, act.After)
		case engine.CancelTimer:
			n.nm.timerCancels.Inc()
			n.timers.cancel(act.Kind)
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
// stopped): ordered events must never be dropped. The send is tried alone
// first, one channel lock; the rest matters only when it would block.
// While it waits, deliver takes the intake: an application may submit, or
// ask for Metrics, from the goroutine that drains Events, and neither may
// wait on the other. A submission goes into hand, for the loop to step
// next; a stats request is answered; an attachment makes the daemon the
// node's server, which then gets ev after the events queued before it.
func (n *Node) deliver(ev Event) {
	select {
	case n.events <- ev:
		n.nm.eventsDelivered.Inc()
		return
	default:
	}
	for {
		select {
		case n.events <- ev:
			n.nm.eventsDelivered.Inc()
			return
		case e := <-n.intake:
			if n.take(e); n.srv != nil {
				n.handOver(ev)
				n.nm.eventsDelivered.Inc()
				return
			}
		case <-n.stopCh:
			return
		}
	}
}

// handOver gives the server an event the loop had meant for Events.
func (n *Node) handOver(ev Event) {
	switch ev := ev.(type) {
	case Message:
		n.srv.Deliver(ev.Sender, ev.Service, ev.Payload)
	case ConfigChange:
		n.srv.Configure(ev.Config, ev.Transitional)
	}
}

// entry is one request on the intake, the loop's one input queue from the
// process's other goroutines. With in nil it is a submission (payload and
// service: Submit, served.Submit); otherwise in is a stats request (a chan
// core.Snapshot: Metrics), an *attachment (hook.Attach) or a daemon's
// input (hook.Ring.Post). submits is the room reserved for it.
type entry struct {
	payload []byte
	service Service
	in      any
	submits int
}

// intakeCap is the capacity of the intake: what the daemon's input queue
// held before it became the intake. A session reader has at most one burst
// queued, so 256 readers post without blocking, and a stats request waits
// behind at most 256 entries.
const intakeCap = 256

// enqueue puts e on the intake, or reports false once the node is closing,
// giving back the room reserved for it. The send is tried alone first, one
// channel lock; done matters only when the intake is full. closing is
// checked first: a select between a free slot and a closed done would pick
// either.
func (n *Node) enqueue(e entry) bool {
	if !n.closing.Load() {
		select {
		case n.intake <- e:
			return true
		default:
		}
		select {
		case n.intake <- e:
			return true
		case <-n.done:
		}
	}
	n.reserved.Add(-int64(e.submits))
	return false
}

// take carries out one entry off the intake. A submission joins the hand,
// its room held until it is stepped; a stats request is answered; a
// daemon's input goes to the server, which spends the entry's room as it
// submits (credit), and what it did not spend is given back; an attachment
// makes its daemon the node's server, and the events the loop queued on
// Events before it go to the new server first.
func (n *Node) take(e entry) {
	switch in := e.in.(type) {
	case nil:
		n.inHand = append(n.inHand, e)
		return
	case chan core.Snapshot:
		in <- n.eng.Snapshot()
		return
	case *attachment:
		n.srv = in.srv
		n.srv.Start((*served)(n))
		for len(n.events) > 0 {
			n.handOver(<-n.events)
		}
		close(in.started)
	default:
		n.credit = e.submits
		n.srv.Serve(in)
		e.submits, n.credit = n.credit, 0
	}
	n.nm.inputs.Inc()
	if e.submits > 0 {
		n.reserved.Add(-int64(e.submits))
		n.signalRoom()
	}
}

// attachment asks the loop to make srv the node's server (hook.Attach).
type attachment struct {
	srv     hook.Server
	started chan struct{}
}

// attach posts an attachment and waits for the loop to start the server.
func (n *Node) attach(srv hook.Server) error {
	a := &attachment{srv: srv, started: make(chan struct{})}
	if !n.post(a, 0) {
		return ErrClosed
	}
	select {
	case <-a.started:
		return nil
	case <-n.done:
		return ErrClosed
	}
}

// post queues in for the loop (hook.Ring.Post) once room for submits is
// reserved. A post that submits nothing holds one unit of room, past the
// client bound, while it is queued, so reserved alone counts what the loop
// owes (PendingSubmits); the input may spend it as the one it reserved.
func (n *Node) post(in any, submits int) bool {
	if submits == 0 {
		submits = 1
		n.reserved.Add(1)
	} else if !n.reserveWait(int64(submits)) {
		return false
	}
	return n.enqueue(entry{in: in, submits: submits})
}

// reserveWait reserves room for k submissions under the client bound:
// maxPending less the share kept for the daemon's own submissions
// (ownShare). While there is none it waits for the loop's signal that a
// pass made room, or reports false once the loop has exited. The signal
// stays in its slot until a poster takes it, so room made after a poster
// looked is never missed.
func (n *Node) reserveWait(k int64) bool {
	limit := n.maxPending - n.maxPending/ownShare
	if n.reserve(k, limit) {
		return true
	}
	n.nm.postWaits.Inc()
	n.posters.Add(1)
	defer n.posters.Add(-1)
	for !n.reserve(k, limit) {
		select {
		case <-n.room:
		case <-n.done:
			return false
		}
	}
	if n.posters.Load() > 1 {
		n.signalRoom() // pass the wake on: another poster waits and may fit in what is left
	}
	return true
}

// ownShare sets the share of a served node's backlog bound kept for the
// daemon's own submissions: client input is admitted up to maxPending less
// maxPending/ownShare (43 750 of the default 50 000), and a leave or a
// re-announced join goes in past that, so the engine takes it while the
// clients' share is full.
const ownShare = 8

// signalRoom tells a poster waiting in reserveWait that a pass made room:
// it fills room's slot if it is empty, which costs no lock when it is not.
func (n *Node) signalRoom() {
	select {
	case n.room <- struct{}{}:
	default:
	}
}

// served is the node as the daemon it serves sees it (hook.Ring).
type served Node

func (r *served) Post(in any, submits int) bool { return (*Node)(r).post(in, submits) }
func (r *served) Waits() uint64                 { return r.nm.postWaits.Load() }

// Submit spends the applied input's credit, or, with none left, takes room
// past the client bound (ownShare). Either way the submission counts in
// reserved until the loop steps it.
func (r *served) Submit(payload []byte, svc Service) error {
	if err := checkSubmit(payload, svc); err != nil {
		return err
	}
	if r.credit > 0 {
		r.credit--
	} else {
		r.reserved.Add(1)
	}
	r.inHand = append(r.inHand, entry{payload: payload, service: svc})
	return nil
}

func (r *served) Metrics() any { return (*Node)(r).metrics(r.eng.Snapshot()) }

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
