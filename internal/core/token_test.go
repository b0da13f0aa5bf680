package core

import (
	"testing"

	"accelring/internal/engine"
	"accelring/internal/flowctl"
	"accelring/internal/wire"
)

// newMember builds an operational engine that is participant `id` of a
// static ring [1..n], without injecting a token (use id != 1 so the engine
// just waits for tokens we hand-craft).
func newMember(t *testing.T, id wire.ParticipantID, n int, cfg Config) *Engine {
	t.Helper()
	cfg.MyID = id
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]wire.ParticipantID, 0, n)
	for i := 1; i <= n; i++ {
		members = append(members, wire.ParticipantID(i))
	}
	if _, err := eng.Start(members); err != nil {
		t.Fatal(err)
	}
	return eng
}

// ringToken builds a token for the engine's current ring.
func ringToken(e *Engine, tokenSeq uint64, round wire.Round, seq, aru wire.Seq) *wire.Token {
	return &wire.Token{
		RingID:   e.ring.ID,
		TokenSeq: tokenSeq,
		Round:    round,
		Seq:      seq,
		ARU:      aru,
	}
}

// actionsByType splits an action list for inspection.
func findToken(actions []engine.Action) (*wire.Token, int) {
	for i, a := range actions {
		if st, ok := a.(engine.Send); ok {
			if tok, ok := st.Frame.(*wire.Token); ok {
				return tok, i
			}
		}
	}
	return nil, -1
}

func dataSends(actions []engine.Action) []engine.SendData {
	var out []engine.SendData
	for _, a := range actions {
		if sd, ok := a.(engine.SendData); ok {
			out = append(out, sd)
		}
	}
	return out
}

func deliveries(actions []engine.Action) []engine.Deliver {
	var out []engine.Deliver
	for _, a := range actions {
		if d, ok := a.(engine.Deliver); ok {
			out = append(out, d)
		}
	}
	return out
}

func mustSubmit(t *testing.T, e *Engine, n int, svc wire.Service) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := e.Submit(payload(e.cfg.MyID, i), svc); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTokenSplitsPreAndPostPhases(t *testing.T) {
	cfg := Config{
		Flow: flowctl.Config{PersonalWindow: 50, GlobalWindow: 200, AcceleratedWindow: 3, MaxSeqGap: 1000}}
	e := newMember(t, 2, 3, cfg)
	mustSubmit(t, e, 10, wire.ServiceAgreed)

	actions := e.Step(engine.Input{Frame: ringToken(e, 5, 1, 0, 0)})
	tok, ti := findToken(actions)
	if tok == nil {
		t.Fatal("no token forwarded")
	}
	sends := dataSends(actions)
	if len(sends) != 10 {
		t.Fatalf("sent %d messages, want 10", len(sends))
	}
	pre, post := 0, 0
	for i, a := range actions {
		sd, ok := a.(engine.SendData)
		if !ok {
			continue
		}
		if i < ti {
			pre++
			if sd.Msg.PostToken {
				t.Fatal("pre-token message carries PostToken flag")
			}
		} else {
			post++
			if !sd.Msg.PostToken {
				t.Fatal("post-token message missing PostToken flag")
			}
		}
	}
	if pre != 7 || post != 3 {
		t.Fatalf("pre/post = %d/%d, want 7/3", pre, post)
	}
	if tok.Seq != 10 {
		t.Fatalf("token seq = %d, want 10 (reflects post-token messages too)", tok.Seq)
	}
}

func TestTokenAllWithinAcceleratedWindow(t *testing.T) {
	cfg := Config{
		Flow: flowctl.Config{PersonalWindow: 50, GlobalWindow: 200, AcceleratedWindow: 5, MaxSeqGap: 1000}}
	e := newMember(t, 2, 3, cfg)
	mustSubmit(t, e, 4, wire.ServiceAgreed)

	actions := e.Step(engine.Input{Frame: ringToken(e, 5, 1, 0, 0)})
	_, ti := findToken(actions)
	for i, a := range actions {
		if _, ok := a.(engine.SendData); ok && i < ti {
			t.Fatal("messages within the accelerated window must all go post-token")
		}
	}
	if got := len(dataSends(actions)); got != 4 {
		t.Fatalf("sent %d, want 4", got)
	}

	// A burst of retransmission requests nobody can answer leaves the
	// window alone: with more pending than it holds, the post-token flush
	// is still exactly AcceleratedWindow messages.
	e = newMember(t, 2, 3, cfg)
	mustSubmit(t, e, 10, wire.ServiceAgreed)
	tok := ringToken(e, 5, 1, 100, 0)
	for s := wire.Seq(1); s <= 10; s++ {
		tok.RTR = append(tok.RTR, s)
	}
	actions = e.Step(engine.Input{Frame: tok})
	_, ti = findToken(actions)
	if ti < 0 {
		t.Fatal("no token forwarded")
	}
	if got := len(dataSends(actions[ti+1:])); got != 5 {
		t.Fatalf("post-token flush after an RTR burst = %d messages, want 5", got)
	}
}

func TestOriginalProtocolSendsAllPreToken(t *testing.T) {
	e := newMember(t, 2, 3, OriginalRing(Config{}))
	mustSubmit(t, e, 10, wire.ServiceAgreed)

	actions := e.Step(engine.Input{Frame: ringToken(e, 5, 1, 0, 0)})
	_, ti := findToken(actions)
	for i, a := range actions {
		if _, ok := a.(engine.SendData); ok && i > ti {
			t.Fatal("original protocol multicast after forwarding the token")
		}
	}
	if got := len(dataSends(actions)); got != 10 {
		t.Fatalf("sent %d, want 10", got)
	}
}

func TestTokenForwardedToSuccessor(t *testing.T) {
	e := newMember(t, 2, 3, accelConfig())
	actions := e.Step(engine.Input{Frame: ringToken(e, 5, 1, 0, 0)})
	for _, a := range actions {
		if st, ok := a.(engine.Send); ok {
			if st.To != 3 {
				t.Fatalf("token sent to %s, want 3", st.To)
			}
			return
		}
	}
	t.Fatal("no token forwarded")
}

func TestLastMemberWrapsToRepresentative(t *testing.T) {
	e := newMember(t, 3, 3, accelConfig())
	actions := e.Step(engine.Input{Frame: ringToken(e, 5, 2, 0, 0)})
	tok, _ := findToken(actions)
	for _, a := range actions {
		if st, ok := a.(engine.Send); ok && st.To != 1 {
			t.Fatalf("token sent to %s, want 1", st.To)
		}
	}
	if tok == nil {
		t.Fatal("no token forwarded")
	}
}

func TestDuplicateTokenDiscarded(t *testing.T) {
	e := newMember(t, 2, 3, accelConfig())
	if got := e.Step(engine.Input{Frame: ringToken(e, 5, 1, 0, 0)}); len(got) == 0 {
		t.Fatal("first token produced no actions")
	}
	if got := e.Step(engine.Input{Frame: ringToken(e, 5, 1, 0, 0)}); got != nil {
		t.Fatalf("duplicate token produced %d actions", len(got))
	}
	if e.Snapshot().Stats.TokensDuplicate != 1 {
		t.Fatalf("TokensDuplicate = %d, want 1", e.Snapshot().Stats.TokensDuplicate)
	}
}

func TestForeignTokenIgnored(t *testing.T) {
	e := newMember(t, 2, 3, accelConfig())
	tok := ringToken(e, 5, 1, 0, 0)
	tok.RingID = wire.RingID{Rep: 9, Seq: 99}
	if got := e.Step(engine.Input{Frame: tok}); got != nil {
		t.Fatalf("foreign token produced %d actions", len(got))
	}
}

func TestTokenSeqAndRoundAdvance(t *testing.T) {
	e := newMember(t, 2, 3, accelConfig())
	actions := e.Step(engine.Input{Frame: ringToken(e, 5, 7, 0, 0)})
	tok, _ := findToken(actions)
	if tok.TokenSeq != 6 {
		t.Fatalf("forwarded TokenSeq = %d, want 6", tok.TokenSeq)
	}
	if tok.Round != 8 {
		t.Fatalf("forwarded Round = %d, want 8", tok.Round)
	}
}

func TestRetransmissionAnsweredPreToken(t *testing.T) {
	e := newMember(t, 2, 3, accelConfig())
	// Receive message 1 from node 3 so we can answer a request for it.
	m := &wire.DataMessage{RingID: e.ring.ID, Seq: 1, PID: 3, Round: 1, Service: wire.ServiceAgreed, Payload: []byte("x")}
	e.Step(engine.Input{Frame: m})

	tok := ringToken(e, 5, 3, 1, 0)
	tok.RTR = []wire.Seq{1}
	actions := e.Step(engine.Input{Frame: tok})
	_, ti := findToken(actions)
	sends := dataSends(actions)
	if len(sends) != 1 || !sends[0].Msg.Retrans || sends[0].Msg.Seq != 1 {
		t.Fatalf("expected one retransmission of seq 1, got %+v", sends)
	}
	for i, a := range actions {
		if sd, ok := a.(engine.SendData); ok && sd.Msg.Retrans && i > ti {
			t.Fatal("retransmission sent after the token")
		}
	}
	out, _ := findToken(actions)
	if len(out.RTR) != 0 {
		t.Fatalf("answered request still on token: %v", out.RTR)
	}
	if e.Snapshot().Stats.MsgsRetransmitted != 1 {
		t.Fatalf("MsgsRetransmitted = %d, want 1", e.Snapshot().Stats.MsgsRetransmitted)
	}
}

func TestUnansweredRequestStaysOnToken(t *testing.T) {
	e := newMember(t, 2, 3, accelConfig())
	tok := ringToken(e, 5, 3, 2, 0)
	tok.RTR = []wire.Seq{1, 2}
	actions := e.Step(engine.Input{Frame: tok})
	out, _ := findToken(actions)
	if len(out.RTR) != 2 {
		t.Fatalf("token RTR = %v, want both requests kept", out.RTR)
	}
}

func TestRTROnlyRequestsUpToPreviousTokenSeq(t *testing.T) {
	// The accelerated protocol's retransmission caution (Section III-A2):
	// gaps up to the *previous* round's token seq may be requested; gaps
	// only covered by the current token's seq may not — those messages may
	// simply not have been sent yet.
	e := newMember(t, 2, 3, accelConfig())

	// Round 1: token says seq=5, we have nothing. prevTokenSeq was 0, so
	// no requests are allowed yet.
	actions := e.Step(engine.Input{Frame: ringToken(e, 5, 1, 5, 0)})
	out, _ := findToken(actions)
	if len(out.RTR) != 0 {
		t.Fatalf("round 1 requested %v; must not request beyond previous token seq", out.RTR)
	}

	// Round 2: token seq=9. Now requests up to 5 (last round's seq) are
	// allowed, but not 6..9.
	actions = e.Step(engine.Input{Frame: ringToken(e, 6, 4, 9, 0)})
	out, _ = findToken(actions)
	want := []wire.Seq{1, 2, 3, 4, 5}
	if len(out.RTR) != len(want) {
		t.Fatalf("round 2 RTR = %v, want %v", out.RTR, want)
	}
	for i, s := range want {
		if out.RTR[i] != s {
			t.Fatalf("round 2 RTR = %v, want %v", out.RTR, want)
		}
	}
	if e.Snapshot().Stats.RTRRequested != 5 {
		t.Fatalf("RTRRequested = %d, want 5", e.Snapshot().Stats.RTRRequested)
	}
}

func TestRTRNoDuplicateRequests(t *testing.T) {
	e := newMember(t, 2, 3, accelConfig())
	e.Step(engine.Input{Frame: ringToken(e, 5, 1, 3, 0)})
	// Someone else already requested 2; we miss 1,2,3 up to prev seq 3.
	tok := ringToken(e, 6, 4, 3, 0)
	tok.RTR = []wire.Seq{2}
	actions := e.Step(engine.Input{Frame: tok})
	out, _ := findToken(actions)
	seen := map[wire.Seq]int{}
	for _, s := range out.RTR {
		seen[s]++
	}
	for s, n := range seen {
		if n > 1 {
			t.Fatalf("seq %d requested %d times", s, n)
		}
	}
	if len(out.RTR) != 3 {
		t.Fatalf("RTR = %v, want 3 distinct requests", out.RTR)
	}
}

func TestARULoweredWhenMissingMessages(t *testing.T) {
	e := newMember(t, 2, 3, accelConfig())
	actions := e.Step(engine.Input{Frame: ringToken(e, 5, 1, 5, 5)})
	out, _ := findToken(actions)
	if out.ARU != 0 {
		t.Fatalf("token ARU = %d, want 0 (we have nothing)", out.ARU)
	}
	if out.ARUID != 2 {
		t.Fatalf("token ARUID = %s, want 2 (we lowered)", out.ARUID)
	}
}

func TestARURaisedByPreviousLowerer(t *testing.T) {
	e := newMember(t, 2, 3, accelConfig())
	// Round 1: lower aru to 0.
	e.Step(engine.Input{Frame: ringToken(e, 5, 1, 5, 5)})
	// We catch up on messages 1..5.
	for s := wire.Seq(1); s <= 5; s++ {
		e.Step(engine.Input{Frame: &wire.DataMessage{RingID: e.ring.ID, Seq: s, PID: 3, Round: 1, Service: wire.ServiceAgreed}})
	}
	// Round 2: aru still held down by us; we must raise it.
	tok := ringToken(e, 6, 4, 5, 0)
	tok.ARUID = 2
	actions := e.Step(engine.Input{Frame: tok})
	out, _ := findToken(actions)
	if out.ARU != 5 {
		t.Fatalf("token ARU = %d, want 5 (raised to local aru)", out.ARU)
	}
	if out.ARUID != 0 {
		t.Fatalf("token ARUID = %s, want cleared", out.ARUID)
	}
}

func TestARURidesWithSeqWhenCaughtUp(t *testing.T) {
	e := newMember(t, 2, 3, accelConfig())
	mustSubmit(t, e, 5, wire.ServiceAgreed)
	actions := e.Step(engine.Input{Frame: ringToken(e, 5, 1, 0, 0)})
	out, _ := findToken(actions)
	if out.Seq != 5 {
		t.Fatalf("token seq = %d, want 5", out.Seq)
	}
	if out.ARU != 5 {
		t.Fatalf("token ARU = %d, want 5 (rides with seq when aru==seq)", out.ARU)
	}
}

func TestARUDoesNotRideWhenBehind(t *testing.T) {
	e := newMember(t, 2, 3, accelConfig())
	mustSubmit(t, e, 5, wire.ServiceAgreed)
	// Received token aru (2) != seq (4): aru must not jump with our sends.
	// We hold 1..2 only.
	for s := wire.Seq(1); s <= 2; s++ {
		e.Step(engine.Input{Frame: &wire.DataMessage{RingID: e.ring.ID, Seq: s, PID: 3, Round: 1, Service: wire.ServiceAgreed}})
	}
	actions := e.Step(engine.Input{Frame: ringToken(e, 5, 1, 4, 2)})
	out, _ := findToken(actions)
	if out.Seq != 9 {
		t.Fatalf("token seq = %d, want 9", out.Seq)
	}
	if out.ARU != 2 {
		t.Fatalf("token ARU = %d, want 2", out.ARU)
	}
}

func TestFCCAccounting(t *testing.T) {
	e := newMember(t, 2, 3, accelConfig())
	mustSubmit(t, e, 8, wire.ServiceAgreed)
	actions := e.Step(engine.Input{Frame: ringToken(e, 5, 1, 0, 0)})
	out, _ := findToken(actions)
	if out.FCC != 8 {
		t.Fatalf("round 1 FCC = %d, want 8", out.FCC)
	}
	// Round 2: incoming fcc 20 (8 of which are ours from last round); we
	// send 3 new.
	mustSubmit(t, e, 3, wire.ServiceAgreed)
	tok := ringToken(e, 6, 4, 20, 0)
	tok.FCC = 20
	actions = e.Step(engine.Input{Frame: tok})
	out, _ = findToken(actions)
	if out.FCC != 15 {
		t.Fatalf("round 2 FCC = %d, want 20-8+3 = 15", out.FCC)
	}
}

func TestPersonalWindowLimitsRound(t *testing.T) {
	cfg := Config{
		Flow: flowctl.Config{PersonalWindow: 4, GlobalWindow: 100, AcceleratedWindow: 2, MaxSeqGap: 500}}
	e := newMember(t, 2, 3, cfg)
	mustSubmit(t, e, 50, wire.ServiceAgreed)
	actions := e.Step(engine.Input{Frame: ringToken(e, 5, 1, 0, 0)})
	if got := len(dataSends(actions)); got != 4 {
		t.Fatalf("sent %d, want personal window 4", got)
	}
	if e.Progress().Pending != 46 {
		t.Fatalf("pending = %d, want 46", e.Progress().Pending)
	}
}

func TestGlobalWindowLimitsRound(t *testing.T) {
	cfg := Config{
		Flow: flowctl.Config{PersonalWindow: 50, GlobalWindow: 60, AcceleratedWindow: 5, MaxSeqGap: 500}}
	e := newMember(t, 2, 3, cfg)
	mustSubmit(t, e, 50, wire.ServiceAgreed)
	tok := ringToken(e, 5, 1, 100, 100)
	tok.FCC = 55
	actions := e.Step(engine.Input{Frame: tok})
	if got := len(dataSends(actions)); got != 5 {
		t.Fatalf("sent %d, want 60-55 = 5", got)
	}
}

func TestSeqGapLimitsRound(t *testing.T) {
	cfg := Config{
		Flow: flowctl.Config{PersonalWindow: 50, GlobalWindow: 100, AcceleratedWindow: 5, MaxSeqGap: 100}}
	e := newMember(t, 2, 3, cfg)
	mustSubmit(t, e, 50, wire.ServiceAgreed)
	// Token aru is 0 after we lower it (we hold nothing of 1..95), so the
	// gap budget is 0+100-95 = 5.
	actions := e.Step(engine.Input{Frame: ringToken(e, 5, 1, 95, 95)})
	if got := len(dataSends(actions)); got != 5 {
		t.Fatalf("sent %d, want gap budget 5", got)
	}
}

func TestAgreedDeliveredImmediatelyWhenContiguous(t *testing.T) {
	e := newMember(t, 2, 3, accelConfig())
	mustSubmit(t, e, 3, wire.ServiceAgreed)
	actions := e.Step(engine.Input{Frame: ringToken(e, 5, 1, 0, 0)})
	if got := len(deliveries(actions)); got != 3 {
		t.Fatalf("delivered %d own messages, want 3", got)
	}
}

func TestSafeNotDeliveredUntilStable(t *testing.T) {
	e := newMember(t, 2, 3, accelConfig())
	mustSubmit(t, e, 3, wire.ServiceSafe)
	actions := e.Step(engine.Input{Frame: ringToken(e, 5, 1, 0, 0)})
	if got := len(deliveries(actions)); got != 0 {
		t.Fatalf("delivered %d safe messages without stability, want 0", got)
	}
	// Next round: the token comes back with aru == seq == 3 (everyone got
	// them). Safe bound becomes min(3, 3) = 3 → deliverable.
	actions = e.Step(engine.Input{Frame: ringToken(e, 6, 4, 3, 3)})
	if got := len(deliveries(actions)); got != 3 {
		t.Fatalf("delivered %d, want 3 after stability", got)
	}
}

func TestSafeBoundIsMinOfTwoRounds(t *testing.T) {
	e := newMember(t, 2, 3, accelConfig())
	mustSubmit(t, e, 2, wire.ServiceSafe)
	// Round 1: we send 2; aru rides to 2 (sent aru=2). safeBound =
	// min(2, aruSentLast=0) = 0.
	e.Step(engine.Input{Frame: ringToken(e, 5, 1, 0, 0)})
	if e.safeBound != 0 {
		t.Fatalf("safeBound = %d, want 0 after one round", e.safeBound)
	}
	// Round 2: token back with aru=seq=2: safeBound = min(2, 2) = 2.
	actions := e.Step(engine.Input{Frame: ringToken(e, 6, 4, 2, 2)})
	if e.safeBound != 2 {
		t.Fatalf("safeBound = %d, want 2", e.safeBound)
	}
	if got := len(deliveries(actions)); got != 2 {
		t.Fatalf("delivered %d, want 2", got)
	}
}

func TestStableMessagesDiscarded(t *testing.T) {
	e := newMember(t, 2, 3, accelConfig())
	mustSubmit(t, e, 3, wire.ServiceAgreed)
	e.Step(engine.Input{Frame: ringToken(e, 5, 1, 0, 0)})
	e.Step(engine.Input{Frame: ringToken(e, 6, 4, 3, 3)})
	if e.buf.Len() != 0 {
		t.Fatalf("buffer holds %d messages after stability, want 0", e.buf.Len())
	}
	if e.Snapshot().Stats.Discarded != 3 {
		t.Fatalf("Discarded = %d, want 3", e.Snapshot().Stats.Discarded)
	}
}

func TestTimerActionsOnToken(t *testing.T) {
	e := newMember(t, 2, 3, accelConfig())
	actions := e.Step(engine.Input{Frame: ringToken(e, 5, 1, 0, 0)})
	var kinds []engine.TimerKind
	for _, a := range actions {
		if st, ok := a.(engine.SetTimer); ok {
			kinds = append(kinds, st.Kind)
		}
	}
	hasLoss, hasRetrans := false, false
	for _, k := range kinds {
		if k == engine.TimerTokenLoss {
			hasLoss = true
		}
		if k == engine.TimerTokenRetrans {
			hasRetrans = true
		}
	}
	if !hasLoss || !hasRetrans {
		t.Fatalf("token handling armed %v, want token-loss and token-retrans", kinds)
	}
}

func TestTokenRetransTimerResendsSavedToken(t *testing.T) {
	e := newMember(t, 2, 3, accelConfig())
	actions := e.Step(engine.Input{Frame: ringToken(e, 5, 1, 0, 0)})
	sent, _ := findToken(actions)
	retry := e.Step(engine.Input{Timer: engine.TimerTokenRetrans})
	rt, _ := findToken(retry)
	if rt == nil {
		t.Fatal("retransmission timer did not resend the token")
	}
	if rt.TokenSeq != sent.TokenSeq {
		t.Fatalf("retransmitted TokenSeq = %d, want %d (identical token)", rt.TokenSeq, sent.TokenSeq)
	}
	if e.Snapshot().Stats.TokenRetransmits != 1 {
		t.Fatalf("TokenRetransmits = %d, want 1", e.Snapshot().Stats.TokenRetransmits)
	}
}

func TestDownstreamProgressCancelsRetransTimer(t *testing.T) {
	e := newMember(t, 2, 3, accelConfig())
	e.Step(engine.Input{Frame: ringToken(e, 5, 3, 0, 0)}) // we process round 4
	// A message from node 3 in round 5 proves the token moved on.
	actions := e.Step(engine.Input{Frame: &wire.DataMessage{RingID: e.ring.ID, Seq: 1, PID: 3, Round: 5, Service: wire.ServiceAgreed}})
	found := false
	for _, a := range actions {
		if ct, ok := a.(engine.CancelTimer); ok && ct.Kind == engine.TimerTokenRetrans {
			found = true
		}
	}
	if !found {
		t.Fatal("downstream progress did not cancel the token retransmission timer")
	}
}

func TestSubmitValidation(t *testing.T) {
	e := newMember(t, 2, 3, accelConfig())
	if _, err := e.Submit([]byte("x"), 0); err == nil {
		t.Fatal("Submit accepted invalid service")
	}
	if _, err := e.Submit(make([]byte, wire.MaxPayload+1), wire.ServiceAgreed); err == nil {
		t.Fatal("Submit accepted oversized payload")
	}
}

func TestStartStaticValidation(t *testing.T) {
	eng, err := New(Config{MyID: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Start([]wire.ParticipantID{1, 2}); err == nil {
		t.Fatal("accepted membership not containing self")
	}
	if _, err := eng.Start([]wire.ParticipantID{5, 5}); err == nil {
		t.Fatal("accepted duplicate members")
	}
}

func TestConfigDefaultsAndValidation(t *testing.T) {
	if _, err := New(Config{}); err != ErrNoID {
		t.Fatalf("New(empty) err = %v, want ErrNoID", err)
	}
	e, err := New(Config{MyID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e.cfg.Flow.AcceleratedWindow != flowctl.DefaultAcceleratedWindow {
		t.Fatal("default accelerated window should be flowctl's")
	}
	if e.cfg.Priority != PriorityAggressive {
		t.Fatal("default priority should be aggressive")
	}
	o, err := New(OriginalRing(Config{MyID: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.Flow.AcceleratedWindow != 0 {
		t.Fatal("original protocol must set accelerated window to 0")
	}
	if o.cfg.Flow.PersonalWindow != flowctl.DefaultPersonalWindow {
		t.Fatal("original protocol must keep the other default windows")
	}
	if o.cfg.Priority != PriorityConservative {
		t.Fatal("original protocol must set conservative priority")
	}
}

func TestRTRBoundedByMaxRTR(t *testing.T) {
	// A gap wider than MaxRTR must produce a bounded, encodable request
	// list rather than an unbounded token.
	e := newMember(t, 2, 3, accelConfig())
	wideSeq := wire.Seq(wire.MaxRTR + 500)
	e.Step(engine.Input{Frame: ringToken(e, 5, 1, wideSeq, 0)})
	actions := e.Step(engine.Input{Frame: ringToken(e, 6, 4, wideSeq, 0)})
	out, _ := findToken(actions)
	if len(out.RTR) > wire.MaxRTR {
		t.Fatalf("token carries %d rtr entries, cap is %d", len(out.RTR), wire.MaxRTR)
	}
	if len(out.RTR) == 0 {
		t.Fatal("no retransmission requests despite a huge gap")
	}
	if _, err := wire.Encode(out); err != nil {
		t.Fatalf("capped token does not encode: %v", err)
	}
}

func TestMaxPayloadSubmission(t *testing.T) {
	e := newMember(t, 2, 3, accelConfig())
	if _, err := e.Submit(make([]byte, wire.MaxPayload), wire.ServiceAgreed); err != nil {
		t.Fatalf("max payload rejected: %v", err)
	}
	actions := e.Step(engine.Input{Frame: ringToken(e, 5, 1, 0, 0)})
	sends := dataSends(actions)
	if len(sends) != 1 || len(sends[0].Msg.Payload) != wire.MaxPayload {
		t.Fatalf("max payload not sent intact")
	}
	if _, err := wire.Encode(sends[0].Msg); err != nil {
		t.Fatalf("max payload message does not encode: %v", err)
	}
}

func TestTokenRetransStopsAfterMembershipChange(t *testing.T) {
	// Once the engine abandons a ring, a stale token-retransmission timer
	// must not resend the old ring's token.
	e := newMember(t, 2, 3, accelConfig())
	e.Step(engine.Input{Frame: ringToken(e, 5, 1, 0, 0)})
	e.Step(engine.Input{Timer: engine.TimerTokenLoss}) // enter gather
	if got := e.Step(engine.Input{Timer: engine.TimerTokenRetrans}); got != nil {
		t.Fatalf("token retransmitted while gathering: %d actions", len(got))
	}
}

func TestDuplicateDataCounted(t *testing.T) {
	e := newMember(t, 2, 3, accelConfig())
	m := &wire.DataMessage{RingID: e.ring.ID, Seq: 1, PID: 3, Round: 1, Service: wire.ServiceAgreed}
	e.Step(engine.Input{Frame: m})
	cp := *m
	e.Step(engine.Input{Frame: &cp})
	if e.Snapshot().Stats.MsgsDuplicate != 1 {
		t.Fatalf("MsgsDuplicate = %d, want 1", e.Snapshot().Stats.MsgsDuplicate)
	}
	if e.Snapshot().Stats.MsgsReceived != 1 {
		t.Fatalf("MsgsReceived = %d, want 1", e.Snapshot().Stats.MsgsReceived)
	}
}
