package daemon

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"accelring"
	"accelring/internal/fanout"
	"accelring/internal/ipc"
	"accelring/internal/wire"
)

// Config configures a daemon.
type Config struct {
	// Node is the daemon's ring participant, already started. The daemon
	// takes ownership of draining its events and closing it.
	Node *accelring.Node
	// Listener accepts client connections (Unix socket for co-located
	// clients, per the paper's recommendation; TCP also works). The
	// daemon takes ownership.
	Listener net.Listener
	// Logger receives operational messages; nil disables logging.
	Logger *log.Logger
	// Fanout configures the client delivery tier: per-client queue depth,
	// the backpressure policy applied to slow clients, and the resume
	// replay history depth. The zero value selects 8192-frame queues with
	// the disconnect policy, the classic Spread-style behavior.
	Fanout fanout.Config
	// ResumeWindow holds a disconnected client's delivery state (queue,
	// group memberships, subscriptions) for this long so the client can
	// reconnect and resume its stream via CmdResume. Zero disables resume:
	// a lost connection drops the session immediately, the pre-resume
	// behavior.
	ResumeWindow time.Duration
}

// Daemon serves local clients, ordering their messages and group
// membership operations through the ring.
type Daemon struct {
	node *accelring.Node
	ln   net.Listener
	log  *log.Logger

	// reqCh funnels client requests into the main loop, a burst per
	// session wake-up.
	reqCh chan *burst
	// unregister removes a dead session.
	unregCh chan *session

	wg       sync.WaitGroup
	stopOnce sync.Once
	stopCh   chan struct{}

	// tier is the client delivery tier: interest registry, bounded
	// per-client queues, backpressure policy. Registration and publishing
	// are driven from the main loop; the tier's writer goroutines drain
	// the queues.
	tier *fanout.Tier

	// resumeWindow mirrors Config.ResumeWindow; expireCh delivers resume
	// window expiries into the main loop; drainCh asks the main loop to
	// announce a drain to every session, closing the ack channel once the
	// announcements are enqueued (so Drain's backlog poll counts them).
	resumeWindow time.Duration
	expireCh     chan uint64
	drainCh      chan chan struct{}

	// Serving-tier availability counters, atomic because Snapshot reads
	// them from arbitrary goroutines while the main loop writes.
	resumes       atomic.Uint64
	resumeGaps    atomic.Uint64
	resumeExpired atomic.Uint64
	draining      atomic.Bool
	drainMs       atomic.Int64
	// bursts and burstFrames count the ingest side: hand-overs from session
	// readers to the main loop, and the client frames in them.
	bursts      atomic.Uint64
	burstFrames atomic.Uint64

	// state owned by the main loop
	sessions map[*session]bool
	detached map[uint64]*session // session ID → detached session
	groups   map[string][]string // group → sorted private member names
	local    map[string]*session // private member name → session
	ring     accelring.Configuration
	// deliverySeq stamps each routed app message, strictly monotone in
	// delivery order — the global resume cursor clients acknowledge.
	// groupSeq numbers each group's stream; driven purely by the ring's
	// total order, it is identical on every daemon and lets clients detect
	// per-group gaps. Entries are never deleted: the map grows with the
	// number of distinct group names ever addressed, which keeps a group's
	// numbering stable across its membership going empty — and makes the
	// table the intern pool for group names on the delivery path: an
	// entry's name is the one string allocated for that group, found from
	// the bytes of an ordered message without allocating.
	deliverySeq uint64
	groupSeq    map[string]*groupStream
	// routeGroups and routeSeqs are routeApp's scratch: the destination
	// names of the message being routed and its number in each of their
	// streams, valid until the next one.
	routeGroups []string
	routeSeqs   []uint64
}

// groupStream is one group's entry in the groupSeq table.
type groupStream struct {
	name string
	seq  uint64
}

// New creates a daemon and starts serving.
func New(cfg Config) (*Daemon, error) {
	if cfg.Node == nil || cfg.Listener == nil {
		return nil, fmt.Errorf("daemon: Node and Listener are required")
	}
	cfg.Fanout.Resumable = cfg.ResumeWindow > 0
	d := &Daemon{
		node:         cfg.Node,
		ln:           cfg.Listener,
		log:          cfg.Logger,
		tier:         fanout.NewTier(cfg.Fanout),
		reqCh:        make(chan *burst, 256),
		unregCh:      make(chan *session, 16),
		stopCh:       make(chan struct{}),
		resumeWindow: cfg.ResumeWindow,
		expireCh:     make(chan uint64, 16),
		drainCh:      make(chan chan struct{}),
		sessions:     make(map[*session]bool),
		detached:     make(map[uint64]*session),
		groups:       make(map[string][]string),
		local:        make(map[string]*session),
		groupSeq:     make(map[string]*groupStream),
	}
	cfg.Node.AttachFanout(d)
	d.wg.Add(2)
	go d.acceptLoop()
	go d.mainLoop()
	return d, nil
}

// Close shuts the daemon down: client connections, the listener and the
// ring node.
func (d *Daemon) Close() error {
	d.stopOnce.Do(func() { close(d.stopCh) })
	d.ln.Close()
	err := d.node.Close()
	d.wg.Wait()
	return err
}

func (d *Daemon) logf(format string, args ...any) {
	if d.log != nil {
		d.log.Printf(format, args...)
	}
}

// memberName builds the globally unique private name of a local client.
func (d *Daemon) memberName(client string) string {
	return client + "@" + d.node.ID().String()
}

// memberDaemon extracts the daemon part of a private member name.
func memberDaemon(member string) string {
	if i := strings.LastIndexByte(member, '@'); i >= 0 {
		return member[i+1:]
	}
	return ""
}

func (d *Daemon) acceptLoop() {
	defer d.wg.Done()
	for {
		conn, err := d.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return // listener closed, daemon shutting down
			}
			select {
			case <-d.stopCh:
				return
			default:
			}
			// Transient accept failure — EMFILE under a connect burst,
			// ECONNABORTED from a dial that gave up in the backlog. The
			// listener is still valid: back off briefly and keep serving,
			// otherwise every dial queued behind the failure hangs forever.
			d.logf("accept: %v (retrying)", err)
			time.Sleep(10 * time.Millisecond)
			continue
		}
		s := newSession(d, conn)
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			s.readLoop()
		}()
	}
}

// eventRun bounds how many ring events the main loop applies between two
// looks at its other inputs, so client requests are not starved behind a
// long delivery.
const eventRun = 64

// applyRingRun applies ev and then the ring events already ready behind
// it — a run, like a run of frames, is whatever is already there — without
// paying for the main loop's six-way select per event. It reports false
// when the node's event stream has closed.
func (d *Daemon) applyRingRun(ev accelring.Event, events <-chan accelring.Event) bool {
	for n := 1; ; n++ {
		d.applyRingEvent(ev)
		if n == eventRun {
			return true
		}
		var ok bool
		select {
		case ev, ok = <-events:
			if !ok {
				return false
			}
		default:
			return true
		}
	}
}

// mainLoop owns all daemon state: it applies ordered ring events and
// serves client requests, strictly serialized.
func (d *Daemon) mainLoop() {
	defer d.wg.Done()
	defer d.closeAllSessions()
	events := d.node.Events()
	for {
		select {
		case ev, ok := <-events:
			if !ok || !d.applyRingRun(ev, events) {
				return
			}
		case b := <-d.reqCh:
			d.applyBurst(b)
		case s := <-d.unregCh:
			// A reader hands over its last burst before it unregisters, so
			// whatever that session still has to say is in reqCh by now.
			// Apply it first: select takes ready channels in no order, and
			// a client that sends and leaves would lose its tail.
			for n := len(d.reqCh); n > 0; n-- {
				d.applyBurst(<-d.reqCh)
			}
			d.sessionGone(s)
		case id := <-d.expireCh:
			d.expireDetached(id)
		case ack := <-d.drainCh:
			for s := range d.sessions {
				s.send(ipc.EvtDrain, nil)
			}
			close(ack)
		case <-d.stopCh:
			return
		}
	}
}

func (d *Daemon) closeAllSessions() {
	for s := range d.sessions {
		s.close()
	}
	for _, s := range d.detached {
		if s.detachTimer != nil {
			s.detachTimer.Stop()
		}
		s.close()
	}
}

// applyBurst handles one session wake-up's worth of client frames, in
// order, and recycles the burst. A frame that closes the session ends the
// burst: what a client sent behind its own goodbye or a malformed frame is
// dropped with the connection.
func (d *Daemon) applyBurst(b *burst) {
	s, start := b.sess, 0
	for _, f := range b.frames {
		if s.isClosed() {
			break
		}
		d.applyRequest(s, f.typ, b.slab[start:f.end])
		start = f.end
	}
	b.sess = nil
	burstPool.Put(b)
}

// applyRequest handles one client frame. body is borrowed from the burst:
// nothing here may keep a slice of it.
func (d *Daemon) applyRequest(s *session, typ byte, body []byte) {
	switch typ {
	case ipc.CmdConnect:
		name, _, err := ipc.GetString(body)
		if err != nil || !validName(name) {
			s.close()
			return
		}
		private := d.memberName(name)
		if !d.claimName(private) {
			s.close()
			return
		}
		s.member = private
		s.id = d.newSessionID()
		d.sessions[s] = true
		d.local[private] = s
		welcome := ipc.PutString(nil, private)
		welcome = ipc.PutUint64(welcome, s.id)
		s.send(ipc.EvtWelcome, welcome)
	case ipc.CmdResume:
		if s.member != "" {
			s.close()
			return
		}
		d.applyResume(s, body)
	case ipc.CmdGoodbye:
		// Deliberate close: tear down now instead of holding the session
		// for the resume window.
		s.goodbye = true
		d.dropSession(s)
	case ipc.CmdJoin, ipc.CmdLeave:
		if s.member == "" {
			s.close()
			return
		}
		group, _, err := ipc.GetString(body)
		if err != nil || ipc.CheckGroup(group) != nil {
			s.close()
			return
		}
		op := ringJoin
		if typ == ipc.CmdLeave {
			op = ringLeave
		}
		p := membershipPayload{Member: s.member, Group: group}
		if err := d.node.Submit(p.encode(op), accelring.Agreed); err != nil {
			d.logf("daemon: submit membership: %v", err)
		}
	case ipc.CmdSubscribe, ipc.CmdUnsubscribe:
		// Local-only interest in a group's ordered stream: no ring
		// traffic, no membership views — the scalable path for large
		// read-only audiences.
		if s.member == "" {
			s.close()
			return
		}
		group, _, err := ipc.GetString(body)
		if err != nil || ipc.CheckGroup(group) != nil {
			s.close()
			return
		}
		if typ == ipc.CmdSubscribe {
			d.tier.Subscribe(s.sub, group, fanout.SourceExplicit)
		} else {
			d.tier.Unsubscribe(s.sub, group, fanout.SourceExplicit)
		}
	case ipc.CmdMulticast:
		if s.member == "" {
			s.close()
			return
		}
		encoded, svc, err := encodeApp(body, s.member)
		if err != nil {
			s.close()
			return
		}
		if err := d.node.Submit(encoded, svc); err != nil {
			d.logf("daemon: submit: %v", err)
			return
		}
		s.submits++
	case ipc.CmdStats:
		if s.member == "" {
			s.close()
			return
		}
		s.send(ipc.EvtStats, d.encodeStats())
	default:
		s.close()
	}
}

// validName screens a client-chosen name: the daemon appends "@<node>" to
// build the private name, so the separator and whitespace are reserved.
func validName(name string) bool {
	return name != "" && !strings.ContainsAny(name, "@ \n")
}

// claimName makes a private name available for a new session: a name held
// by a detached session is reclaimed by evicting it (the client came back
// without resuming — e.g. it restarted and lost its session ID); a name
// held by a live session stays taken. Main loop only.
func (d *Daemon) claimName(private string) bool {
	existing := d.local[private]
	if existing == nil {
		return true
	}
	if existing.state == sessDetached {
		d.evictDetached(existing)
		return true
	}
	return false
}

// newSessionID draws a random non-zero resume session ID, or 0 when
// resume is disabled. Main loop only.
func (d *Daemon) newSessionID() uint64 {
	if d.resumeWindow <= 0 {
		return 0
	}
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			// Practically unreachable; fall back to a counter rather than
			// refuse service.
			d.deliverySeq++
			return d.deliverySeq | 1<<63
		}
		id := binary.BigEndian.Uint64(b[:])
		if id != 0 && d.detached[id] == nil {
			return id
		}
	}
}

// applyResume handles a CmdResume handshake on a fresh connection: find
// the detached session, announce the resume (with its gap verdict) ahead
// of the replay, and graft the detached delivery state onto this
// connection. An unknown, expired, or dead session falls back to a fresh
// one under the same name — the client then resets its cursors and
// replays its joins and subscriptions.
func (d *Daemon) applyResume(s *session, body []byte) {
	name, rest, err := ipc.GetString(body)
	if err != nil || !validName(name) {
		s.close()
		return
	}
	id, rest, err := ipc.GetUint64(rest)
	if err != nil {
		s.close()
		return
	}
	stamp, rest, err := ipc.GetUint64(rest)
	if err != nil {
		s.close()
		return
	}
	// Per-group cursors ride along for diagnostics; replay is driven by
	// the global stamp, so they are only validated here.
	if len(rest) < 2 {
		s.close()
		return
	}
	n := int(binary.BigEndian.Uint16(rest))
	rest = rest[2:]
	for i := 0; i < n; i++ {
		if _, rest, err = ipc.GetString(rest); err != nil {
			s.close()
			return
		}
		if _, rest, err = ipc.GetUint64(rest); err != nil {
			s.close()
			return
		}
	}
	private := d.memberName(name)
	old := d.detached[id]
	if id == 0 || old == nil || old.member != private {
		d.resumeFresh(s, private)
		return
	}
	gap, err := d.tier.ResumeGap(old.sub, stamp)
	if err != nil {
		// The session died while away (e.g. PolicyDisconnect overflowed
		// its queue): evict it and fall back to a fresh session.
		d.evictDetached(old)
		d.resumeFresh(s, private)
		return
	}
	// Announce the resume synchronously so it is on the wire before the
	// replay writer starts; the deadline bounds how long a wedged client
	// can hold the main loop.
	flags := ipc.ResumedFlagResumed
	if gap {
		flags |= ipc.ResumedFlagGap
	}
	resp := []byte{flags}
	resp = ipc.PutString(resp, private)
	resp = ipc.PutUint64(resp, id)
	s.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	werr := ipc.WriteFrame(s.conn, ipc.EvtResumed, resp)
	s.conn.SetWriteDeadline(time.Time{})
	if werr != nil {
		s.close()
		return
	}
	// Retire the placeholder subscriber registered at accept: Detach first
	// clears its callbacks, so closing it cannot fire an unregister for
	// the session that is about to adopt the real one.
	d.tier.Detach(s.sub)
	d.tier.Unregister(s.sub)
	// Adopt the detached session's identity and delivery state.
	if old.detachTimer != nil {
		old.detachTimer.Stop()
		old.detachTimer = nil
	}
	delete(d.detached, id)
	old.state = sessGone
	s.subMu.Lock()
	s.sub = old.sub
	s.subMu.Unlock()
	s.member, s.id, s.submits = old.member, old.id, old.submits
	d.sessions[s] = true
	d.local[private] = s
	if _, err := d.tier.Attach(s.sub, &ipcSink{conn: s.conn}, stamp, s.killFunc(), s.exitFunc()); err != nil {
		d.dropSession(s)
		return
	}
	d.resumes.Add(1)
	if gap {
		d.resumeGaps.Add(1)
	}
	d.logf("daemon: resumed session %s (gap=%v)", private, gap)
}

// resumeFresh answers a failed resume with a brand-new session under the
// requested name: EvtResumed without the resumed flag, carrying the new
// private name and session ID.
func (d *Daemon) resumeFresh(s *session, private string) {
	if !d.claimName(private) {
		s.close()
		return
	}
	s.member = private
	s.id = d.newSessionID()
	d.sessions[s] = true
	d.local[private] = s
	resp := []byte{0}
	resp = ipc.PutString(resp, private)
	resp = ipc.PutUint64(resp, s.id)
	s.send(ipc.EvtResumed, resp)
}

// sessionGone decides a disconnected session's fate on the main loop:
// detach (hold for resume) when the window is open and the disconnect was
// not deliberate, drop otherwise. Duplicate notifications — the read loop
// and the writer both report the same death — are ignored.
func (d *Daemon) sessionGone(s *session) {
	if s.state != sessActive {
		return
	}
	if d.resumeWindow > 0 && s.member != "" && d.sessions[s] && !s.goodbye && !d.draining.Load() {
		d.detachSession(s)
		return
	}
	d.dropSession(s)
}

// detachSession parks a disconnected session for the resume window: the
// delivery queue keeps accumulating, group memberships and subscriptions
// stay registered, and the ring is told nothing.
func (d *Daemon) detachSession(s *session) {
	if !d.tier.Detach(s.sub) {
		// Queue already closed (slow-client kill, shutdown): not resumable.
		d.dropSession(s)
		return
	}
	delete(d.sessions, s)
	s.conn.Close()
	s.state = sessDetached
	d.detached[s.id] = s
	id := s.id
	s.detachTimer = time.AfterFunc(d.resumeWindow, func() {
		select {
		case d.expireCh <- id:
		case <-d.stopCh:
		}
	})
	d.logf("daemon: holding session %s for resume", s.member)
}

// expireDetached ends a resume window: the session never came back.
func (d *Daemon) expireDetached(id uint64) {
	s := d.detached[id]
	if s == nil {
		return
	}
	delete(d.detached, id)
	d.resumeExpired.Add(1)
	d.logf("daemon: resume window expired for %s", s.member)
	d.dropSession(s)
}

// evictDetached removes a detached session outside the normal expiry path
// (reclaimed name, dead queue at resume).
func (d *Daemon) evictDetached(s *session) {
	delete(d.detached, s.id)
	d.dropSession(s)
}

// Drain performs a graceful shutdown: stop accepting connections,
// announce the drain to every client (EvtDrain), flush the fan-out queues
// for up to timeout, then close the daemon — which leaves the ring
// cleanly. New disconnects during a drain are dropped, not held for
// resume.
func (d *Daemon) Drain(timeout time.Duration) error {
	start := time.Now()
	d.draining.Store(true)
	d.ln.Close()
	deadline := start.Add(timeout)
	// Hand the announcement to the main loop and wait until it has
	// enqueued EvtDrain everywhere — otherwise the backlog poll below
	// could see an already-empty tier and close sessions before the
	// announcement is even written.
	ack := make(chan struct{})
	select {
	case d.drainCh <- ack:
		select {
		case <-ack:
		case <-d.stopCh:
		case <-time.After(time.Until(deadline)):
		}
	case <-d.stopCh:
	case <-time.After(time.Until(deadline)):
	}
	for time.Now().Before(deadline) {
		if d.tier.Backlog() == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	d.drainMs.Store(time.Since(start).Milliseconds())
	d.logf("daemon: drain flushed in %dms", d.drainMs.Load())
	return d.Close()
}

// Snapshot implements accelring.FanoutSource: the delivery tier's
// aggregate counters plus the daemon's resume and drain accounting, so
// Node.Metrics (and CmdStats, ringmon, BENCH reports on top of it) carry
// the serving tier's availability counters.
func (d *Daemon) Snapshot() fanout.TierSnapshot {
	fs := d.tier.Snapshot()
	fs.Resumes = d.resumes.Load()
	fs.ResumeGaps = d.resumeGaps.Load()
	fs.ResumeExpired = d.resumeExpired.Load()
	fs.DrainMs = d.drainMs.Load()
	fs.Bursts = d.bursts.Load()
	fs.BurstFrames = d.burstFrames.Load()
	return fs
}

// statsClientCap bounds the per-client detail in one stats snapshot: a
// ~100-byte entry per client times tens of thousands of sessions would
// exceed the IPC frame limit and sever the requesting client. Past the
// cap, only the aggregate tier counters are reported.
const statsClientCap = 256

// encodeStats assembles the daemon's StatsSnapshot as JSON: client
// counters (including each client's fan-out queue state), group/session
// and subscription totals, and the ring node's metrics.
func (d *Daemon) encodeStats() []byte {
	fs := d.Snapshot()
	snap := ipc.StatsSnapshot{
		Daemon:        d.node.ID().String(),
		Sessions:      len(d.sessions),
		Groups:        len(d.groups),
		Subscriptions: fs.Subscriptions,
		Shed:          fs.Shed,
		Disconnects:   fs.Disconnects,
		FanoutPolicy:  fs.Policy,
		Detached:      len(d.detached),
		Resumes:       fs.Resumes,
		ResumeGaps:    fs.ResumeGaps,
		ResumeExpired: fs.ResumeExpired,
		Draining:      d.draining.Load(),
		DrainMs:       fs.DrainMs,
	}
	if len(d.sessions) <= statsClientCap {
		snap.Clients = make(map[string]ipc.ClientStats, len(d.sessions))
		for s := range d.sessions {
			if s.member == "" {
				continue
			}
			st := s.sub.Stats()
			snap.Clients[s.member] = ipc.ClientStats{
				Submits:       s.submits,
				Deliveries:    st.Msgs,
				Shed:          st.Shed,
				Backlog:       st.Backlog,
				HighWater:     st.HighWater,
				Subscriptions: st.Subscriptions,
			}
		}
	} else {
		snap.ClientsOmitted = len(d.sessions)
	}
	if node, err := d.node.Metrics(); err == nil {
		if raw, err := json.Marshal(node); err == nil {
			snap.Node = raw
		}
	}
	body, err := json.Marshal(snap)
	if err != nil {
		d.logf("daemon: encoding stats: %v", err)
		return []byte("{}")
	}
	return body
}

// dropSession removes a disconnected client, multicasting leaves for every
// group it belonged to so all daemons converge.
func (d *Daemon) dropSession(s *session) {
	s.state = sessGone
	if s.detachTimer != nil {
		s.detachTimer.Stop()
		s.detachTimer = nil
	}
	// Always withdraw the delivery-tier registration — even a session
	// that never completed CmdConnect holds one.
	d.tier.Unregister(s.sub)
	if !d.sessions[s] && s.member == "" {
		return
	}
	delete(d.sessions, s)
	if s.member != "" {
		delete(d.local, s.member)
		for group, members := range d.groups {
			if containsString(members, s.member) {
				p := membershipPayload{Member: s.member, Group: group}
				if err := d.node.Submit(p.encode(ringLeave), accelring.Agreed); err != nil {
					d.logf("daemon: submit leave: %v", err)
				}
			}
		}
		s.member = ""
	}
	s.close()
}

// applyRingEvent applies one totally ordered ring event.
func (d *Daemon) applyRingEvent(ev accelring.Event) {
	switch e := ev.(type) {
	case accelring.Message:
		d.applyRingMessage(e)
	case accelring.ConfigChange:
		if !e.Transitional {
			d.applyRingConfig(e.Config)
		}
	}
}

func (d *Daemon) applyRingMessage(m accelring.Message) {
	if len(m.Payload) == 0 {
		return
	}
	typ, body := m.Payload[0], m.Payload[1:]
	switch typ {
	case ringApp:
		p, err := decodeApp(body)
		if err != nil {
			d.logf("daemon: bad app payload from %s: %v", m.Sender, err)
			return
		}
		d.routeApp(p, m.Service)
	case ringJoin, ringLeave:
		p, err := decodeMembership(body)
		if err != nil {
			d.logf("daemon: bad membership payload from %s: %v", m.Sender, err)
			return
		}
		if typ == ringJoin {
			d.applyJoin(p.Member, p.Group)
		} else {
			d.applyLeave(p.Member, p.Group)
		}
	}
}

// routeApp hands an ordered application message to the fan-out tier: the
// frame body is encoded exactly once and routed to every local session
// interested in any of the destination groups — members and explicit
// subscribers alike — exactly once per session, with the tier's
// backpressure policy deciding what happens at full queues. The body is
// the one allocation here, fresh because subscriber queues retain it until
// their writers drain it; sender and group names are read in place from p,
// which aliases the ring event. The delivery stamp and every destination
// group's sequence advance whether or not anyone local is listening —
// they number the ring's order, identical on every daemon — but a daemon
// with no local interest in any destination builds no body at all.
func (d *Daemon) routeApp(p appMessage, svc wire.Service) {
	d.deliverySeq++
	stamp := d.deliverySeq
	groups, seqs := d.routeGroups[:0], d.routeSeqs[:0]
	for names := p.groups; len(names) > 0; {
		var name []byte
		name, names, _ = ipc.GetBytes(names) // bounds checked by decodeApp
		g := d.groupSeq[string(name)]        // no allocation: lookup only
		if g == nil {
			g = &groupStream{name: string(name)}
			d.groupSeq[g.name] = g
		}
		g.seq++
		groups, seqs = append(groups, g.name), append(seqs, g.seq)
	}
	d.routeGroups, d.routeSeqs = groups, seqs
	if !d.tier.HasInterest(groups) {
		return
	}
	body := make([]byte, 0, 1+8+2+len(p.sender)+2+len(p.groups)+8*len(groups)+len(p.payload))
	body = append(body, byte(svc))
	body = ipc.PutUint64(body, stamp)
	body = binary.BigEndian.AppendUint16(body, uint16(len(p.sender)))
	body = append(body, p.sender...)
	body = binary.BigEndian.AppendUint16(body, uint16(len(groups)))
	for i, g := range groups {
		body = ipc.PutString(body, g)
		body = ipc.PutUint64(body, seqs[i])
	}
	body = append(body, p.payload...)
	var skip *fanout.Subscriber
	if p.flags&flagSelfDiscard != 0 {
		if s := d.local[string(p.sender)]; s != nil {
			skip = s.sub
		}
	}
	d.tier.Publish(groups, ipc.EvtMessage, body, stamp, skip)
}

// applyJoin updates a group view and notifies local members. A local
// joiner also gains membership-sourced delivery interest in the tier.
func (d *Daemon) applyJoin(member, group string) {
	members := d.groups[group]
	if containsString(members, member) {
		return
	}
	members = append(members, member)
	sort.Strings(members)
	d.groups[group] = members
	if s := d.local[member]; s != nil {
		d.tier.Subscribe(s.sub, group, fanout.SourceMember)
	}
	d.sendView(group)
}

// applyLeave updates a group view and notifies local members. A local
// leaver loses its membership-sourced interest; an explicit subscription
// to the same group, if any, keeps delivering.
func (d *Daemon) applyLeave(member, group string) {
	members := d.groups[group]
	idx := sort.SearchStrings(members, member)
	if idx >= len(members) || members[idx] != member {
		return
	}
	if s := d.local[member]; s != nil {
		d.tier.Unsubscribe(s.sub, group, fanout.SourceMember)
	}
	members = append(members[:idx], members[idx+1:]...)
	if len(members) == 0 {
		delete(d.groups, group)
	} else {
		d.groups[group] = members
	}
	d.sendView(group)
	// The departed member also learns it left, if local.
	if s := d.local[member]; s != nil {
		s.send(ipc.EvtView, encodeView(group, d.groups[group]))
	}
}

// applyRingConfig reconciles groups with a new daemon-level membership:
// clients of daemons that left the configuration are removed from every
// group (their daemons will re-join them through recovery if they merge
// back later).
func (d *Daemon) applyRingConfig(cfg accelring.Configuration) {
	d.ring = cfg
	alive := make(map[string]bool, len(cfg.Members))
	for _, id := range cfg.Members {
		alive[id.String()] = true
	}
	for group, members := range d.groups {
		kept := members[:0]
		changed := false
		for _, m := range members {
			if alive[memberDaemon(m)] {
				kept = append(kept, m)
			} else {
				changed = true
			}
		}
		if !changed {
			continue
		}
		if len(kept) == 0 {
			delete(d.groups, group)
		} else {
			d.groups[group] = kept
		}
		d.sendView(group)
	}
	// Re-announce local memberships to daemons that merged in: joins are
	// idempotent, and ordering them through the ring rebuilds a consistent
	// view everywhere after a partition heal.
	for group, members := range d.groups {
		for _, m := range members {
			if d.local[m] != nil {
				p := membershipPayload{Member: m, Group: group}
				if err := d.node.Submit(p.encode(ringJoin), accelring.Agreed); err != nil {
					d.logf("daemon: re-announce join: %v", err)
				}
			}
		}
	}
}

// sendView sends the current view of a group to its local members.
func (d *Daemon) sendView(group string) {
	members := d.groups[group]
	body := encodeView(group, members)
	for _, m := range members {
		if s := d.local[m]; s != nil {
			s.send(ipc.EvtView, body)
		}
	}
}

func encodeView(group string, members []string) []byte {
	body := ipc.PutString(nil, group)
	return ipc.PutStrings(body, members)
}

func containsString(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}
