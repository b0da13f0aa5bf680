// Package client is the library applications use to talk to a ringd
// daemon over its IPC socket: connect under a name, join and leave named
// groups, multicast to any set of groups (open-group semantics), and
// receive totally ordered messages and group membership views.
//
// Connections come in two flavors. Connect/New give the classic
// fail-stop connection: when it drops, the Events channel closes and the
// Conn is dead. Dial/DialContext with Options.Reconnect give a managed
// connection that survives daemon restarts: it redials with capped
// exponential backoff, resumes its session (CmdResume) so the daemon
// replays the delivery stream from the client's last acknowledged stamp,
// replays joins and subscriptions from tracked interest state when the
// session could not be resumed, and reports the transitions as typed
// Disconnected/Reconnected/Gap/Draining events on the same Events
// channel.
package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"accelring/internal/ipc"
	"accelring/internal/wire"
)

// Event is something delivered on the Events channel: an ordered Message
// or View from the daemon, or — on managed connections — a connection
// lifecycle event (Disconnected, Reconnected, Gap, Draining).
type Event interface {
	isEvent()
}

// Message is a totally ordered group message.
type Message struct {
	// Sender is the private name of the sending client.
	Sender string
	// Groups are the destination groups; Seqs are the corresponding
	// per-group sequence numbers (Seqs[i] numbers this message in
	// Groups[i]'s stream). Identical at every daemon, they are what gap
	// detection is verified against.
	Groups []string
	Seqs   []uint64
	// Stamp is the daemon's global delivery stamp — strictly increasing
	// across every message this connection receives from one daemon
	// incarnation; the resume cursor.
	Stamp uint64
	// Service is the delivery guarantee the message was sent with.
	Service wire.Service
	// Payload is the application data.
	Payload []byte
}

// View is a group membership view, delivered to members whenever the
// group's membership changes, in the same total order at every member.
type View struct {
	// Group is the group name.
	Group string
	// Members are the private names of the current members, sorted.
	Members []string
}

// Disconnected reports that a managed connection lost its transport; the
// client is now redialing with backoff. Err is the read or write error that
// ended the connection. Frames queued behind a failed write are dropped
// with it.
type Disconnected struct{ Err error }

// Reconnected reports that a managed connection is serving again.
// Resumed means the daemon kept the session and the delivery stream
// continues where it left off (any loss is reported separately as Gap);
// false means a fresh session was created — cursors reset, joins and
// subscriptions replayed. Attempts counts the dials this outage took.
type Reconnected struct {
	Resumed  bool
	Attempts int
}

// Gap reports lost messages on a managed connection. With a Group, the
// daemon's per-group sequence numbers jumped: Missed messages of that
// group's stream were dropped (shed under backpressure, or lost across a
// resume). With Group empty, stream continuity was lost wholesale — the
// session could not be resumed, or the daemon dropped an unknown number
// of frames while the client was away — and Missed is 0 (unknown).
type Gap struct {
	Group  string
	Missed uint64
}

// Draining reports that the daemon announced a graceful drain: it will
// flush pending deliveries and close. A managed connection will reconnect
// (to the restarted daemon) when the connection ends.
type Draining struct{}

func (Message) isEvent()      {}
func (View) isEvent()         {}
func (Disconnected) isEvent() {}
func (Reconnected) isEvent()  {}
func (Gap) isEvent()          {}
func (Draining) isEvent()     {}

// Errors returned by connection operations.
var (
	// ErrClosed is returned by operations on a closed connection — closed
	// by Close, a dead unmanaged connection, or a managed connection that
	// exhausted Options.MaxAttempts.
	ErrClosed = errors.New("client: connection closed")
	// ErrReconnecting is returned by operations that need a live transport
	// (Multicast, Stats) while a managed connection is between attempts.
	// Join/Leave/Subscribe/Unsubscribe succeed while reconnecting: they
	// update the tracked interest state and are replayed on reconnect.
	ErrReconnecting = errors.New("client: reconnecting")
)

// Defaults for Options zero values.
const (
	DefaultDialTimeout = 10 * time.Second
	DefaultBackoffMin  = 100 * time.Millisecond
	DefaultBackoffMax  = 5 * time.Second
)

// Options configures Dial/DialContext.
type Options struct {
	// DialTimeout bounds each dial attempt; zero selects
	// DefaultDialTimeout.
	DialTimeout time.Duration
	// ConnectWait keeps retrying the initial connection (daemon socket
	// not up yet) for this long before giving up; zero makes the first
	// dial the only one.
	ConnectWait time.Duration
	// Reconnect selects the managed mode: on connection loss the client
	// redials with capped exponential backoff and jitter, resumes or
	// re-establishes its session, and emits typed lifecycle events
	// instead of closing the Events channel.
	Reconnect bool
	// BackoffMin and BackoffMax bound the exponential backoff between
	// reconnect attempts; zeroes select DefaultBackoffMin/Max.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// MaxAttempts caps the dials per outage; past it the connection gives
	// up and behaves as closed. Zero means retry forever.
	MaxAttempts int
}

func (o *Options) fill() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = DefaultDialTimeout
	}
	if o.BackoffMin <= 0 {
		o.BackoffMin = DefaultBackoffMin
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = DefaultBackoffMax
	}
	if o.BackoffMax < o.BackoffMin {
		o.BackoffMax = o.BackoffMin
	}
}

// eventQueue is the receive buffer; the daemon disconnects clients that
// fall too far behind, so the client should drain Events promptly.
const eventQueue = 8192

// sendQueueBytes bounds the outbound queue: a frame is admitted while
// fewer bytes than this are queued, so the queue holds at most this plus
// one frame (and the writer as much again in the run it is writing). It is
// about what the socket buffer held when every frame was its own write; a
// sender that outruns the daemon blocks here as it blocked there.
const sendQueueBytes = 256 << 10

// Conn is a client connection to a daemon.
type Conn struct {
	network, addr, name string
	opts                Options
	managed             bool

	events   chan Event
	statsCh  chan []byte
	statsMu  sync.Mutex
	done     chan struct{}
	doneOnce sync.Once

	mu      sync.Mutex
	conn    net.Conn // nil while a managed connection is redialing
	private string
	// out is the outbound queue: every frame this connection sends is
	// encoded onto its end under mu, and the writer goroutine takes the
	// whole of it — a run — in one Write. wake is signalled (on mu) when
	// out gains a frame, when the writer takes a run, and when conn or
	// closed changes: the writer waits on it for work, a sender for room.
	out  []byte
	wake *sync.Cond
	// lost is the error that ended the last attachment, whichever of the
	// reader and the writer met it first.
	lost      error
	sessionID uint64
	closed    bool
	// lastStamp and groupSeqs are the delivery cursors: the resume point
	// acknowledged to the daemon, and each interesting group's last seen
	// sequence number for gap detection.
	lastStamp uint64
	groupSeqs map[string]uint64
	// joined and subscribed track desired interest for replay;
	// pendingLeaves/pendingUnsubs remember withdrawals made while
	// disconnected so a resumed session applies them.
	joined        map[string]bool
	subscribed    map[string]bool
	pendingLeaves map[string]bool
	pendingUnsubs map[string]bool
	// reconnects and resumes count outages survived and sessions resumed.
	reconnects uint64
	resumes    uint64

	wg sync.WaitGroup
}

// Connect dials a daemon and registers under the given name. network/addr
// are as in net.Dial ("unix", "/tmp/ringd.sock" for co-located clients).
// The dial is bounded by DefaultDialTimeout; the connection is unmanaged
// (Events closes when it drops). Use Dial for timeouts, initial-connect
// retry, and the managed reconnecting mode.
func Connect(network, addr, name string) (*Conn, error) {
	return Dial(network, addr, name, Options{})
}

// Dial connects to a daemon with the given options.
func Dial(network, addr, name string, opts Options) (*Conn, error) {
	return DialContext(context.Background(), network, addr, name, opts)
}

// DialContext connects to a daemon, bounded by ctx: dialing (including
// the Options.ConnectWait retry window) stops when ctx is done.
func DialContext(ctx context.Context, network, addr, name string, opts Options) (*Conn, error) {
	if name == "" {
		return nil, errors.New("client: empty name")
	}
	opts.fill()
	conn, err := dialInitial(ctx, network, addr, opts)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	c, err := newConn(conn, name)
	if err != nil {
		return nil, err
	}
	c.network, c.addr, c.opts = network, addr, opts
	c.managed = opts.Reconnect
	c.start()
	return c, nil
}

// dialInitial dials with the per-attempt timeout, retrying transport
// errors for up to opts.ConnectWait (the daemon socket may not be up
// yet).
func dialInitial(ctx context.Context, network, addr string, opts Options) (net.Conn, error) {
	d := net.Dialer{Timeout: opts.DialTimeout}
	deadline := time.Now().Add(opts.ConnectWait)
	backoff := opts.BackoffMin
	for {
		conn, err := d.DialContext(ctx, network, addr)
		if err == nil {
			return conn, nil
		}
		if opts.ConnectWait <= 0 || !time.Now().Add(backoff).Before(deadline) {
			return nil, err
		}
		select {
		case <-time.After(jitter(backoff)):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if backoff *= 2; backoff > opts.BackoffMax {
			backoff = opts.BackoffMax
		}
	}
}

// New registers under the given name over an already established
// connection (an in-memory pipe, a pre-dialed socket) and takes ownership
// of it. On error the connection is closed. The result is unmanaged: it
// cannot redial a transport it did not create.
func New(conn net.Conn, name string) (*Conn, error) {
	c, err := newConn(conn, name)
	if err != nil {
		return nil, err
	}
	c.start()
	return c, nil
}

// newConn performs the handshake and builds the Conn without starting its
// reader, so DialContext can flip it to managed mode first.
func newConn(conn net.Conn, name string) (*Conn, error) {
	if name == "" {
		conn.Close()
		return nil, errors.New("client: empty name")
	}
	private, sessionID, err := handshake(conn, name)
	if err != nil {
		conn.Close()
		return nil, err
	}
	c := &Conn{
		name:          name,
		conn:          conn,
		private:       private,
		sessionID:     sessionID,
		events:        make(chan Event, eventQueue),
		statsCh:       make(chan []byte, 1),
		done:          make(chan struct{}),
		groupSeqs:     make(map[string]uint64),
		joined:        make(map[string]bool),
		subscribed:    make(map[string]bool),
		pendingLeaves: make(map[string]bool),
		pendingUnsubs: make(map[string]bool),
	}
	c.wake = sync.NewCond(&c.mu)
	return c, nil
}

// start launches the connection's writer and its reader (which, in managed
// mode, becomes its supervisor).
func (c *Conn) start() {
	c.wg.Add(2)
	go c.writeLoop()
	go c.run(c.conn)
}

// handshake performs the CmdConnect/EvtWelcome exchange. The welcome
// carries the private name and, from resume-capable daemons, a session ID
// (0 when absent: resume unavailable).
func handshake(conn net.Conn, name string) (private string, sessionID uint64, err error) {
	if err := ipc.WriteFrame(conn, ipc.CmdConnect, ipc.PutString(nil, name)); err != nil {
		return "", 0, fmt.Errorf("client: connect frame: %w", err)
	}
	typ, body, err := ipc.ReadFrame(conn)
	if err != nil {
		return "", 0, fmt.Errorf("client: reading welcome: %w", err)
	}
	if typ != ipc.EvtWelcome {
		return "", 0, fmt.Errorf("client: unexpected frame %d before welcome", typ)
	}
	private, rest, err := ipc.GetString(body)
	if err != nil {
		return "", 0, fmt.Errorf("client: bad welcome: %w", err)
	}
	if len(rest) >= 8 {
		sessionID, _, _ = ipc.GetUint64(rest)
	}
	return private, sessionID, nil
}

// PrivateName returns the globally unique name the daemon assigned, e.g.
// "alice@0.0.0.1".
func (c *Conn) PrivateName() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.private
}

// SessionID returns the daemon-issued resume session ID (0 when the
// daemon has resume disabled).
func (c *Conn) SessionID() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sessionID
}

// Reconnects returns how many outages this managed connection has
// survived; Resumes how many of those kept the session.
func (c *Conn) Reconnects() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reconnects
}

// Resumes returns how many reconnects resumed the existing session.
func (c *Conn) Resumes() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resumes
}

// Events returns the stream of ordered messages and views, plus lifecycle
// events on managed connections. It closes when the connection is dead:
// dropped (unmanaged), Closed, or out of reconnect attempts (managed).
func (c *Conn) Events() <-chan Event { return c.events }

// Join subscribes this client to a group. The resulting view arrives on
// Events, totally ordered with all other group operations and messages.
// On a managed connection Join succeeds while reconnecting: the interest
// is recorded and replayed.
func (c *Conn) Join(group string) error {
	return c.interestOp(ipc.CmdJoin, group)
}

// Leave unsubscribes this client from a group.
func (c *Conn) Leave(group string) error {
	return c.interestOp(ipc.CmdLeave, group)
}

// Subscribe registers local delivery interest in a group's ordered
// message stream without joining the group: this client receives every
// message addressed to the group, in the same total order as the
// members, but never appears in its membership views and adds no ring
// traffic. Subscriptions are daemon-local, so at serving scale a large
// read-only audience costs the ring nothing — use Join only when the
// other members must know you are there.
func (c *Conn) Subscribe(group string) error {
	return c.interestOp(ipc.CmdSubscribe, group)
}

// Unsubscribe withdraws a Subscribe. A concurrent membership of the same
// group (via Join) keeps delivering.
func (c *Conn) Unsubscribe(group string) error {
	return c.interestOp(ipc.CmdUnsubscribe, group)
}

// interestOp updates the tracked interest state and queues the frame.
// While a managed connection is redialing the update alone succeeds — the
// supervisor reconciles the daemon on reconnect.
func (c *Conn) interestOp(typ byte, group string) error {
	if err := ipc.CheckGroup(group); err != nil {
		return fmt.Errorf("client: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Wait for room before touching the interest state, so the state
	// changes and the frame is queued in one critical section.
	if err := c.roomLocked(); err != nil && !errors.Is(err, ErrReconnecting) {
		return err
	}
	switch typ {
	case ipc.CmdJoin:
		c.joined[group] = true
		delete(c.pendingLeaves, group)
	case ipc.CmdLeave:
		delete(c.joined, group)
		if !c.subscribed[group] {
			delete(c.groupSeqs, group)
		}
		if c.conn == nil {
			c.pendingLeaves[group] = true
		}
	case ipc.CmdSubscribe:
		c.subscribed[group] = true
		delete(c.pendingUnsubs, group)
	case ipc.CmdUnsubscribe:
		delete(c.subscribed, group)
		if !c.joined[group] {
			delete(c.groupSeqs, group)
		}
		if c.conn == nil {
			c.pendingUnsubs[group] = true
		}
	}
	if c.conn == nil {
		return nil
	}
	return c.queueLocked(ipc.AppendFrame(c.out, typ, ipc.PutString(nil, group)))
}

// MulticastOptions modify a multicast.
type MulticastOptions struct {
	// SelfDiscard asks the daemon not to deliver the message back to this
	// client even if it is a member of a destination group (Spread's
	// SELF_DISCARD).
	SelfDiscard bool
}

// Multicast sends a message to every member of every listed group, with
// the requested delivery service. The sender need not be a member of any
// of the groups (open-group semantics). See MulticastWith for what a nil
// return means.
func (c *Conn) Multicast(service wire.Service, payload []byte, groups ...string) error {
	return c.MulticastWith(MulticastOptions{}, service, payload, groups...)
}

// MulticastWith is Multicast with options. A nil return means the message
// is queued behind every frame this connection sent before it: a writer
// goroutine sends whatever is queued when it wakes — a run — in one write,
// so calls made while a write is in flight share the next one. It does not
// mean the daemon has the message. A write that fails surfaces where a
// dropped connection does — Disconnected on a managed connection, a closed
// Events channel on an unmanaged one — and what was queued behind it is
// dropped. While at least sendQueueBytes are queued the call blocks, until
// the writer takes a run or the connection drops or is closed. While a
// managed connection is between attempts it fails with ErrReconnecting —
// messages are not queued for an absent daemon. payload and groups are
// copied before the call returns.
func (c *Conn) MulticastWith(opts MulticastOptions, service wire.Service, payload []byte, groups ...string) error {
	if len(groups) == 0 {
		return errors.New("client: no destination groups")
	}
	if !service.Valid() {
		return fmt.Errorf("client: invalid service %d", uint8(service))
	}
	var flags byte
	if opts.SelfDiscard {
		flags |= 1 // keep in sync with the daemon's flagSelfDiscard
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.roomLocked(); err != nil {
		return err
	}
	// Validated and encoded header and all onto the end of the queue: what
	// the daemon would drop fails here, with nothing queued.
	return c.queueLocked(ipc.AppendMulticast(c.out, c.private, service, flags, groups, payload))
}

// Stats requests the daemon's observability snapshot: per-client submit
// and delivery counters, group/session totals, and the ring node's full
// metrics (StatsSnapshot.Node, as raw JSON decodable into
// accelring.MetricsSnapshot). Concurrent callers are serialized.
func (c *Conn) Stats() (ipc.StatsSnapshot, error) {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	select {
	case <-c.statsCh: // discard a stale response from an abandoned call
	default:
	}
	if err := c.sendFrame(ipc.CmdStats, nil); err != nil {
		return ipc.StatsSnapshot{}, err
	}
	select {
	case body := <-c.statsCh:
		var snap ipc.StatsSnapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			return ipc.StatsSnapshot{}, fmt.Errorf("client: bad stats frame: %w", err)
		}
		return snap, nil
	case <-c.done:
		return ipc.StatsSnapshot{}, ErrClosed
	}
}

// Close terminates the connection: it sends what is still queued and then
// a goodbye, which tells the daemon to drop the session now rather than
// hold it for the resume window — best effort, bounded by one second.
// Close is idempotent and concurrent-safe; operations after it, and
// senders it finds blocked on a full queue, return ErrClosed.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	if c.conn != nil {
		c.conn.SetWriteDeadline(time.Now().Add(time.Second))
		c.out, _ = ipc.AppendFrame(c.out, ipc.CmdGoodbye, nil) // an empty body always fits
	}
	c.shutLocked()
	c.mu.Unlock()
	c.doneOnce.Do(func() { close(c.done) })
	// The writer closes the transport once the queue is out, which ends
	// the reader.
	c.wg.Wait()
	return nil
}

// sendFrame queues one frame for the live transport.
func (c *Conn) sendFrame(typ byte, body []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.roomLocked(); err != nil {
		return err
	}
	return c.queueLocked(ipc.AppendFrame(c.out, typ, body))
}

// roomLocked waits until the queue can take another frame and reports why
// it cannot, if it cannot: the connection is closed, or has no transport.
// Caller holds c.mu, which is released while waiting.
func (c *Conn) roomLocked() error {
	for {
		switch {
		case c.closed:
			return ErrClosed
		case c.conn == nil && c.managed:
			return ErrReconnecting
		case c.conn == nil:
			return ErrClosed
		case len(c.out) < sendQueueBytes:
			return nil
		}
		c.wake.Wait()
	}
}

// queueLocked takes the result of an append-style encode onto c.out: the
// frame is now queued, in call order, and the writer is told. Caller holds
// c.mu and has had a nil from roomLocked since taking it.
func (c *Conn) queueLocked(out []byte, err error) error {
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	c.out = out
	c.wake.Broadcast()
	return nil
}

// writeLoop is the connection's one send path. A run is whatever is queued
// when it wakes — no timer; a lone frame is a run of one — and leaves in
// one Write while senders fill the other of the two buffers, so steady
// state allocates nothing. A failed Write ends the attachment: the reader
// is woken by closing the transport and reports it. On a closed connection
// the loop writes out what is queued, closes the transport and returns.
func (c *Conn) writeLoop() {
	defer c.wg.Done()
	var run []byte
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for c.conn == nil || len(c.out) == 0 {
			if c.closed {
				if c.conn != nil {
					c.conn.Close()
				}
				return
			}
			c.wake.Wait()
		}
		conn := c.conn
		run, c.out = c.out, run[:0]
		c.wake.Broadcast() // room
		c.mu.Unlock()
		_, err := conn.Write(run)
		c.mu.Lock()
		if err != nil {
			c.detachLocked(conn, err)
			conn.Close()
		}
	}
}

// detachLocked ends the attachment over conn unless something already
// has: the connection has no transport from here on, err is why, and what
// was queued for the lost transport is dropped — messages are not kept for
// an absent daemon. Caller holds c.mu.
func (c *Conn) detachLocked(conn net.Conn, err error) {
	if c.conn != conn {
		return
	}
	c.conn, c.lost, c.out = nil, err, c.out[:0]
	c.wake.Broadcast()
}

// shutLocked marks the connection closed and tells the writer and any
// blocked sender. Caller holds c.mu.
func (c *Conn) shutLocked() {
	c.closed = true
	c.wake.Broadcast()
}

// emit delivers a lifecycle or data event, giving up when the connection
// closes so a consumer that stopped draining cannot wedge the supervisor
// forever.
func (c *Conn) emit(ev Event) {
	select {
	case c.events <- ev:
	case <-c.done:
	}
}

// isClosed reports whether Close ran or reconnects are exhausted.
func (c *Conn) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// run is the connection lifecycle: read until the transport drops, then —
// unmanaged — close the Events channel, or — managed — hand the outage to
// the supervisor.
func (c *Conn) run(conn net.Conn) {
	defer c.wg.Done()
	err := c.readConn(conn)
	if c.managed {
		c.supervise(conn, err)
		return
	}
	conn.Close()
	c.mu.Lock()
	c.detachLocked(conn, err)
	c.shutLocked()
	c.mu.Unlock()
	c.doneOnce.Do(func() { close(c.done) })
	close(c.events)
}

// supervise owns a managed connection's lifecycle after its first
// transport failure: emit Disconnected, redial with backoff, resume or
// re-establish the session, emit Reconnected (and Gap when continuity
// broke), then read until the next failure.
func (c *Conn) supervise(conn net.Conn, err error) {
	defer close(c.events)
	for {
		conn.Close()
		c.mu.Lock()
		c.detachLocked(conn, err)
		err = c.lost
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return
		}
		c.emit(Disconnected{Err: err})
		next, resumed, gap, attempts := c.reconnect()
		if next == nil {
			// Closed, or attempts exhausted: the connection is dead.
			c.mu.Lock()
			c.shutLocked()
			c.mu.Unlock()
			c.doneOnce.Do(func() { close(c.done) })
			return
		}
		c.emit(Reconnected{Resumed: resumed, Attempts: attempts})
		if gap {
			c.emit(Gap{})
		}
		conn = next
		err = c.readConn(conn)
	}
}

// reconnect dials until a session is serving again. It returns the new
// transport, whether the session was resumed, whether stream continuity
// broke (fresh session, or the daemon dropped frames while away), and the
// attempt count — or a nil transport when closed or out of attempts.
func (c *Conn) reconnect() (conn net.Conn, resumed, gap bool, attempts int) {
	backoff := c.opts.BackoffMin
	for {
		if c.isClosed() {
			return nil, false, false, attempts
		}
		if c.opts.MaxAttempts > 0 && attempts >= c.opts.MaxAttempts {
			return nil, false, false, attempts
		}
		attempts++
		conn, resumed, gap, err := c.tryConnect()
		if err == nil {
			return conn, resumed, gap, attempts
		}
		select {
		case <-time.After(jitter(backoff)):
		case <-c.done:
			return nil, false, false, attempts
		}
		if backoff *= 2; backoff > c.opts.BackoffMax {
			backoff = c.opts.BackoffMax
		}
	}
}

// tryConnect makes one reconnect attempt: dial, resume the session if one
// exists (CmdResume), fall back to a fresh handshake otherwise, reconcile
// interest state, and install the transport.
func (c *Conn) tryConnect() (net.Conn, bool, bool, error) {
	d := net.Dialer{Timeout: c.opts.DialTimeout}
	conn, err := d.Dial(c.network, c.addr)
	if err != nil {
		return nil, false, false, err
	}
	conn.SetDeadline(time.Now().Add(c.opts.DialTimeout))
	c.mu.Lock()
	sid, stamp, name := c.sessionID, c.lastStamp, c.name
	seqs := make(map[string]uint64, len(c.groupSeqs))
	for g, s := range c.groupSeqs {
		seqs[g] = s
	}
	c.mu.Unlock()

	resumed, gap := false, false
	var private string
	var newSid uint64
	if sid != 0 {
		body := ipc.PutString(nil, name)
		body = ipc.PutUint64(body, sid)
		body = ipc.PutUint64(body, stamp)
		body = putSeqs(body, seqs)
		if err := ipc.WriteFrame(conn, ipc.CmdResume, body); err != nil {
			conn.Close()
			return nil, false, false, err
		}
		typ, resp, err := ipc.ReadFrame(conn)
		if err != nil || typ != ipc.EvtResumed || len(resp) < 1 {
			conn.Close()
			return nil, false, false, fmt.Errorf("client: resume handshake failed (frame %d, %v)", typ, err)
		}
		flags := resp[0]
		private, resp, err = ipc.GetString(resp[1:])
		if err != nil {
			conn.Close()
			return nil, false, false, err
		}
		newSid, _, _ = ipc.GetUint64(resp)
		resumed = flags&ipc.ResumedFlagResumed != 0
		gap = !resumed || flags&ipc.ResumedFlagGap != 0
	} else {
		// Daemon without resume: plain fresh handshake, continuity lost.
		private, newSid, err = handshake(conn, name)
		if err != nil {
			conn.Close()
			return nil, false, false, err
		}
		gap = true
	}
	conn.SetDeadline(time.Time{})

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		conn.Close()
		return nil, false, false, ErrClosed
	}
	c.private = private
	if newSid != 0 {
		c.sessionID = newSid
	}
	if !resumed {
		// Fresh session: the old stream is gone, cursors restart.
		c.lastStamp = 0
		c.groupSeqs = make(map[string]uint64)
		c.pendingLeaves = make(map[string]bool)
		c.pendingUnsubs = make(map[string]bool)
	}
	// Attach: the queue is empty (detach dropped it and nothing is admitted
	// without a transport), so the interest replay goes out ahead of every
	// frame the application sends on this attachment.
	c.conn = conn
	c.queueReplayLocked(resumed)
	c.reconnects++
	if resumed {
		c.resumes++
	}
	return conn, resumed, gap, nil
}

// queueReplayLocked queues the interest reconciliation for a fresh
// transport: joins and subscriptions always (idempotent at the daemon),
// plus — on a resumed session — the leaves and unsubscribes issued while
// disconnected. Group names were checked when they were recorded, so the
// frames cannot fail to encode. Caller holds c.mu.
func (c *Conn) queueReplayLocked(resumed bool) {
	replay := func(typ byte, groups map[string]bool) {
		for g := range groups {
			c.out, _ = ipc.AppendFrame(c.out, typ, ipc.PutString(nil, g))
		}
	}
	replay(ipc.CmdJoin, c.joined)
	replay(ipc.CmdSubscribe, c.subscribed)
	if resumed {
		replay(ipc.CmdLeave, c.pendingLeaves)
		replay(ipc.CmdUnsubscribe, c.pendingUnsubs)
	}
	c.pendingLeaves = make(map[string]bool)
	c.pendingUnsubs = make(map[string]bool)
	c.wake.Broadcast()
}

// putSeqs encodes the per-group cursor list of a CmdResume body.
func putSeqs(dst []byte, seqs map[string]uint64) []byte {
	var cnt [2]byte
	cnt[0] = byte(len(seqs) >> 8)
	cnt[1] = byte(len(seqs))
	dst = append(dst, cnt[:]...)
	for g, s := range seqs {
		dst = ipc.PutString(dst, g)
		dst = ipc.PutUint64(dst, s)
	}
	return dst
}

// readConn pumps frames from one transport until it fails, emitting
// events; on managed connections it also dedups replayed messages by
// stamp and flags per-group sequence gaps. Frames are decoded in place
// from the reader's buffer: what an event keeps is copied out of it.
func (c *Conn) readConn(conn net.Conn) error {
	rd := ipc.NewReader(conn)
	names := make(nameTable)
	for {
		typ, body, err := rd.Next()
		if err != nil {
			return err
		}
		switch typ {
		case ipc.EvtMessage:
			m, err := decodeMessage(body, names)
			if err != nil {
				return err
			}
			if c.managed {
				gaps, dup := c.trackMessage(&m)
				for _, g := range gaps {
					c.emit(g)
				}
				if dup {
					continue
				}
			}
			c.emit(m)
		case ipc.EvtView:
			v, err := decodeView(body)
			if err != nil {
				return err
			}
			c.emit(v)
		case ipc.EvtStats:
			select {
			case c.statsCh <- append([]byte(nil), body...):
			default: // no Stats call waiting; drop the response
			}
		case ipc.EvtDrain:
			c.emit(Draining{})
		case ipc.EvtResumed:
			// Only expected during the reconnect handshake; mid-stream it
			// is a protocol error, but harmless — ignore.
		}
	}
}

// trackMessage advances the delivery cursors: duplicates (stamp at or
// below the resume point — the daemon replayed frames the client already
// had) are suppressed, and sequence jumps in groups this client tracks
// become Gap events. Messages for groups of transient interest (left
// since) still pass through, untracked.
func (c *Conn) trackMessage(m *Message) (gaps []Event, dup bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m.Stamp != 0 {
		if m.Stamp <= c.lastStamp {
			return nil, true
		}
		c.lastStamp = m.Stamp
	}
	for i, g := range m.Groups {
		if i >= len(m.Seqs) {
			break
		}
		if !c.joined[g] && !c.subscribed[g] {
			continue
		}
		seq := m.Seqs[i]
		if prev := c.groupSeqs[g]; prev != 0 && seq > prev+1 {
			gaps = append(gaps, Gap{Group: g, Missed: seq - prev - 1})
		}
		if seq > c.groupSeqs[g] {
			c.groupSeqs[g] = seq
		}
	}
	return gaps, false
}

// jitter spreads a backoff delay over [3d/4, 5d/4) so a daemon restart
// does not see every client redial in lockstep.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return 3*d/4 + time.Duration(rand.Int63n(int64(d)/2+1))
}

// nameTable interns the sender and group names of one connection's
// messages: the same few strings arrive with every message, so each is
// allocated once and found again from the frame's bytes without
// allocating. Bounded, so a stream of ever-new names cannot grow it
// without limit; past the bound new names are simply not interned. A nil
// table interns nothing.
type nameTable map[string]string

const nameTableMax = 1024

func (t nameTable) intern(b []byte) string {
	if s, ok := t[string(b)]; ok { // no allocation: lookup only
		return s
	}
	s := string(b)
	if t != nil && len(t) < nameTableMax {
		t[s] = s
	}
	return s
}

// getName consumes a length-prefixed name, interned through names.
func getName(src []byte, names nameTable) (string, []byte, error) {
	b, rest, err := ipc.GetBytes(src)
	if err != nil {
		return "", nil, err
	}
	return names.intern(b), rest, nil
}

// decodeMessage decodes an EvtMessage body borrowed from the reader: the
// returned Message shares nothing with it — the payload is copied, names
// come from the table.
func decodeMessage(body []byte, names nameTable) (Message, error) {
	var m Message
	if len(body) < 1 {
		return m, ipc.ErrBadFrame
	}
	m.Service = wire.Service(body[0])
	body = body[1:]
	var err error
	m.Stamp, body, err = ipc.GetUint64(body)
	if err != nil {
		return m, err
	}
	m.Sender, body, err = getName(body, names)
	if err != nil {
		return m, err
	}
	if len(body) < 2 {
		return m, ipc.ErrBadFrame
	}
	n := int(body[0])<<8 | int(body[1])
	body = body[2:]
	if n > wire.MaxGroups {
		return m, ipc.ErrBadFrame
	}
	m.Groups = make([]string, 0, n)
	m.Seqs = make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		var g string
		var s uint64
		g, body, err = getName(body, names)
		if err != nil {
			return m, err
		}
		s, body, err = ipc.GetUint64(body)
		if err != nil {
			return m, err
		}
		m.Groups = append(m.Groups, g)
		m.Seqs = append(m.Seqs, s)
	}
	m.Payload = make([]byte, len(body))
	copy(m.Payload, body)
	return m, nil
}

func decodeView(body []byte) (View, error) {
	var v View
	var err error
	v.Group, body, err = ipc.GetString(body)
	if err != nil {
		return v, err
	}
	v.Members, _, err = ipc.GetStrings(body)
	if err != nil {
		return v, err
	}
	return v, nil
}
