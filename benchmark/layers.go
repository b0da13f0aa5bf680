package main

import (
	"fmt"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"accelring"
	"accelring/internal/client"
	"accelring/internal/fanout"
	"accelring/internal/ipc"
	"accelring/internal/multiring"
	"accelring/internal/wire"
)

// Layer figures come from three places, all in the benchmark's own files:
// the layers' public snapshots differenced over the windows of a run
// (this file, counters), stack arms (trace mode in main.go) and direct
// calls into a layer's public functions (this file, the *Bench functions).

// counter indexes one cumulative count taken from the process and from
// every node of a stack.
type counter int

const (
	cMallocs counter = iota
	cGCPauseNs
	cCPUNs
	cMsgsSent
	cMsgsPostToken
	cRetransmits
	cFlowThrottled
	cRounds // tokens processed at the first member: one per rotation
	cSendSyscalls
	cRecvSyscalls
	cSendBatchSum
	cSendBatchCount
	cRecvBatchSum
	cRecvBatchCount
	cDatagramsOut
	cSockDrops
	cPoolHits
	cPoolMisses
	cDecided
	cDecideRoundsSum
	cDecideRoundsCount
	nCounters
)

// counterSample is every counter at one instant, plus the first member's
// token-rotation histogram.
type counterSample struct {
	at       time.Time
	c        [nCounters]float64
	rotation accelring.HistogramSnapshot
}

// counterDelta is the change between two samples, with the serving tier's
// end-of-run figures beside it.
type counterDelta struct {
	wall           time.Duration
	c              [nCounters]float64
	rotationP50us  float64
	queueHighwater float64
	shed           float64
}

func sampleCounters(st *stack) counterSample {
	s := counterSample{at: time.Now()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.c[cMallocs] = float64(ms.Mallocs)
	s.c[cGCPauseNs] = float64(ms.PauseTotalNs)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.c[cCPUNs] = float64(ru.Utime.Nano() + ru.Stime.Nano())
	}
	for i, n := range st.nodes {
		m, err := n.Metrics()
		if err != nil {
			continue // node closed: the run reports that itself
		}
		s.c[cMsgsSent] += float64(m.Engine.MsgsSent)
		s.c[cMsgsPostToken] += float64(m.Engine.MsgsPostToken)
		s.c[cRetransmits] += float64(m.Engine.MsgsRetransmitted)
		s.c[cFlowThrottled] += float64(m.Engine.FlowThrottledRounds)
		if i == 0 {
			s.c[cRounds] = float64(m.Engine.TokensProcessed)
			s.rotation = m.Runtime.TokenRotation
			// The pool is process-wide; count it once.
			s.c[cPoolHits] = float64(m.BufferPool.Hits)
			s.c[cPoolMisses] = float64(m.BufferPool.Misses)
		}
		if t := m.Transport; t != nil {
			s.c[cSendSyscalls] += float64(t.SendSyscalls)
			s.c[cRecvSyscalls] += float64(t.RecvSyscalls)
			s.c[cSendBatchSum] += float64(t.SendBatch.Sum)
			s.c[cSendBatchCount] += float64(t.SendBatch.Count)
			s.c[cRecvBatchSum] += float64(t.RecvBatch.Sum)
			s.c[cRecvBatchCount] += float64(t.RecvBatch.Count)
			s.c[cDatagramsOut] += float64(t.DatagramsOut)
			s.c[cSockDrops] += float64(t.RecvQueueDrops)
		}
		if p := m.Paxos; p != nil {
			// Every member learns the same decided watermark; only the
			// coordinator counts decide rounds, wherever it sits.
			s.c[cDecided] = max(s.c[cDecided], float64(p.Decided))
			s.c[cDecideRoundsSum] += float64(p.DecideRoundsSum)
			s.c[cDecideRoundsCount] += float64(p.DecideRoundsCount)
		}
	}
	return s
}

func (s counterSample) since(before counterSample) *counterDelta {
	d := &counterDelta{wall: s.at.Sub(before.at)}
	for i := range s.c {
		d.c[i] = s.c[i] - before.c[i]
	}
	// Median of the rotations observed between the two samples, linearly
	// interpolated inside its histogram bucket.
	var total float64
	counts := make([]float64, len(s.rotation.Buckets))
	for i, b := range s.rotation.Buckets {
		counts[i] = float64(b.Count)
		if i < len(before.rotation.Buckets) {
			counts[i] -= float64(before.rotation.Buckets[i].Count)
		}
		total += counts[i]
	}
	var seen, lower float64
	for i, b := range s.rotation.Buckets {
		if counts[i] > 0 && seen+counts[i] >= total/2 {
			upper := float64(b.UpperNs)
			if upper == 0 { // overflow bucket
				upper = lower
			}
			d.rotationP50us = (lower + (upper-lower)*(total/2-seen)/counts[i]) / 1e3
			break
		}
		seen += counts[i]
		if b.UpperNs != 0 {
			lower = float64(b.UpperNs)
		}
	}
	return d
}

// addServing reads the serving tier's figures while the clients are still
// connected: the deepest any client's delivery queue got, and what the
// backpressure policy dropped or cut off.
func (d *counterDelta) addServing(st *stack) {
	for _, dm := range st.daemons {
		snap := dm.Snapshot()
		d.shed += float64(snap.Shed + snap.Disconnects)
	}
	for _, c := range st.conns {
		stats, err := c.Stats()
		if err != nil {
			continue
		}
		for _, cs := range stats.Clients {
			d.queueHighwater = max(d.queueHighwater, float64(cs.HighWater))
		}
	}
}

// ratio is a/b, or 0 when b is 0, so an idle counter never yields NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timed runs f n times and returns the time and the heap allocations per
// call. Nothing else in the process should be running.
func timed(n int, f func()) (nsPerOp, allocsPerOp float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	took := time.Since(t0)
	runtime.ReadMemStats(&after)
	return float64(took.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// unixPair returns the two ends of a connected Unix stream socket.
func unixPair(sockDir, name string) (a, b net.Conn, err error) {
	ln, err := net.Listen("unix", filepath.Join(sockDir, name))
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	a, err = net.Dial("unix", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	b, err = ln.Accept()
	if err != nil {
		a.Close()
		return nil, nil, err
	}
	return a, b, nil
}

// ipcBench times one frame through WriteFrame, a Unix socket and
// ReadFrame, at the given body size.
func ipcBench(sockDir string, size int) (ns, allocs float64, err error) {
	const frames = 20000
	wr, rd, err := unixPair(sockDir, "ipc.sock")
	if err != nil {
		return 0, 0, err
	}
	defer wr.Close()
	defer rd.Close()
	body := make([]byte, size)
	errs := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			if err := ipc.WriteFrame(wr, ipc.EvtMessage, body); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	var rerr error
	ns, allocs = timed(frames, func() {
		if _, _, err := ipc.ReadFrame(rd); err != nil && rerr == nil {
			rerr = err
			rd.Close() // unblock the writer
		}
	})
	if werr := <-errs; rerr == nil {
		rerr = werr
	}
	return ns, allocs, rerr
}

// clientAllocs counts the client library's heap allocations per Multicast
// on a connection whose far end is a stub that answers the handshake and
// then discards everything, so nothing else in the process allocates.
func clientAllocs(sockDir string, payload int) (float64, error) {
	near, far, err := unixPair(sockDir, "client.sock")
	if err != nil {
		return 0, err
	}
	stub := make(chan error, 1)
	go func() {
		defer far.Close()
		if _, _, err := ipc.ReadFrame(far); err != nil {
			stub <- err
			return
		}
		welcome := ipc.PutUint64(ipc.PutString(nil, "bench@stub"), 1)
		if err := ipc.WriteFrame(far, ipc.EvtWelcome, welcome); err != nil {
			stub <- err
			return
		}
		_, err := io.Copy(io.Discard, far)
		stub <- err
	}()
	conn, err := client.New(near, "bench")
	if err != nil {
		return 0, err
	}
	body := make([]byte, payload)
	var merr error
	_, allocs := timed(5000, func() {
		if err := conn.Multicast(accelring.Agreed, body, benchGroup); err != nil && merr == nil {
			merr = err
		}
	})
	conn.Close()
	if err := <-stub; merr == nil && err != nil {
		merr = fmt.Errorf("stub daemon: %w", err)
	}
	return allocs, merr
}

type discardSink struct{}

func (discardSink) WriteFrame(byte, []byte) error { return nil }

// fanoutBench times Tier.Publish of one frame to the given number of
// in-memory subscribers. It publishes in bursts shorter than a
// subscriber's queue and lets the writers catch up between bursts, untimed,
// so the disconnect policy never fires.
func fanoutBench(subscribers int) (ns, allocs float64) {
	const burst = 1024
	bursts := max(2, 32/subscribers)
	tier := fanout.NewTier(fanout.Config{})
	subs := make([]*fanout.Subscriber, subscribers)
	for i := range subs {
		subs[i] = tier.Register(discardSink{}, nil, nil)
		tier.Subscribe(subs[i], benchGroup, fanout.SourceExplicit)
	}
	groups := []string{benchGroup}
	body := make([]byte, 64)
	var stamp uint64
	for b := 0; b < bursts; b++ {
		n, a := timed(burst, func() {
			stamp++
			tier.Publish(groups, ipc.EvtMessage, body, stamp, nil)
		})
		ns += n / float64(bursts)
		allocs += a / float64(bursts)
		for tier.Backlog() > 0 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	for _, s := range subs {
		tier.Unregister(s)
	}
	return ns, allocs
}

// wireBench times an encode plus a decode of one data message of the given
// payload size, and of one token.
func wireBench(payload int) (dataNs, tokenNs, allocs float64, err error) {
	const n = 100000
	ring := wire.RingID{Rep: 1, Seq: 1}
	msg := wire.DataMessage{RingID: ring, Seq: 7, PID: 1, Round: 3, Service: wire.ServiceAgreed, Payload: make([]byte, payload)}
	tok := wire.Token{RingID: ring, TokenSeq: 9, Round: 3, Seq: 70, ARU: 60, RTR: []wire.Seq{61, 62}}
	var buf []byte
	var dmsg wire.DataMessage
	var dtok wire.Token
	dataNs, a1 := timed(n, func() {
		var e error
		if buf, e = wire.AppendData(buf[:0], &msg); e != nil {
			err = e
		} else if e = wire.DecodeDataInto(&dmsg, buf); e != nil {
			err = e
		}
	})
	tokenNs, a2 := timed(n, func() {
		var e error
		if buf, e = wire.AppendToken(buf[:0], &tok); e != nil {
			err = e
		} else if e = wire.DecodeTokenInto(&dtok, buf); e != nil {
			err = e
		}
	})
	return dataNs, tokenNs, a1 + a2, err
}

// multiringBench times the merge of four rings' unit streams and one
// envelope encode plus decode.
func multiringBench() (mergeNs, envelopeNs float64, err error) {
	const rings, units = 4, 100000
	m := multiring.NewMerger(rings)
	groups := []string{benchGroup}
	payload := make([]byte, 64)
	t0 := time.Now()
	for i := 0; i < units; i++ {
		m.Push(i%rings, multiring.Unit{
			Key: multiring.MsgKey{Sender: 1, Seq: uint64(i)}, Shards: 1,
			Groups: groups, Service: wire.ServiceAgreed, Payload: payload,
		})
	}
	merged := 0
	for {
		if _, ok := m.Next(); !ok {
			break
		}
		merged++
	}
	mergeNs = float64(time.Since(t0).Nanoseconds()) / units
	if merged != units {
		return 0, 0, fmt.Errorf("merger emitted %d of %d units", merged, units)
	}
	var buf []byte
	envelopeNs, _ = timed(units, func() {
		var e error
		if buf, e = multiring.AppendMessageEnvelope(buf[:0], multiring.MsgKey{Sender: 1, Seq: 5}, 1, groups, payload); e != nil {
			err = e
		} else if _, e = multiring.DecodeEnvelope(buf); e != nil {
			err = e
		}
	})
	return mergeNs, envelopeNs, err
}
