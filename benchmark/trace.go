package main

import (
	"encoding/json"
	"os"
	"slices"
	"time"
)

// Harness spans. They are recorded from the benchmark's own files around
// the calls into the client library, for one message in spanSampleEvery on
// the full stack, kept in memory and written out when the run ends. Times
// are offsets on the run's monotonic clock.

// sendSpan is the sender's half of a sampled message: the Multicast call.
type sendSpan struct {
	msg        uint64
	start, end time.Duration
}

// recvSpan is the other client's half: arrival on Events and the end of
// the harness's handling.
type recvSpan struct {
	msg           uint64
	arrived, done time.Duration
}

func messageID(sender int, seq uint64) uint64 { return uint64(sender)<<56 | seq }

// span is one entry of trace.json. The three spans of a message share its
// id and form a chain through Parent.
type span struct {
	Name    string `json:"name"`
	Msg     uint64 `json:"msg"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  string `json:"parent,omitempty"`
}

const (
	spanMulticast = "client.multicast" // the Multicast call: body build and socket write
	spanTransit   = "transit"          // Multicast returned -> arrival on the other client's Events
	spanRecv      = "client.recv"      // arrival -> harness handler done
)

// joinSpans pairs each sampled message's send half with the receive half
// recorded at the other side. Call it after the load has shut down.
func joinSpans(sides [2]*side) []span {
	var out []span
	for i, s := range sides {
		recv := make(map[uint64]recvSpan)
		for _, r := range sides[1-i].recvSpans {
			recv[r.msg] = r
		}
		for _, snd := range s.sendSpans {
			r, ok := recv[snd.msg]
			if !ok {
				continue
			}
			out = append(out,
				span{Name: spanMulticast, Msg: snd.msg, StartNs: int64(snd.start), EndNs: int64(snd.end)},
				span{Name: spanTransit, Msg: snd.msg, StartNs: int64(snd.end), EndNs: int64(r.arrived), Parent: spanMulticast},
				span{Name: spanRecv, Msg: snd.msg, StartNs: int64(r.arrived), EndNs: int64(r.done), Parent: spanTransit},
			)
		}
	}
	return out
}

// spanMedianNs is the median duration of the spans with the given name.
func spanMedianNs(spans []span, name string) float64 {
	var d []float64
	for _, s := range spans {
		if s.Name == name {
			d = append(d, float64(s.EndNs-s.StartNs))
		}
	}
	slices.Sort(d)
	return quantile(d, 0.5)
}

func writeTrace(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
