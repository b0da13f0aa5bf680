package multiring

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"accelring/internal/wire"
)

func msg(sender wire.ParticipantID, seq uint64) Unit {
	return Unit{
		Key:     MsgKey{Sender: sender, Seq: seq},
		Shards:  1,
		Groups:  []string{"g"},
		Service: wire.ServiceAgreed,
		Payload: []byte(fmt.Sprintf("%d/%d", sender, seq)),
	}
}

func multi(sender wire.ParticipantID, seq uint64, shards int) Unit {
	u := msg(sender, seq)
	u.Shards = shards
	return u
}

func skip(count uint32) Unit {
	return Unit{Skip: true, SkipCount: count}
}

// runSchedule feeds the per-ring streams to a fresh merger following one
// arrival interleaving (a sequence of ring indices) and returns the merged
// output. When eager, the merger is drained after every push; otherwise
// only once at the end — both must produce identical results, since the
// merge is a pure function of the streams.
func runSchedule(rings int, streams [][]Unit, order []int, eager bool) []Merged {
	m := NewMerger(rings)
	var out []Merged
	drain := func() {
		for {
			d, ok := m.Next()
			if !ok {
				return
			}
			out = append(out, d)
		}
	}
	cursor := make([]int, rings)
	for _, r := range order {
		m.Push(r, streams[r][cursor[r]])
		cursor[r]++
		if eager {
			drain()
		}
	}
	drain()
	return out
}

// schedules builds arrival interleavings of the given per-ring stream
// lengths: round-robin, ring-sequential, reverse-sequential, and seeded
// random shuffles. All preserve per-ring order by construction (an
// interleaving only says whose next unit arrives).
func schedules(lens []int, seed int64, random int) [][]int {
	var base []int
	for r, n := range lens {
		for i := 0; i < n; i++ {
			base = append(base, r)
		}
	}
	rr := make([]int, 0, len(base))
	cursor := make([]int, len(lens))
	for len(rr) < len(base) {
		for r, n := range lens {
			if cursor[r] < n {
				rr = append(rr, r)
				cursor[r]++
			}
		}
	}
	seq := append([]int(nil), base...)
	rev := make([]int, 0, len(base))
	for r := len(lens) - 1; r >= 0; r-- {
		for i := 0; i < lens[r]; i++ {
			rev = append(rev, r)
		}
	}
	out := [][]int{rr, seq, rev}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < random; i++ {
		s := append([]int(nil), base...)
		rng.Shuffle(len(s), func(a, b int) { s[a], s[b] = s[b], s[a] })
		out = append(out, s)
	}
	return out
}

// TestMergeDeterminism is the table-driven determinism suite: for each
// case, every arrival interleaving of the same per-ring sequences — and
// both eager and lazy draining — must yield the byte-identical merged
// order, including ring and turn assignments.
func TestMergeDeterminism(t *testing.T) {
	cases := []struct {
		name    string
		streams [][]Unit
		// want is the expected (sender, seq, turn) triple sequence; nil
		// skips the golden check and only asserts cross-schedule equality.
		want []Merged
	}{
		{
			name:    "single ring passthrough",
			streams: [][]Unit{{msg(1, 1), msg(2, 1), msg(1, 2)}},
			want: []Merged{
				{Unit: msg(1, 1), Ring: 0, Turn: 0},
				{Unit: msg(2, 1), Ring: 0, Turn: 1},
				{Unit: msg(1, 2), Ring: 0, Turn: 2},
			},
		},
		{
			name: "two rings strict alternation",
			streams: [][]Unit{
				{msg(1, 1), msg(1, 3)},
				{msg(1, 2), msg(1, 4)},
			},
			want: []Merged{
				{Unit: msg(1, 1), Ring: 0, Turn: 0},
				{Unit: msg(1, 2), Ring: 1, Turn: 1},
				{Unit: msg(1, 3), Ring: 0, Turn: 2},
				{Unit: msg(1, 4), Ring: 1, Turn: 3},
			},
		},
		{
			name: "skip unit pads an idle ring",
			streams: [][]Unit{
				{msg(1, 1), msg(1, 2)},
				{skip(1), skip(1)},
			},
			want: []Merged{
				{Unit: msg(1, 1), Ring: 0, Turn: 0},
				{Unit: msg(1, 2), Ring: 0, Turn: 2},
			},
		},
		{
			name: "batched skip grants credits across turns",
			streams: [][]Unit{
				{msg(1, 1), msg(1, 2), msg(1, 3)},
				{skip(3)},
			},
			want: []Merged{
				{Unit: msg(1, 1), Ring: 0, Turn: 0},
				{Unit: msg(1, 2), Ring: 0, Turn: 2},
				{Unit: msg(1, 3), Ring: 0, Turn: 4},
			},
		},
		{
			name: "multi-shard message emitted at last copy",
			streams: [][]Unit{
				{multi(7, 9, 2), msg(1, 1)},
				{msg(1, 2), multi(7, 9, 2)},
			},
			want: []Merged{
				// turn 0: ring0 consumes copy 1/2 of (7,9) — pending.
				{Unit: msg(1, 2), Ring: 1, Turn: 1},
				{Unit: msg(1, 1), Ring: 0, Turn: 2},
				{Unit: multi(7, 9, 2), Ring: 1, Turn: 3},
			},
		},
		{
			name: "four rings mixed skips and messages",
			streams: [][]Unit{
				{msg(1, 1), msg(1, 5)},
				{skip(2)},
				{msg(2, 1), multi(3, 1, 2)},
				{multi(3, 1, 2), skip(1)},
			},
		},
		{
			name: "uneven load with large skip batches",
			streams: [][]Unit{
				{msg(1, 1), msg(1, 2), msg(1, 3), msg(1, 4), msg(1, 5)},
				{skip(5)},
				{skip(2), msg(2, 1), skip(2)},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lens := make([]int, len(tc.streams))
			for i, s := range tc.streams {
				lens[i] = len(s)
			}
			var ref []Merged
			for si, order := range schedules(lens, 0x5eed, 8) {
				for _, eager := range []bool{false, true} {
					got := runSchedule(len(tc.streams), tc.streams, order, eager)
					if ref == nil {
						ref = got
						if tc.want != nil && !reflect.DeepEqual(got, tc.want) {
							t.Fatalf("golden mismatch:\n got %+v\nwant %+v", got, tc.want)
						}
						continue
					}
					if !reflect.DeepEqual(got, ref) {
						t.Fatalf("schedule %d (eager=%v) diverged:\n got %+v\nref %+v",
							si, eager, got, ref)
					}
				}
			}
		})
	}
}

func TestMergeStallsWithoutInput(t *testing.T) {
	m := NewMerger(2)
	m.Push(0, msg(1, 1))
	d, ok := m.Next()
	if !ok || d.Turn != 0 {
		t.Fatalf("first message should merge at turn 0, got %+v ok=%v", d, ok)
	}
	m.Push(0, msg(1, 2))
	if _, ok := m.Next(); ok {
		t.Fatal("merge advanced past a starved ring")
	}
	m.Push(1, skip(1))
	d, ok = m.Next()
	if !ok || d.Turn != 2 || d.Key != (MsgKey{Sender: 1, Seq: 2}) {
		t.Fatalf("after skip: got %+v ok=%v", d, ok)
	}
}

// TestFifoCompaction pushes and pops enough units through one ring to force
// the fifo's in-place compaction several times over.
func TestFifoCompaction(t *testing.T) {
	m := NewMerger(1)
	next := uint64(1)
	for round := 0; round < 50; round++ {
		for i := 0; i < 40; i++ {
			m.Push(0, msg(1, next))
			next++
		}
		for i := 0; i < 40; i++ {
			d, ok := m.Next()
			if !ok {
				t.Fatalf("round %d: merge stalled at %d", round, i)
			}
			if want := uint64(round*40 + i); d.Turn != want {
				t.Fatalf("turn %d, want %d", d.Turn, want)
			}
		}
	}
}
