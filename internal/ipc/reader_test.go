package ipc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"accelring/internal/wire"
)

// chunkReader hands out its data in reads of the scripted sizes (the last
// size repeats), the way a socket hands out whatever has arrived.
type chunkReader struct {
	data  []byte
	sizes []int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := c.sizes[0]
	if len(c.sizes) > 1 {
		c.sizes = c.sizes[1:]
	}
	n = min(n, len(p), len(c.data))
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// frames encodes the bodies back to back, frame i with type i+1.
func frames(t testing.TB, bodies ...[]byte) []byte {
	t.Helper()
	var out []byte
	for i, b := range bodies {
		var err error
		if out, err = AppendFrame(out, byte(i+1), b); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestWriteFrameIsOneWrite: a frame leaves in a single Write, so two
// writers sharing a connection cannot interleave a header with another
// frame's body.
func TestWriteFrameIsOneWrite(t *testing.T) {
	var w countingWriter
	if err := WriteFrame(&w, CmdJoin, []byte("group")); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("WriteFrame issued %d writes, want 1", w.writes)
	}
	typ, body, err := ReadFrame(&w.buf)
	if err != nil || typ != CmdJoin || string(body) != "group" {
		t.Fatalf("read back (%d, %q, %v)", typ, body, err)
	}
}

type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

// TestReaderFrameBoundaries drives the Reader across every way a frame can
// straddle its fills and its buffer.
func TestReaderFrameBoundaries(t *testing.T) {
	big := bytes.Repeat([]byte{0xAB}, 3*readerInitial) // larger than the initial buffer
	exact := bytes.Repeat([]byte{0xCD}, MaxFrame-1)    // length field == MaxFrame
	cases := []struct {
		name   string
		bodies [][]byte
		sizes  []int
	}{
		{"one byte at a time", [][]byte{[]byte("a"), nil, []byte("ccc")}, []int{1}},
		{"header split across fills", [][]byte{[]byte("hello"), []byte("world")}, []int{2, 2, 3, 1 << 20}},
		{"several frames per fill", [][]byte{[]byte("x"), []byte("yy"), []byte("zzz")}, []int{1 << 20}},
		{"frame larger than the initial buffer", [][]byte{[]byte("pre"), big, []byte("post")}, []int{1 << 20}},
		{"frame larger than the initial buffer, trickled", [][]byte{big, []byte("post")}, []int{1000}},
		{"MaxFrame exactly", [][]byte{[]byte("pre"), exact, []byte("post")}, []int{1 << 20}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rd := NewReader(&chunkReader{data: frames(t, tc.bodies...), sizes: tc.sizes})
			for i, want := range tc.bodies {
				typ, body, err := rd.Next()
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if typ != byte(i+1) || !bytes.Equal(body, want) {
					t.Fatalf("frame %d: got (%d, %d bytes), want (%d, %d bytes)", i, typ, len(body), i+1, len(want))
				}
			}
			if _, _, err := rd.Next(); err != io.EOF {
				t.Fatalf("after the last frame: %v, want EOF", err)
			}
		})
	}
}

// TestReaderRejects: the malformed length fields fail exactly as they do
// in ReadFrame, after every good frame in front of them was returned.
func TestReaderRejects(t *testing.T) {
	good := frames(t, []byte("ok"))
	cases := []struct {
		name string
		tail []byte
		want error
	}{
		{"MaxFrame+1", binary.BigEndian.AppendUint32(nil, MaxFrame+1), ErrFrameTooLarge},
		{"zero-length length field", []byte{0, 0, 0, 0}, ErrFrameTooLarge},
		{"stream ends inside a header", []byte{0, 0}, io.ErrUnexpectedEOF},
		{"stream ends inside a body", []byte{0, 0, 0, 9, 1, 'x'}, io.ErrUnexpectedEOF},
		{"stream ends after a header", []byte{0, 0, 0, 9}, io.ErrUnexpectedEOF},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stream := append(append([]byte(nil), good...), tc.tail...)
			rd := NewReader(bytes.NewReader(stream))
			if _, body, err := rd.Next(); err != nil || string(body) != "ok" {
				t.Fatalf("good frame: (%q, %v)", body, err)
			}
			if _, _, err := rd.Next(); !errors.Is(err, tc.want) {
				t.Fatalf("Reader: %v, want %v", err, tc.want)
			}
			r := bytes.NewReader(stream)
			if _, _, err := ReadFrame(r); err != nil {
				t.Fatal(err)
			}
			if _, _, err := ReadFrame(r); !errors.Is(err, tc.want) {
				t.Fatalf("ReadFrame: %v, want %v", err, tc.want)
			}
		})
	}
}

// TestReaderBuffered: Buffered is true exactly while Next can return
// without touching the connection — what delimits a burst.
func TestReaderBuffered(t *testing.T) {
	stream := frames(t, []byte("one"), []byte("two"), []byte("three"))
	half := len(stream) - 3 // the third frame arrives torn
	src := &chunkReader{data: stream, sizes: []int{half, 1 << 20}}
	rd := NewReader(src)
	if rd.Buffered() {
		t.Fatal("Buffered before anything was read")
	}
	if _, body, err := rd.Next(); err != nil || string(body) != "one" {
		t.Fatalf("first: (%q, %v)", body, err)
	}
	if !rd.Buffered() {
		t.Fatal("second frame arrived in the same read but is not Buffered")
	}
	if _, body, err := rd.Next(); err != nil || string(body) != "two" {
		t.Fatalf("second: (%q, %v)", body, err)
	}
	if rd.Buffered() {
		t.Fatal("a torn frame counts as Buffered")
	}
	if len(src.data) != 3 {
		t.Fatalf("Buffered read from the connection: %d bytes left, want 3", len(src.data))
	}
	if _, body, err := rd.Next(); err != nil || string(body) != "three" {
		t.Fatalf("third: (%q, %v)", body, err)
	}
}

// TestReaderBodyBorrowedUntilNext pins the aliasing contract from the
// other side: the body is the caller's until the next call, so whatever it
// does to it meanwhile — here, scribbling over all of it — cannot disturb
// a later frame, however the buffer was compacted or grown in between (à
// la wire's FuzzPooledBufferAliasing).
func TestReaderBodyBorrowedUntilNext(t *testing.T) {
	var bodies [][]byte
	for i := 0; i < 64; i++ {
		bodies = append(bodies, bytes.Repeat([]byte{byte(i)}, 1+97*i%1500))
	}
	rd := NewReader(&chunkReader{data: frames(t, bodies...), sizes: []int{700}})
	for i, want := range bodies {
		_, body, err := rd.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("frame %d damaged by a write to an earlier body", i)
		}
		for j := range body {
			body[j] = 0xEE
		}
	}
}

// TestReaderStartsSmallAndGrows: an idle connection costs the initial
// buffer; a peer that keeps the buffer full grows it toward a full run.
func TestReaderStartsSmallAndGrows(t *testing.T) {
	body := make([]byte, 1350)
	var stream []byte
	for i := 0; i < 200; i++ {
		stream, _ = AppendFrame(stream, EvtMessage, body)
	}
	rd := NewReader(bytes.NewReader(stream))
	if len(rd.buf) != readerInitial {
		t.Fatalf("initial buffer %d, want %d", len(rd.buf), readerInitial)
	}
	for i := 0; i < 200; i++ {
		if _, _, err := rd.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if len(rd.buf) <= readerInitial || len(rd.buf) > readerMax {
		t.Fatalf("buffer %d after a saturating stream, want in (%d, %d]", len(rd.buf), readerInitial, readerMax)
	}
}

// refillReader serves whatever the test last put in data.
type refillReader struct{ data []byte }

func (r *refillReader) Read(p []byte) (int, error) {
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestFrameRoundTripAllocs gates the steady-state codec at zero
// allocations per frame: AppendFrame into a reused scratch, Reader.Next
// out of its own buffer.
func TestFrameRoundTripAllocs(t *testing.T) {
	for _, size := range []int{64, 1350} {
		body := make([]byte, size)
		src := &refillReader{}
		rd := NewReader(src)
		var scratch []byte
		allocs := testing.AllocsPerRun(200, func() {
			var err error
			if scratch, err = AppendFrame(scratch[:0], EvtMessage, body); err != nil {
				t.Fatal(err)
			}
			src.data = scratch
			typ, got, err := rd.Next()
			if err != nil || typ != EvtMessage || len(got) != size {
				t.Fatalf("round trip: (%d, %d bytes, %v)", typ, len(got), err)
			}
		})
		if allocs != 0 {
			t.Errorf("%d B frame round trip allocates %.1f times, want 0", size, allocs)
		}
	}
}

// TestMulticastValidation is the table of shapes the daemon would drop or
// the codec would corrupt: every one is refused by AppendMulticast before a
// byte is produced and, hand-encoded, by ParseMulticast.
func TestMulticastValidation(t *testing.T) {
	const sender = "alice@0.0.0.1"
	long := strings.Repeat("g", wire.MaxGroupName+1)
	many := make([]string, wire.MaxGroups+1)
	for i := range many {
		many[i] = "g"
	}
	room := wire.MaxPayload - 2 - len(sender) - (2 + 2 + 2 + len("g")) // largest payload to group "g"
	cases := []struct {
		name    string
		groups  []string
		payload int
		want    error
	}{
		{"ok", []string{"g"}, 10, nil},
		{"largest payload", []string{"g"}, room, nil},
		{"payload one byte past the ring's limit", []string{"g"}, room + 1, ErrPayloadTooLarge},
		{"no groups", nil, 10, ErrGroupCount},
		{"too many groups", many, 10, ErrGroupCount},
		{"empty group name", []string{"g", ""}, 10, ErrBadGroup},
		{"group name too long", []string{long}, 10, ErrBadGroup},
		{"group name past the 16-bit length prefix", []string{strings.Repeat("g", 1<<16+1)}, 10, ErrBadGroup},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			payload := make([]byte, tc.payload)
			prefix := []byte("prefix")
			frame, err := AppendMulticast(prefix, sender, wire.ServiceAgreed, 1, tc.groups, payload)
			if !errors.Is(err, tc.want) {
				t.Fatalf("AppendMulticast: %v, want %v", err, tc.want)
			}
			// What the daemon would see had the client not checked.
			raw := PutStrings([]byte{byte(wire.ServiceAgreed), 1}, tc.groups)
			raw = append(raw, payload...)
			if tc.want == nil {
				typ, body, err := NewReader(bytes.NewReader(frame[len(prefix):])).Next()
				if err != nil || typ != CmdMulticast || !bytes.Equal(body, raw) {
					t.Fatalf("encoded frame reads back as (%d, %d bytes, %v)", typ, len(body), err)
				}
			} else if string(frame) != "prefix" {
				t.Fatalf("a refused multicast produced %d bytes", len(frame)-len(prefix))
			}
			if len(tc.groups) > 0 && len(tc.groups[0]) > 1<<16 {
				return // not encodable by hand either: PutString would truncate the length
			}
			svc, flags, rest, err := ParseMulticast(raw, sender)
			if !errors.Is(err, tc.want) {
				t.Fatalf("ParseMulticast: %v, want %v", err, tc.want)
			}
			if tc.want == nil && (svc != wire.ServiceAgreed || flags != 1 || !bytes.Equal(rest, raw[2:])) {
				t.Fatalf("ParseMulticast: (%d, %d, %d bytes)", svc, flags, len(rest))
			}
		})
	}
	for _, raw := range [][]byte{nil, {1}, {1, 0, 0}, {0xFF, 0, 0, 1, 0, 1, 'g'}, {1, 0, 0, 1, 0, 5, 'g'}, {1, 0, 0, 2, 0, 1, 'g'}} {
		if _, _, _, err := ParseMulticast(raw, sender); !errors.Is(err, ErrBadFrame) {
			t.Errorf("ParseMulticast(%x): %v, want ErrBadFrame", raw, err)
		}
	}
}
