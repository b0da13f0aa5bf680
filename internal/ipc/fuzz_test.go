package ipc

import (
	"bytes"
	"reflect"
	"testing"
)

// The fuzz targets assert the IPC framing safety contract: arbitrary bytes
// off a client socket must never panic the daemon, and every frame the
// reader accepts must survive a write→read round trip unchanged. Run the
// seeds as tests with `go test`, or fuzz with `go test -fuzz=FuzzFrameStream`.

func seedFrames(f *testing.F) {
	frames := []struct {
		typ  byte
		body []byte
	}{
		{CmdConnect, PutString(nil, "alice")},
		{CmdJoin, PutString(nil, "room")},
		{CmdSubscribe, PutString(nil, "feed")},
		{CmdUnsubscribe, PutString(nil, "feed")},
		{CmdMulticast, append([]byte{1, 0}, PutStrings(nil, []string{"g1", "g2"})...)},
		{CmdStats, nil},
		{EvtWelcome, PutString(nil, "alice@0.0.0.1")},
	}
	var stream bytes.Buffer
	for _, fr := range frames {
		var one bytes.Buffer
		if err := WriteFrame(&one, fr.typ, fr.body); err == nil {
			f.Add(one.Bytes(), uint8(1))
			stream.Write(one.Bytes())
		}
	}
	f.Add(stream.Bytes(), uint8(7)) // several frames back to back, torn by the reads
	f.Add(stream.Bytes(), uint8(255))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{0, 0, 0, 0}, uint8(2))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1}, uint8(3))
	f.Add([]byte{0, 0, 0, 9, 1}, uint8(4)) // the stream ends inside a body
}

// FuzzFrameStream feeds arbitrary bytes through the two frame decoders as
// a stream — ReadFrame, which reads exactly one frame's bytes, and Reader,
// fed by a connection that returns 1..k bytes per read so frames tear at
// every offset — and requires the identical (type, body) sequence and the
// identical error at the identical frame. Every frame they accept must
// also survive an encode→decode round trip.
func FuzzFrameStream(f *testing.F) {
	seedFrames(f)
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		r := bytes.NewReader(data)
		sizes := make([]int, 0, 16)
		for i := 0; i < cap(sizes); i++ {
			sizes = append(sizes, 1+(i*31+int(k))%(int(k)+1))
		}
		rd := NewReader(&chunkReader{data: data, sizes: sizes})
		for frame := 0; ; frame++ {
			typ, body, err := ReadFrame(r)
			typ2, body2, err2 := rd.Next()
			if err != err2 {
				t.Fatalf("frame %d: ReadFrame error %v, Reader error %v", frame, err, err2)
			}
			if err != nil {
				return
			}
			if typ2 != typ || !bytes.Equal(body2, body) {
				t.Fatalf("frame %d: ReadFrame (%d, %x), Reader (%d, %x)", frame, typ, body, typ2, body2)
			}
			buf, err := AppendFrame(nil, typ, body)
			if err != nil {
				t.Fatalf("accepted frame does not re-encode: %v", err)
			}
			typ3, body3, err := ReadFrame(bytes.NewReader(buf))
			if err != nil {
				t.Fatalf("re-encoded frame does not decode: %v", err)
			}
			if typ3 != typ || !bytes.Equal(body3, body) {
				t.Fatalf("round-trip mismatch: (%d, %x) vs (%d, %x)", typ, body, typ3, body3)
			}
		}
	})
}

// FuzzGetStrings hammers the string-list codec the subscription and
// multicast bodies are built from.
func FuzzGetStrings(f *testing.F) {
	f.Add(PutStrings(nil, []string{"a", "", "group with spaces"}))
	f.Add(PutString(PutStrings(nil, nil), "trailing"))
	f.Add([]byte{0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		ss, _, err := GetStrings(data)
		if err != nil {
			return
		}
		re := PutStrings(nil, ss)
		ss2, rest, err := GetStrings(re)
		if err != nil || len(rest) != 0 {
			t.Fatalf("re-encoded list does not decode: %v (rest %d)", err, len(rest))
		}
		if len(ss) == 0 && len(ss2) == 0 {
			return
		}
		if !reflect.DeepEqual(ss, ss2) {
			t.Fatalf("round-trip mismatch: %q vs %q", ss, ss2)
		}
	})
}
