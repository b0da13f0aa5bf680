package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

func sampleControl() *Control {
	return &Control{
		RingID: RingID{Rep: 3, Seq: 17},
		Sender: 7,
		Sub:    4,
		Body:   []byte("engine-opaque body"),
	}
}

// TestKindValuesPinned pins the numeric wire kinds: they are on-the-wire
// constants shared with fault plans and packet dumps, so a reordering of
// the const block must fail here, not in the field.
func TestKindValuesPinned(t *testing.T) {
	for k, want := range map[Kind]uint8{KindData: 1, KindToken: 2, KindJoin: 3, KindCommit: 4, KindControl: 5} {
		if uint8(k) != want {
			t.Errorf("%v = %d, want %d", k, uint8(k), want)
		}
	}
	if got := KindControl.String(); got != "control" {
		t.Errorf("KindControl.String() = %q", got)
	}
}

func TestControlRoundtrip(t *testing.T) {
	for _, c := range []*Control{
		sampleControl(),
		{RingID: RingID{Rep: 1, Seq: 4}, Sender: 1, Sub: 255}, // empty body
		{Sender: 9, Sub: 1, Body: make([]byte, MaxPayload)},   // largest body
	} {
		pkt, err := AppendControl(nil, c)
		if err != nil {
			t.Fatalf("AppendControl: %v", err)
		}
		if len(pkt) != c.EncodedSize() {
			t.Fatalf("encoded %d bytes, EncodedSize says %d", len(pkt), c.EncodedSize())
		}
		if k, err := PeekKind(pkt); err != nil || k != KindControl {
			t.Fatalf("PeekKind = %v, %v", k, err)
		}
		var got Control
		if err := DecodeControlInto(&got, pkt); err != nil {
			t.Fatalf("DecodeControlInto: %v", err)
		}
		if got.RingID != c.RingID || got.Sender != c.Sender || got.Sub != c.Sub || !bytes.Equal(got.Body, c.Body) {
			t.Fatalf("round trip: got %+v, want %+v", got, c)
		}
	}
}

func TestControlDecodeRejects(t *testing.T) {
	good, err := AppendControl(nil, sampleControl())
	if err != nil {
		t.Fatal(err)
	}
	data, err := Encode(sampleData())
	if err != nil {
		t.Fatal(err)
	}
	hugeLen := append([]byte(nil), good...)
	copy(hugeLen[controlFixedSize-4:], []byte{0xff, 0xff, 0xff, 0xff})
	cases := []struct {
		name string
		pkt  []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"header only", good[:4], ErrTruncated},
		{"mid fixed fields", good[:controlFixedSize-3], ErrTruncated},
		{"body cut short", good[:len(good)-1], ErrTruncated},
		{"trailing garbage", append(append([]byte(nil), good...), 0), ErrTruncated},
		{"body length over limit", hugeLen, ErrTooLarge},
		{"wrong kind", data, ErrBadKind},
		{"bad magic", append([]byte{'X'}, good[1:]...), ErrBadMagic},
	}
	for _, c := range cases {
		var got Control
		if err := DecodeControlInto(&got, c.pkt); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	if _, err := AppendControl(nil, &Control{Body: make([]byte, MaxPayload+1)}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized body: err = %v, want ErrTooLarge", err)
	}
}

// TestControlCodecAllocFree is the control frame's hot-path gate, beside
// the data and token ones in alloc_test.go: encoding into a warm scratch
// and decoding into a warm target allocate nothing.
func TestControlCodecAllocFree(t *testing.T) {
	c := sampleControl()
	scratch := make([]byte, 0, c.EncodedSize())
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := AppendControl(scratch[:0], c); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("AppendControl with warm scratch: %.1f allocs/op, want 0", allocs)
	}
	pkt, err := AppendControl(nil, c)
	if err != nil {
		t.Fatal(err)
	}
	var into Control
	if err := DecodeControlInto(&into, pkt); err != nil { // warm the body capacity
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := DecodeControlInto(&into, pkt); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("DecodeControlInto with warm target: %.1f allocs/op, want 0", allocs)
	}
}

// TestDecoderFramesNeverAliasPacket checks the Decoder's ownership contract
// for every kind: once Decode returns, the packet buffer may be recycled
// without changing the frame. It also checks the scratch-reuse half: token
// and control frames come back in the same reused targets.
func TestDecoderFramesNeverAliasPacket(t *testing.T) {
	frames := []Frame{sampleData(), sampleToken(), sampleJoin(), sampleCommit(), sampleControl()}
	var d Decoder
	for _, f := range frames {
		want, err := f.AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		buf := append([]byte(nil), want...)
		got, err := d.Decode(buf)
		if err != nil {
			t.Fatalf("Decode(%v): %v", f.Kind(), err)
		}
		if got.Kind() != f.Kind() || got.EncodedSize() != len(want) {
			t.Fatalf("Decode(%v) returned kind %v size %d", f.Kind(), got.Kind(), got.EncodedSize())
		}
		scribble(buf)
		re, err := got.AppendTo(nil)
		if err != nil || !bytes.Equal(re, want) {
			t.Fatalf("%v frame changed when its packet was recycled (err %v)", f.Kind(), err)
		}
	}
	tok, _ := Encode(sampleToken())
	a, _ := d.Decode(tok)
	b, _ := d.Decode(tok)
	if a.(*Token) != b.(*Token) {
		t.Fatal("Decoder does not reuse its token target")
	}
	if _, err := d.Decode([]byte{'A', 'R', Version, 99}); !errors.Is(err, ErrBadKind) {
		t.Fatalf("unknown kind: err = %v, want ErrBadKind", err)
	}
}

func FuzzDecodeControl(f *testing.F) {
	seedPackets(f)
	f.Fuzz(func(t *testing.T, pkt []byte) {
		var c Control
		if err := DecodeControlInto(&c, pkt); err != nil {
			return
		}
		re, err := AppendControl(nil, &c)
		if err != nil {
			t.Fatalf("decoded control frame does not re-encode: %v", err)
		}
		var c2 Control
		if err := DecodeControlInto(&c2, re); err != nil {
			t.Fatalf("re-encoded control frame does not decode: %v", err)
		}
		if !reflect.DeepEqual(c, c2) {
			t.Fatalf("round-trip mismatch:\n%#v\n%#v", c, c2)
		}
	})
}
