package wire

import (
	"bytes"
	"testing"
)

// FuzzPooledBufferAliasing is the aliasing contract's fuzz target. The
// buffer pool makes a new class of bug possible: code keeps a slice of a
// packet after the buffer is recycled, and a later packet silently
// overwrites the retained data. This target simulates exactly that — decode
// from a buffer, then scribble over the buffer as a pool reuse would — and
// asserts the detaching decoders (DecodeData, DecodeToken, DecodeJoin,
// DecodeCommit, DecodeControlInto) are unaffected, while DecodeDataInto's
// payload DOES alias the buffer as documented.
func FuzzPooledBufferAliasing(f *testing.F) {
	seedPackets(f)
	f.Fuzz(func(t *testing.T, orig []byte) {
		// The "pooled buffer": decode from a private copy of the input so
		// we can overwrite it afterwards.
		buf := make([]byte, len(orig))
		copy(buf, orig)

		kind, err := PeekKind(buf)
		if err != nil {
			return
		}
		switch kind {
		case KindData:
			m, err := DecodeData(buf)
			if err != nil {
				return
			}
			// The zero-copy variant must alias the buffer (that is its
			// contract and why the detached copy exists at all).
			var zc DataMessage
			if err := DecodeDataInto(&zc, buf); err != nil {
				t.Fatalf("DecodeDataInto failed after DecodeData succeeded: %v", err)
			}
			if len(zc.Payload) > 0 && &zc.Payload[0] != &buf[len(buf)-len(zc.Payload)] {
				t.Fatal("DecodeDataInto payload does not alias the packet buffer")
			}
			before, err := Encode(m)
			if err != nil {
				t.Fatalf("decoded message does not re-encode: %v", err)
			}
			scribble(buf)
			after, err := Encode(m)
			if err != nil {
				t.Fatalf("re-encode failed after buffer recycle: %v", err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("DecodeData result changed when the source buffer was recycled")
			}
		case KindToken:
			tok, err := DecodeToken(buf)
			if err != nil {
				return
			}
			before, err := Encode(tok)
			if err != nil {
				t.Fatalf("decoded token does not re-encode: %v", err)
			}
			scribble(buf)
			after, err := Encode(tok)
			if err != nil {
				t.Fatalf("re-encode failed after buffer recycle: %v", err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("DecodeToken result changed when the source buffer was recycled")
			}
		case KindJoin:
			j, err := DecodeJoin(buf)
			if err != nil {
				return
			}
			before, err := Encode(j)
			if err != nil {
				t.Fatalf("decoded join does not re-encode: %v", err)
			}
			scribble(buf)
			after, err := Encode(j)
			if err != nil {
				t.Fatalf("re-encode failed after buffer recycle: %v", err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("DecodeJoin result changed when the source buffer was recycled")
			}
		case KindCommit:
			ct, err := DecodeCommit(buf)
			if err != nil {
				return
			}
			before, err := Encode(ct)
			if err != nil {
				t.Fatalf("decoded commit token does not re-encode: %v", err)
			}
			scribble(buf)
			after, err := Encode(ct)
			if err != nil {
				t.Fatalf("re-encode failed after buffer recycle: %v", err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("DecodeCommit result changed when the source buffer was recycled")
			}
		case KindControl:
			var c Control
			if err := DecodeControlInto(&c, buf); err != nil {
				return
			}
			before, err := AppendControl(nil, &c)
			if err != nil {
				t.Fatalf("decoded control frame does not re-encode: %v", err)
			}
			scribble(buf)
			after, err := AppendControl(nil, &c)
			if err != nil {
				t.Fatalf("re-encode failed after buffer recycle: %v", err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("DecodeControlInto result changed when the source buffer was recycled")
			}
		}
	})
}

// scribble overwrites a recycled buffer the way a reused pool buffer would
// be: completely, with a recognizable poison pattern.
func scribble(b []byte) {
	for i := range b {
		b[i] = 0xA5
	}
}
