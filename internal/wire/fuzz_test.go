package wire

import (
	"reflect"
	"testing"
)

// The fuzz targets assert the codec safety contract: arbitrary input must
// never panic, and every successfully decoded message must re-encode to a
// packet that decodes to the same message (round-trip stability). Run the
// seeds as tests with `go test`, or fuzz with `go test -fuzz=FuzzDecodeData`.

func seedPackets(f *testing.F) {
	d := &DataMessage{RingID: RingID{Rep: 1, Seq: 4}, Seq: 7, PID: 1, Round: 2,
		Service: ServiceAgreed, Payload: []byte("seed")}
	if pkt, err := Encode(d); err == nil {
		f.Add(pkt)
	}
	tok := &Token{RingID: RingID{Rep: 1, Seq: 4}, TokenSeq: 9, Seq: 30, ARU: 28,
		RTR: []Seq{29}}
	if pkt, err := Encode(tok); err == nil {
		f.Add(pkt)
	}
	j := &JoinMessage{Sender: 2, ProcSet: []ParticipantID{1, 2}, RingSeq: 4}
	if pkt, err := Encode(j); err == nil {
		f.Add(pkt)
	}
	ct := &CommitToken{RingID: RingID{Rep: 1, Seq: 8}, Rotation: 1,
		Members: []CommitMember{{ID: 1, Filled: true}}}
	if pkt, err := Encode(ct); err == nil {
		f.Add(pkt)
	}
	if pkt, err := AppendControl(nil, &Control{RingID: RingID{Rep: 1, Seq: 4}, Sender: 2, Sub: 1, Body: []byte("seed")}); err == nil {
		f.Add(pkt)
	}
	f.Add([]byte{})
	f.Add([]byte{'A', 'R', Version, byte(KindData)})
}

func FuzzDecodeData(f *testing.F) {
	seedPackets(f)
	f.Fuzz(func(t *testing.T, pkt []byte) {
		m, err := DecodeData(pkt)
		if err != nil {
			return
		}
		re, err := Encode(m)
		if err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
		m2, err := DecodeData(re)
		if err != nil {
			t.Fatalf("re-encoded packet does not decode: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round-trip mismatch:\n%#v\n%#v", m, m2)
		}
	})
}

func FuzzDecodeToken(f *testing.F) {
	seedPackets(f)
	f.Fuzz(func(t *testing.T, pkt []byte) {
		tok, err := DecodeToken(pkt)
		if err != nil {
			return
		}
		re, err := Encode(tok)
		if err != nil {
			t.Fatalf("decoded token does not re-encode: %v", err)
		}
		tok2, err := DecodeToken(re)
		if err != nil {
			t.Fatalf("re-encoded token does not decode: %v", err)
		}
		if !reflect.DeepEqual(tok, tok2) {
			t.Fatal("round-trip mismatch")
		}
	})
}

func FuzzDecodeJoin(f *testing.F) {
	seedPackets(f)
	f.Fuzz(func(t *testing.T, pkt []byte) {
		j, err := DecodeJoin(pkt)
		if err != nil {
			return
		}
		re, err := Encode(j)
		if err != nil {
			t.Fatalf("decoded join does not re-encode: %v", err)
		}
		j2, err := DecodeJoin(re)
		if err != nil {
			t.Fatalf("re-encoded join does not decode: %v", err)
		}
		if !reflect.DeepEqual(j, j2) {
			t.Fatalf("round-trip mismatch:\n%#v\n%#v", j, j2)
		}
	})
}

func FuzzDecodeCommit(f *testing.F) {
	seedPackets(f)
	f.Fuzz(func(t *testing.T, pkt []byte) {
		ct, err := DecodeCommit(pkt)
		if err != nil {
			return
		}
		re, err := Encode(ct)
		if err != nil {
			t.Fatalf("decoded commit token does not re-encode: %v", err)
		}
		ct2, err := DecodeCommit(re)
		if err != nil {
			t.Fatalf("re-encoded commit token does not decode: %v", err)
		}
		if !reflect.DeepEqual(ct, ct2) {
			t.Fatalf("round-trip mismatch:\n%#v\n%#v", ct, ct2)
		}
	})
}

func FuzzUnpackPayloads(f *testing.F) {
	if packed, err := PackPayloads([][]byte{[]byte("a"), []byte("bb")}); err == nil {
		f.Add(packed)
	}
	f.Add([]byte{0, 1, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		payloads, err := UnpackPayloads(b)
		if err != nil {
			return
		}
		re, err := PackPayloads(payloads)
		if err != nil {
			t.Fatalf("unpacked payloads do not re-pack: %v", err)
		}
		again, err := UnpackPayloads(re)
		if err != nil || len(again) != len(payloads) {
			t.Fatalf("re-pack round trip failed: %v", err)
		}
	})
}
