package wire

import (
	"testing"
)

// These are the allocation gates for the steady-state hot path: encoding a
// data or token frame into a reused scratch must not allocate at all, and
// the zero-copy decoders must stay at or below one allocation per packet.
// If a future change reintroduces per-packet garbage here, these tests —
// not a profiler session weeks later — are meant to catch it.

func allocTestData() *DataMessage {
	payload := make([]byte, 1350)
	for i := range payload {
		payload[i] = byte(i)
	}
	return &DataMessage{
		RingID:  RingID{Rep: 3, Seq: 9},
		Seq:     101,
		PID:     7,
		Round:   42,
		Service: ServiceAgreed,
		Payload: payload,
	}
}

func allocTestToken() *Token {
	return &Token{
		RingID:   RingID{Rep: 3, Seq: 9},
		TokenSeq: 77,
		Round:    42,
		Seq:      120,
		ARU:      95,
		ARUID:    2,
		FCC:      14,
		RTR:      []Seq{96, 97, 103},
	}
}

func TestAppendDataAllocFree(t *testing.T) {
	m := allocTestData()
	scratch := make([]byte, 0, m.EncodedSize())
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := AppendData(scratch[:0], m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendData with warm scratch: %.1f allocs/op, want 0", allocs)
	}
}

func TestAppendTokenAllocFree(t *testing.T) {
	tok := allocTestToken()
	scratch := make([]byte, 0, tok.EncodedSize())
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := AppendToken(scratch[:0], tok); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendToken with warm scratch: %.1f allocs/op, want 0", allocs)
	}
}

func TestAppendPackedPayloadsAllocFree(t *testing.T) {
	payloads := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	scratch := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := AppendPackedPayloads(scratch[:0], payloads); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendPackedPayloads with warm scratch: %.1f allocs/op, want 0", allocs)
	}
}

func TestDecodeDataIntoAllocFree(t *testing.T) {
	pkt, err := Encode(allocTestData())
	if err != nil {
		t.Fatal(err)
	}
	var m DataMessage
	allocs := testing.AllocsPerRun(200, func() {
		if err := DecodeDataInto(&m, pkt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("DecodeDataInto: %.1f allocs/op, want <= 1", allocs)
	}
}

func TestDecodeTokenIntoAllocFree(t *testing.T) {
	pkt, err := Encode(allocTestToken())
	if err != nil {
		t.Fatal(err)
	}
	var tok Token
	if err := DecodeTokenInto(&tok, pkt); err != nil { // warm the RTR capacity
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := DecodeTokenInto(&tok, pkt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("DecodeTokenInto with warm RTR: %.1f allocs/op, want <= 1", allocs)
	}
}

func TestCloneIntoAllocFree(t *testing.T) {
	tok := allocTestToken()
	retained := tok.CloneInto(nil) // warm the destination's RTR capacity
	allocs := testing.AllocsPerRun(200, func() {
		retained = tok.CloneInto(retained)
	})
	if allocs != 0 {
		t.Fatalf("CloneInto with warm destination: %.1f allocs/op, want 0", allocs)
	}
	if retained.TokenSeq != tok.TokenSeq || len(retained.RTR) != len(tok.RTR) {
		t.Fatal("CloneInto produced a wrong copy")
	}
}

// The detaching decoders are allowed their copies, but the budget is still
// bounded: one for the message payload (DecodeData) or RTR list
// (DecodeToken), plus the struct itself.
func TestDetachingDecodersBoundedAllocs(t *testing.T) {
	dataPkt, err := Encode(allocTestData())
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := DecodeData(dataPkt); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Fatalf("DecodeData: %.1f allocs/op, want <= 2", allocs)
	}
	tokPkt, err := Encode(allocTestToken())
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := DecodeToken(tokPkt); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Fatalf("DecodeToken: %.1f allocs/op, want <= 2", allocs)
	}
}
