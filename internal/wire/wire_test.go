package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestParticipantIDString(t *testing.T) {
	if got, want := ParticipantID(0x0a000102).String(), "10.0.1.2"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestRingIDString(t *testing.T) {
	id := RingID{Rep: 0x01020304, Seq: 42}
	if got, want := id.String(), "1.2.3.4/42"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestServiceValid(t *testing.T) {
	for _, s := range []Service{ServiceFIFO, ServiceCausal, ServiceAgreed, ServiceSafe} {
		if !s.Valid() {
			t.Errorf("Service %v should be valid", s)
		}
	}
	for _, s := range []Service{0, 5, 200} {
		if s.Valid() {
			t.Errorf("Service %d should be invalid", uint8(s))
		}
	}
}

func TestServiceRequiresSafe(t *testing.T) {
	if ServiceAgreed.RequiresSafe() {
		t.Error("agreed must not require safe")
	}
	if !ServiceSafe.RequiresSafe() {
		t.Error("safe must require safe")
	}
}

func TestServiceStrings(t *testing.T) {
	cases := map[Service]string{
		ServiceFIFO:   "fifo",
		ServiceCausal: "causal",
		ServiceAgreed: "agreed",
		ServiceSafe:   "safe",
		Service(99):   "service(99)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("Service(%d).String() = %q, want %q", uint8(s), got, want)
		}
	}
}

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{
		KindData:    "data",
		KindToken:   "token",
		KindJoin:    "join",
		KindCommit:  "commit",
		KindControl: "control",
		Kind(77):    "kind(77)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", uint8(k), got, want)
		}
	}
}

func sampleData() *DataMessage {
	return &DataMessage{
		RingID:    RingID{Rep: 3, Seq: 17},
		Seq:       991,
		PID:       3,
		Round:     55,
		PostToken: true,
		Retrans:   false,
		Recovered: true,
		Service:   ServiceSafe,
		Payload:   []byte("hello total order"),
	}
}

func TestDataRoundtrip(t *testing.T) {
	m := sampleData()
	pkt, err := Encode(m)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if len(pkt) != m.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(pkt), m.EncodedSize())
	}
	got, err := DecodeData(pkt)
	if err != nil {
		t.Fatalf("DecodeData: %v", err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestDataRoundtripEmptyPayload(t *testing.T) {
	m := &DataMessage{RingID: RingID{Rep: 1, Seq: 1}, Seq: 1, PID: 1, Service: ServiceAgreed}
	pkt, err := Encode(m)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := DecodeData(pkt)
	if err != nil {
		t.Fatalf("DecodeData: %v", err)
	}
	if len(got.Payload) != 0 {
		t.Fatalf("payload = %v, want empty", got.Payload)
	}
}

func TestDataPayloadDoesNotAliasPacket(t *testing.T) {
	m := sampleData()
	pkt, err := Encode(m)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := DecodeData(pkt)
	if err != nil {
		t.Fatalf("DecodeData: %v", err)
	}
	for i := range pkt {
		pkt[i] = 0xFF
	}
	if !bytes.Equal(got.Payload, m.Payload) {
		t.Fatal("decoded payload aliases the packet buffer")
	}
}

func TestDataEncodeRejectsOversizedPayload(t *testing.T) {
	m := sampleData()
	m.Payload = make([]byte, MaxPayload+1)
	if _, err := Encode(m); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Encode err = %v, want ErrTooLarge", err)
	}
}

func TestDataEncodeRejectsInvalidService(t *testing.T) {
	m := sampleData()
	m.Service = 0
	if _, err := Encode(m); err == nil {
		t.Fatal("Encode accepted invalid service")
	}
}

func TestDataDecodeRejectsInvalidService(t *testing.T) {
	m := sampleData()
	pkt, err := Encode(m)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// Service byte sits right after flags; locate it from the layout.
	pkt[dataFixedSize-5] = 0
	if _, err := DecodeData(pkt); err == nil {
		t.Fatal("DecodeData accepted invalid service")
	}
}

func TestDataDecodeTruncated(t *testing.T) {
	pkt, err := Encode(sampleData())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	for _, n := range []int{0, 1, 3, 4, 10, dataFixedSize - 1, len(pkt) - 1} {
		if _, err := DecodeData(pkt[:n]); err == nil {
			t.Errorf("DecodeData accepted %d-byte prefix", n)
		}
	}
}

func TestDataDecodeTrailingGarbage(t *testing.T) {
	pkt, err := Encode(sampleData())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	pkt = append(pkt, 0xAB)
	if _, err := DecodeData(pkt); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want trailing-bytes error", err)
	}
}

func TestDecodeWrongKind(t *testing.T) {
	pkt, err := Encode(sampleToken())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if _, err := DecodeData(pkt); !errors.Is(err, ErrBadKind) {
		t.Fatalf("DecodeData(token) err = %v, want ErrBadKind", err)
	}
}

func TestDecodeBadMagicAndVersion(t *testing.T) {
	pkt, err := Encode(sampleData())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	bad := append([]byte(nil), pkt...)
	bad[0] = 'X'
	if _, err := DecodeData(bad); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	bad = append([]byte(nil), pkt...)
	bad[2] = 200
	if _, err := DecodeData(bad); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func sampleToken() *Token {
	return &Token{
		RingID:   RingID{Rep: 1, Seq: 8},
		TokenSeq: 12345,
		Round:    678,
		Seq:      90210,
		ARU:      90000,
		ARUID:    4,
		FCC:      192,
		RTR:      []Seq{90001, 90002, 90100},
	}
}

func TestTokenRoundtrip(t *testing.T) {
	tok := sampleToken()
	pkt, err := Encode(tok)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if len(pkt) != tok.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(pkt), tok.EncodedSize())
	}
	got, err := DecodeToken(pkt)
	if err != nil {
		t.Fatalf("DecodeToken: %v", err)
	}
	if !reflect.DeepEqual(tok, got) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, tok)
	}
}

func TestTokenRoundtripEmptyRTR(t *testing.T) {
	tok := sampleToken()
	tok.RTR = nil
	pkt, err := Encode(tok)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := DecodeToken(pkt)
	if err != nil {
		t.Fatalf("DecodeToken: %v", err)
	}
	if len(got.RTR) != 0 {
		t.Fatalf("RTR = %v, want empty", got.RTR)
	}
}

func TestTokenEncodeRejectsOversizedRTR(t *testing.T) {
	tok := sampleToken()
	tok.RTR = make([]Seq, MaxRTR+1)
	if _, err := Encode(tok); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestTokenDecodeRejectsHugeRTRCount(t *testing.T) {
	tok := sampleToken()
	tok.RTR = nil
	pkt, err := Encode(tok)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// Overwrite the trailing rtr count with a huge value; the decoder must
	// reject it rather than allocate.
	pkt[len(pkt)-4] = 0xFF
	pkt[len(pkt)-3] = 0xFF
	pkt[len(pkt)-2] = 0xFF
	pkt[len(pkt)-1] = 0xFF
	if _, err := DecodeToken(pkt); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestTokenClone(t *testing.T) {
	tok := sampleToken()
	c := tok.Clone()
	if !reflect.DeepEqual(tok, c) {
		t.Fatal("clone differs from original")
	}
	c.RTR[0] = 7
	if tok.RTR[0] == 7 {
		t.Fatal("clone shares RTR storage with original")
	}
}

func sampleJoin() *JoinMessage {
	return &JoinMessage{
		Sender:  7,
		ProcSet: []ParticipantID{1, 2, 7},
		FailSet: []ParticipantID{4},
		RingSeq: 40,
	}
}

func TestJoinRoundtrip(t *testing.T) {
	j := sampleJoin()
	pkt, err := Encode(j)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if len(pkt) != j.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(pkt), j.EncodedSize())
	}
	got, err := DecodeJoin(pkt)
	if err != nil {
		t.Fatalf("DecodeJoin: %v", err)
	}
	if !reflect.DeepEqual(j, got) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, j)
	}
}

func TestJoinRoundtripEmptySets(t *testing.T) {
	j := &JoinMessage{Sender: 1, RingSeq: 2}
	pkt, err := Encode(j)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := DecodeJoin(pkt)
	if err != nil {
		t.Fatalf("DecodeJoin: %v", err)
	}
	if len(got.ProcSet) != 0 || len(got.FailSet) != 0 {
		t.Fatalf("sets = %v/%v, want empty", got.ProcSet, got.FailSet)
	}
}

func sampleCommit() *CommitToken {
	return &CommitToken{
		RingID:   RingID{Rep: 1, Seq: 44},
		Rotation: 2,
		Members: []CommitMember{
			{ID: 1, OldRingID: RingID{Rep: 1, Seq: 40}, MyARU: 10, HighSeq: 12, HighDelivered: 9, Filled: true},
			{ID: 2, OldRingID: RingID{Rep: 2, Seq: 38}, MyARU: 0, HighSeq: 0, HighDelivered: 0, Filled: false},
		},
	}
}

func TestCommitRoundtrip(t *testing.T) {
	c := sampleCommit()
	pkt, err := Encode(c)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if len(pkt) != c.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(pkt), c.EncodedSize())
	}
	got, err := DecodeCommit(pkt)
	if err != nil {
		t.Fatalf("DecodeCommit: %v", err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, c)
	}
}

func TestCommitClone(t *testing.T) {
	c := sampleCommit()
	cl := c.Clone()
	if !reflect.DeepEqual(c, cl) {
		t.Fatal("clone differs from original")
	}
	cl.Members[0].MyARU = 999
	if c.Members[0].MyARU == 999 {
		t.Fatal("clone shares member storage with original")
	}
}

func TestPeekKind(t *testing.T) {
	dpkt, err := Encode(sampleData())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	tpkt, err := Encode(sampleToken())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	jpkt, err := Encode(sampleJoin())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	cpkt, err := Encode(sampleCommit())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	cases := []struct {
		pkt  []byte
		want Kind
	}{{dpkt, KindData}, {tpkt, KindToken}, {jpkt, KindJoin}, {cpkt, KindCommit}}
	for _, c := range cases {
		got, err := PeekKind(c.pkt)
		if err != nil {
			t.Fatalf("PeekKind(%s): %v", c.want, err)
		}
		if got != c.want {
			t.Errorf("PeekKind = %v, want %v", got, c.want)
		}
	}
	if _, err := PeekKind([]byte{'A', 'R', Version}); !errors.Is(err, ErrTruncated) {
		t.Errorf("short packet: err = %v, want ErrTruncated", err)
	}
	if _, err := PeekKind([]byte{'X', 'R', Version, byte(KindData)}); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: err = %v, want ErrBadMagic", err)
	}
	if _, err := PeekKind([]byte{'A', 'R', Version, 200}); !errors.Is(err, ErrBadKind) {
		t.Errorf("bad kind: err = %v, want ErrBadKind", err)
	}
}

// TestDecodeDataNeverPanics feeds random garbage into the decoders. Whatever
// the input, decoding must return rather than panic, and an error for
// non-packets.
func TestDecodersNeverPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		n := rng.Intn(256)
		pkt := make([]byte, n)
		rng.Read(pkt)
		// Half the time, make the header plausible so body parsing runs.
		if i%2 == 0 && n >= 4 {
			pkt[0], pkt[1], pkt[2] = magic0, magic1, Version
			pkt[3] = byte(1 + rng.Intn(5))
		}
		_, _ = DecodeData(pkt)
		_, _ = DecodeToken(pkt)
		_, _ = DecodeJoin(pkt)
		_, _ = DecodeCommit(pkt)
		_ = DecodeControlInto(new(Control), pkt)
	}
}

// quickData adapts DataMessage for testing/quick by constraining the fields
// the codec validates.
func quickData(ringRep, pid uint32, ringSeq, seq, round uint64, post, retrans, recovered bool, svc uint8, payload []byte) *DataMessage {
	if len(payload) > MaxPayload {
		payload = payload[:MaxPayload]
	}
	return &DataMessage{
		RingID:    RingID{Rep: ParticipantID(ringRep), Seq: ringSeq},
		Seq:       Seq(seq),
		PID:       ParticipantID(pid),
		Round:     Round(round),
		PostToken: post,
		Retrans:   retrans,
		Recovered: recovered,
		Service:   Service(svc%4) + ServiceFIFO,
		Payload:   payload,
	}
}

func TestQuickDataRoundtrip(t *testing.T) {
	f := func(ringRep, pid uint32, ringSeq, seq, round uint64, post, retrans, recovered bool, svc uint8, payload []byte) bool {
		m := quickData(ringRep, pid, ringSeq, seq, round, post, retrans, recovered, svc, payload)
		pkt, err := Encode(m)
		if err != nil {
			return false
		}
		got, err := DecodeData(pkt)
		if err != nil {
			return false
		}
		if len(m.Payload) == 0 {
			// Decoder normalizes empty payloads to nil-or-empty; compare
			// lengths instead of identity.
			return got.Seq == m.Seq && len(got.Payload) == 0
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTokenRoundtrip(t *testing.T) {
	f := func(rep uint32, ringSeq, tokSeq, round, seq, aru uint64, aruID uint32, fcc uint32, rtrRaw []uint64) bool {
		if len(rtrRaw) > MaxRTR {
			rtrRaw = rtrRaw[:MaxRTR]
		}
		tok := &Token{
			RingID:   RingID{Rep: ParticipantID(rep), Seq: ringSeq},
			TokenSeq: tokSeq,
			Round:    Round(round),
			Seq:      Seq(seq),
			ARU:      Seq(aru),
			ARUID:    ParticipantID(aruID),
			FCC:      fcc,
		}
		for _, v := range rtrRaw {
			tok.RTR = append(tok.RTR, Seq(v))
		}
		pkt, err := Encode(tok)
		if err != nil {
			return false
		}
		got, err := DecodeToken(pkt)
		if err != nil {
			return false
		}
		if len(tok.RTR) == 0 {
			return got.TokenSeq == tok.TokenSeq && len(got.RTR) == 0
		}
		return reflect.DeepEqual(tok, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickJoinRoundtrip(t *testing.T) {
	f := func(sender uint32, ringSeq uint64, procRaw, failRaw []uint32) bool {
		if len(procRaw) > MaxMembers {
			procRaw = procRaw[:MaxMembers]
		}
		if len(failRaw) > MaxMembers {
			failRaw = failRaw[:MaxMembers]
		}
		j := &JoinMessage{Sender: ParticipantID(sender), RingSeq: ringSeq}
		for _, v := range procRaw {
			j.ProcSet = append(j.ProcSet, ParticipantID(v))
		}
		for _, v := range failRaw {
			j.FailSet = append(j.FailSet, ParticipantID(v))
		}
		pkt, err := Encode(j)
		if err != nil {
			return false
		}
		got, err := DecodeJoin(pkt)
		if err != nil {
			return false
		}
		return got.Sender == j.Sender && got.RingSeq == j.RingSeq &&
			len(got.ProcSet) == len(j.ProcSet) && len(got.FailSet) == len(j.FailSet)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPackUnpackRoundtrip(t *testing.T) {
	in := [][]byte{[]byte("a"), {}, []byte("third payload")}
	packed, err := PackPayloads(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnpackPayloads(packed)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("unpacked %d, want %d", len(out), len(in))
	}
	for i := range in {
		if string(out[i]) != string(in[i]) {
			t.Fatalf("entry %d = %q, want %q", i, out[i], in[i])
		}
	}
}

func TestPackPayloadsLimits(t *testing.T) {
	if _, err := PackPayloads(nil); err == nil {
		t.Fatal("packed zero payloads")
	}
	too := make([][]byte, MaxPacked+1)
	for i := range too {
		too[i] = []byte{1}
	}
	if _, err := PackPayloads(too); err == nil {
		t.Fatal("packed more than MaxPacked")
	}
	if _, err := PackPayloads([][]byte{make([]byte, MaxPayload)}); err == nil {
		t.Fatal("packed container exceeding MaxPayload")
	}
}

func TestUnpackPayloadsRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{},                 // empty
		{0, 0},             // zero count
		{0, 1},             // count without entry
		{0, 1, 0, 0, 0, 9}, // entry length beyond buffer
		{0xFF, 0xFF},       // huge count
	}
	for _, c := range cases {
		if _, err := UnpackPayloads(c); err == nil {
			t.Errorf("UnpackPayloads(%v) succeeded", c)
		}
	}
}

func TestUnpackTrailingGarbage(t *testing.T) {
	packed, err := PackPayloads([][]byte{[]byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	packed = append(packed, 0xAA)
	if _, err := UnpackPayloads(packed); err == nil {
		t.Fatal("accepted trailing bytes")
	}
}

func TestDataPackedFlagRoundtrip(t *testing.T) {
	m := sampleData()
	m.Packed = true
	pkt, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeData(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Packed {
		t.Fatal("Packed flag lost in roundtrip")
	}
}
