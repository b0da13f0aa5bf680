package wire

// Frame is one protocol frame of any kind: *DataMessage, *Token,
// *JoinMessage, *CommitToken or *Control. It is what an engine receives
// and sends; a runtime moves frames without knowing which kinds a given
// engine speaks.
type Frame interface {
	// Kind is the frame's wire kind.
	Kind() Kind
	// EncodedSize is the exact size of the encoded frame.
	EncodedSize() int
	// AppendTo appends the encoded frame to dst (see AppendData for the
	// scratch-reuse contract); dst is returned unchanged on error.
	AppendTo(dst []byte) ([]byte, error)
}

// Every wire type is a Frame.
func (*DataMessage) Kind() Kind { return KindData }
func (*Token) Kind() Kind       { return KindToken }
func (*JoinMessage) Kind() Kind { return KindJoin }
func (*CommitToken) Kind() Kind { return KindCommit }
func (*Control) Kind() Kind     { return KindControl }

func (m *DataMessage) AppendTo(dst []byte) ([]byte, error) { return AppendData(dst, m) }
func (t *Token) AppendTo(dst []byte) ([]byte, error)       { return AppendToken(dst, t) }
func (j *JoinMessage) AppendTo(dst []byte) ([]byte, error) { return AppendJoin(dst, j) }
func (c *CommitToken) AppendTo(dst []byte) ([]byte, error) { return AppendCommit(dst, c) }
func (c *Control) AppendTo(dst []byte) ([]byte, error)     { return AppendControl(dst, c) }

// Encode serializes a frame into a freshly allocated, exactly sized
// buffer. Hot paths should prefer AppendTo with a reused scratch.
func Encode(f Frame) ([]byte, error) {
	return f.AppendTo(make([]byte, 0, f.EncodedSize()))
}

// Decoder decodes received packets of every kind for one receive loop.
// Data, join and commit frames come back freshly allocated — the receiver
// may retain them; token and control frames are decoded into targets the
// Decoder reuses, valid only until the next Decode. No returned frame
// aliases pkt, so the caller may recycle pkt immediately.
type Decoder struct {
	tok Token
	// rtr preserves tok's RTR backing array across packets: an engine may
	// swap tok.RTR for its own slice while handling it.
	rtr []Seq
	ctl Control
}

// Decode parses one packet.
func (d *Decoder) Decode(pkt []byte) (Frame, error) {
	kind, err := PeekKind(pkt)
	if err != nil {
		return nil, err
	}
	switch kind {
	case KindData:
		return detached(DecodeData(pkt))
	case KindJoin:
		return detached(DecodeJoin(pkt))
	case KindCommit:
		return detached(DecodeCommit(pkt))
	case KindToken:
		d.tok.RTR = d.rtr
		err := DecodeTokenInto(&d.tok, pkt)
		d.rtr = d.tok.RTR
		if err != nil {
			return nil, err
		}
		return &d.tok, nil
	default: // KindControl: PeekKind admits nothing else
		if err := DecodeControlInto(&d.ctl, pkt); err != nil {
			return nil, err
		}
		return &d.ctl, nil
	}
}

// detached adapts a detaching decoder's result to (Frame, error) without
// wrapping a nil pointer in a non-nil interface.
func detached[T Frame](f T, err error) (Frame, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}
