// Package ipc defines the framed client↔daemon IPC protocol shared by the
// daemon (internal/daemon) and the client library (internal/client).
// Frames are length-prefixed: a 4-byte big-endian length covering the
// 1-byte type and the body.
package ipc

import (
	"encoding/binary"
	"errors"
	"io"
	"sync"

	"accelring/internal/wire"
)

// Frame types. New types are appended so wire values stay stable.
const (
	// Client → daemon.
	CmdConnect byte = iota + 1
	CmdJoin
	CmdLeave
	CmdMulticast
	// Daemon → client.
	EvtWelcome
	EvtMessage
	EvtView
	// CmdStats (client → daemon, empty body) requests a StatsSnapshot;
	// the daemon answers with one EvtStats frame carrying it as JSON.
	CmdStats
	EvtStats
	// CmdSubscribe / CmdUnsubscribe (client → daemon, body: one
	// length-prefixed group name) register and withdraw local delivery
	// interest in a group's ordered message stream, without joining the
	// group: the subscriber receives every message addressed to the group
	// but never appears in its membership views and costs the ring
	// nothing. Distinct from CmdJoin, which orders a membership change
	// through the ring. Subscriptions are daemon-local state, dropped
	// with the session.
	CmdSubscribe
	CmdUnsubscribe
	// CmdResume (client → daemon) is the session-resume handshake, sent as
	// the first frame of a reconnected connection instead of CmdConnect.
	// Body: client name (length-prefixed), session ID (8 bytes) and the
	// last delivered global stamp (8 bytes), and nothing more; the daemon
	// closes a session whose resume body is longer. The daemon answers
	// with one EvtResumed frame and, when the session was found alive,
	// replays its fan-out queue from the first frame after the stamp.
	CmdResume
	// EvtResumed (daemon → client) answers CmdResume. Body: one flags byte
	// (resumedFlagResumed: the detached session was found and its stream
	// continues; resumedFlagGap: the daemon dropped frames beyond the
	// client's stamp while it was away, so the resumed stream has a gap),
	// the private name (length-prefixed) and the session ID (8 bytes). When
	// resumedFlagResumed is unset the daemon created a fresh session under
	// the name instead — the client must reset its sequence tracking and
	// replay its joins and subscriptions.
	EvtResumed
	// EvtDrain (daemon → client, empty body) announces that the daemon is
	// draining: it has stopped accepting connections, will flush pending
	// deliveries, and then close. Clients should finish reading and expect
	// the connection to end.
	EvtDrain
	// CmdGoodbye (client → daemon, empty body) announces an intentional
	// close: the daemon must drop the session immediately instead of
	// holding it for the resume window.
	CmdGoodbye
)

// EvtResumed flag bits.
const (
	// ResumedFlagResumed marks a successful resume: the session survived
	// and the stream continues from the client's stamp.
	ResumedFlagResumed byte = 1 << iota
	// ResumedFlagGap marks that frames beyond the client's stamp were
	// dropped while it was away (shed, or evicted past the resume
	// history), so the resumed stream is missing messages.
	ResumedFlagGap
)

// MaxFrame bounds one frame (payload plus protocol headers).
const MaxFrame = wire.MaxPayload + 4096

// Protocol errors.
var (
	// ErrFrameTooLarge reports a frame beyond MaxFrame.
	ErrFrameTooLarge = errors.New("ipc: frame exceeds limit")
	// ErrBadFrame reports a structurally invalid frame body.
	ErrBadFrame = errors.New("ipc: malformed frame")
	// ErrBadGroup reports a group name that is empty or longer than
	// wire.MaxGroupName.
	ErrBadGroup = errors.New("ipc: group name empty or too long")
	// ErrGroupCount reports a multicast addressed to no group or to more
	// than wire.MaxGroups.
	ErrGroupCount = errors.New("ipc: destination group count out of range")
	// ErrPayloadTooLarge reports a multicast that cannot be ordered: with
	// the sender name and group list the daemon puts in front of it, the
	// payload would exceed wire.MaxPayload.
	ErrPayloadTooLarge = errors.New("ipc: payload exceeds the ring's message limit")
)

// AppendFrame appends one encoded frame to dst and returns the extended
// slice — the hot-path encoder, same contract as wire.AppendData: a caller
// that reuses one scratch buffer encodes without allocating once the
// scratch has grown to its working size, and may append a whole run of
// frames before one Write. dst is returned unchanged on error.
func AppendFrame(dst []byte, typ byte, body []byte) ([]byte, error) {
	if len(body)+1 > MaxFrame {
		return dst, ErrFrameTooLarge
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(body)+1))
	dst = append(dst, typ)
	return append(dst, body...), nil
}

// frameSize validates the length field at the front of hdr and returns the
// bytes that follow it (type plus body).
func frameSize(hdr []byte) (int, error) {
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 || n > MaxFrame {
		return 0, ErrFrameTooLarge
	}
	return int(n), nil
}

// scratch recycles the buffers of the one-shot calls, which have none of
// their own: WriteFrame's encoded frame and ReadFrame's header (a local
// array would escape through the io.Reader and cost an allocation).
var scratch = sync.Pool{New: func() any { return new([]byte) }}

// WriteFrame writes one frame to w in a single Write, so concurrent
// writers of one connection cannot interleave a header with another
// frame's body. It is the one-shot form for handshakes and tools; a
// steady-state writer appends runs of frames with AppendFrame into a
// buffer it owns.
func WriteFrame(w io.Writer, typ byte, body []byte) error {
	bp := scratch.Get().(*[]byte)
	defer scratch.Put(bp)
	var err error
	if *bp, err = AppendFrame((*bp)[:0], typ, body); err != nil {
		return err
	}
	_, err = w.Write(*bp)
	return err
}

// ReadFrame reads one frame from r, consuming exactly that frame's bytes;
// the returned body is the caller's to keep. It is the one-shot form for
// handshakes and tools; a steady-state reader uses Reader.
func ReadFrame(r io.Reader) (byte, []byte, error) {
	n, err := readSize(r)
	if err != nil {
		return 0, nil, err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the stream ended inside a frame
		}
		return 0, nil, err
	}
	return buf[0], buf[1:], nil
}

// readSize reads and validates one frame's length field.
func readSize(r io.Reader) (int, error) {
	bp := scratch.Get().(*[]byte)
	defer scratch.Put(bp)
	*bp = append((*bp)[:0], 0, 0, 0, 0)
	if _, err := io.ReadFull(r, *bp); err != nil {
		return 0, err
	}
	return frameSize(*bp)
}

// Reader decodes a stream of frames through one buffer it owns: many
// frames per Read of the underlying connection, no allocation per frame.
// The buffer starts small, so an idle connection stays cheap, and grows on
// demand — to the frame at hand, and toward a full run when the peer keeps
// it full — up to one MaxFrame frame.
type Reader struct {
	r          io.Reader
	buf        []byte
	start, end int // buf[start:end] holds the bytes not yet returned
	// full records that the last Read left no free space, the sign that
	// more was waiting than the buffer could take.
	full bool
	err  error // sticky: the first failure of the underlying reader
}

const (
	readerInitial = 4 << 10
	readerMax     = 4 + MaxFrame
)

// NewReader returns a Reader decoding frames from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, buf: make([]byte, readerInitial)}
}

// buffered returns the size of the complete frame at the front of the
// buffer, 0 if there is none yet, or the error its header earns.
func (r *Reader) buffered() (int, error) {
	have := r.end - r.start
	if have < 4 {
		return 0, nil
	}
	n, err := frameSize(r.buf[r.start:])
	if err != nil {
		return 0, err
	}
	if have < 4+n {
		return 0, nil
	}
	return n, nil
}

// Buffered reports whether Next will return without reading from the
// underlying connection: another complete frame (or a malformed header)
// is already in the buffer. It is what delimits a run — the frames that
// were already there when the reading goroutine woke.
func (r *Reader) Buffered() bool {
	n, err := r.buffered()
	return n > 0 || err != nil
}

// Next returns the next frame, reading from the underlying connection only
// when no complete frame is buffered.
//
// Aliasing contract: body ALIASES the Reader's buffer and is valid only
// until the next call to Next — the wire.DecodeDataInto rule. A caller
// that keeps any of it copies that part out first.
func (r *Reader) Next() (typ byte, body []byte, err error) {
	for {
		n, err := r.buffered()
		if err != nil {
			return 0, nil, err // sticky: the bad header stays at the front
		}
		if n > 0 {
			f := r.buf[r.start+4 : r.start+4+n]
			r.start += 4 + n
			return f[0], f[1:], nil
		}
		if r.err != nil {
			if r.err == io.EOF && r.end > r.start {
				return 0, nil, io.ErrUnexpectedEOF // the stream ended inside a frame
			}
			return 0, nil, r.err
		}
		r.fill()
	}
}

// fill moves the partial frame to the front of the buffer, grows the
// buffer if that frame cannot fit or the last Read filled it, and reads
// once.
func (r *Reader) fill() {
	need := 4
	if r.end-r.start >= 4 {
		n, _ := frameSize(r.buf[r.start:]) // validated by buffered
		need = 4 + n
	}
	size := len(r.buf)
	if r.full {
		size *= 2
	}
	size = min(max(size, need), readerMax)
	if size > len(r.buf) {
		grown := make([]byte, size)
		r.end = copy(grown, r.buf[r.start:r.end])
		r.buf, r.start = grown, 0
	} else if r.start > 0 {
		r.end = copy(r.buf, r.buf[r.start:r.end])
		r.start = 0
	}
	n, err := r.r.Read(r.buf[r.end:])
	r.end += n
	r.full = r.end == len(r.buf)
	r.err = err
}

// PutString appends a length-prefixed string.
func PutString(dst []byte, s string) []byte {
	var l [2]byte
	binary.BigEndian.PutUint16(l[:], uint16(len(s)))
	dst = append(dst, l[:]...)
	return append(dst, s...)
}

// GetString consumes a length-prefixed string.
func GetString(src []byte) (string, []byte, error) {
	b, rest, err := GetBytes(src)
	return string(b), rest, err
}

// GetBytes consumes a length-prefixed string in place: the result aliases
// src, for callers that look the name up or copy it on instead of keeping
// it.
func GetBytes(src []byte) ([]byte, []byte, error) {
	if len(src) < 2 {
		return nil, nil, ErrBadFrame
	}
	n := int(binary.BigEndian.Uint16(src))
	src = src[2:]
	if len(src) < n {
		return nil, nil, ErrBadFrame
	}
	return src[:n], src[n:], nil
}

// PutUint64 appends an 8-byte big-endian value (sequence stamps, session
// IDs).
func PutUint64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

// GetUint64 consumes an 8-byte big-endian value.
func GetUint64(src []byte) (uint64, []byte, error) {
	if len(src) < 8 {
		return 0, nil, ErrBadFrame
	}
	return binary.BigEndian.Uint64(src), src[8:], nil
}

// PutStrings appends a counted list of length-prefixed strings.
func PutStrings(dst []byte, ss []string) []byte {
	var l [2]byte
	binary.BigEndian.PutUint16(l[:], uint16(len(ss)))
	dst = append(dst, l[:]...)
	for _, s := range ss {
		dst = PutString(dst, s)
	}
	return dst
}

// GetStrings consumes a counted list of length-prefixed strings.
func GetStrings(src []byte) ([]string, []byte, error) {
	if len(src) < 2 {
		return nil, nil, ErrBadFrame
	}
	n := int(binary.BigEndian.Uint16(src))
	src = src[2:]
	if n > wire.MaxGroups+wire.MaxMembers {
		return nil, nil, ErrBadFrame
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		var s string
		var err error
		s, src, err = GetString(src)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, s)
	}
	return out, src, nil
}

// CheckGroup validates a group name as every group-addressed frame
// requires it: non-empty and at most wire.MaxGroupName bytes.
func CheckGroup(group string) error { return checkGroupLen(len(group)) }

func checkGroupLen(n int) error {
	if n == 0 || n > wire.MaxGroupName {
		return ErrBadGroup
	}
	return nil
}

// checkMulticast is the rule both ends of a CmdMulticast apply: 1 to
// wire.MaxGroups destinations, and a body the daemon can order. The daemon
// orders type, flags, the sender's private name and then the body's group
// list and payload verbatim, so the ring payload is the body plus the
// length-prefixed sender — and the ring refuses more than wire.MaxPayload.
func checkMulticast(groups, bodyLen, senderLen int) error {
	if groups == 0 || groups > wire.MaxGroups {
		return ErrGroupCount
	}
	if bodyLen+2+senderLen > wire.MaxPayload {
		return ErrPayloadTooLarge
	}
	return nil
}

// AppendMulticast validates a multicast from the client whose private name
// is sender and appends it to dst as one complete CmdMulticast frame. What
// it rejects the daemon would drop (or could only encode corrupted), so
// the caller learns before anything is sent; dst is returned unchanged on
// error.
func AppendMulticast(dst []byte, sender string, service wire.Service, flags byte, groups []string, payload []byte) ([]byte, error) {
	bodyLen := 2 + 2 + len(payload)
	for _, g := range groups {
		if err := CheckGroup(g); err != nil {
			return dst, err
		}
		bodyLen += 2 + len(g)
	}
	if err := checkMulticast(len(groups), bodyLen, len(sender)); err != nil {
		return dst, err
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(bodyLen+1))
	dst = append(dst, CmdMulticast, byte(service), flags)
	dst = PutStrings(dst, groups)
	return append(dst, payload...), nil
}

// ParseMulticast validates a CmdMulticast body from the client whose
// private name is sender, in place: it returns the service, the flags and
// rest — the group list and payload exactly as the client encoded them,
// aliasing body — and allocates nothing.
func ParseMulticast(body []byte, sender string) (service wire.Service, flags byte, rest []byte, err error) {
	if len(body) < 4 {
		return 0, 0, nil, ErrBadFrame
	}
	service, flags, rest = wire.Service(body[0]), body[1], body[2:]
	if !service.Valid() {
		return 0, 0, nil, ErrBadFrame
	}
	groups := int(binary.BigEndian.Uint16(rest))
	if err := checkMulticast(groups, len(body), len(sender)); err != nil {
		return 0, 0, nil, err
	}
	names := rest[2:]
	for i := 0; i < groups; i++ {
		var name []byte
		if name, names, err = GetBytes(names); err != nil {
			return 0, 0, nil, err
		}
		if err := checkGroupLen(len(name)); err != nil {
			return 0, 0, nil, err
		}
	}
	return service, flags, rest, nil
}
