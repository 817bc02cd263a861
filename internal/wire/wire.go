// Package wire defines the lapcache wire protocol shared by the
// server (internal/lapcache) and the client (internal/lapclient).
//
// There is one encoding: length-prefixed frames with a fixed
// little-endian header and raw block payloads. A connection is framed
// from its first byte — the header's version byte is the whole
// negotiation, and an OpPing exchange is the handshake that tells a
// client the server's algorithm and block size.
//
// Frame layout (little-endian):
//
//	offset size field
//	0      1    op       (Op; nonzero)
//	1      1    flags    (Flags bitfield)
//	2      1    version  (must be Version)
//	3      1    reserved (must be 0)
//	4      4    seq      (echoed verbatim in the response; client-side matching)
//	8      4    file     (int32 FileID)
//	12     4    offset   (int32 first block)
//	16     4    size     (int32 span length in blocks)
//	20     4    payload  (uint32 byte length of the payload that follows)
//
// The payload carries raw block data for reads (FlagWantData) and
// writes, a UTF-8 error message on failure frames, and a JSON document
// for ping/stats responses (rare, so their encoding does not matter).
// Op 6 (a retired ownership query) is unknown, like any op past
// OpStats.
//
// (Op, Flags) is the whole request surface: the op says what to do,
// FlagPeer says on whose behalf (a client or a forwarding peer),
// FlagWantData says whether a read returns its blocks. Bits 4 and 5
// are retired: unknown, like any bit past FlagPeer.
//
// # Version skew
//
// The header layout is frozen by the version byte; ops and flags are
// extension points. ParseHeader therefore validates only structure —
// version, reserved byte, payload bound, a nonzero op — and leaves
// unknown op and flag values to the dispatch layer, which answers an
// unrecognized request with an error frame instead of dropping the
// connection. That is what lets a newer peer talk to an older server
// during a rolling upgrade: the new op fails cleanly, the connection
// stays usable, and the caller can fall back. (Peer forwards between
// lapcached nodes rely on this: in a mixed-version cluster the request
// fails rather than wedging the connection.) Bytes that are not
// a frame at all — a client from before the binary protocol sending a
// JSON line — fail the version check within the first PrefixSize
// bytes, so the receiver can drop the connection without waiting for
// a full header that will never come.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
)

// Version is the frame header version.
const Version = 1

// HeaderSize is the fixed byte length of a frame header.
const HeaderSize = 24

// PrefixSize is how many leading header bytes CheckPrefix needs: op,
// flags, version, reserved.
const PrefixSize = 4

// MaxPayload caps a single frame's payload. The decoder rejects
// larger length fields before allocating anything, so a corrupt or
// hostile header cannot balloon memory.
const MaxPayload = 1 << 24 // 16 MiB

// MaxDataBytes caps the raw block payload of one read; the server
// refuses a read or write spanning more blocks than that, with data or
// without, with an error frame before touching a block.
const MaxDataBytes = 11 << 20

// Op identifies a request (and is echoed in its response).
type Op uint8

const (
	OpPing  Op = 1
	OpRead  Op = 2
	OpWrite Op = 3
	OpClose Op = 4
	OpStats Op = 5

	opMax = OpStats
)

// Known reports whether this implementation dispatches the op. Unknown
// ops still parse (the header layout does not depend on them); the
// dispatch layer answers them with an error frame.
func (o Op) Known() bool { return o >= OpPing && o <= opMax }

// String renders the op for error messages.
func (o Op) String() string {
	switch o {
	case OpPing:
		return "ping"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpClose:
		return "close"
	case OpStats:
		return "stats"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Flags is the frame flag bitfield.
type Flags uint8

const (
	// FlagWantData (requests) asks a read to return block payloads.
	FlagWantData Flags = 1 << 0
	// FlagOK (responses) marks success; absent, the payload is an
	// error message.
	FlagOK Flags = 1 << 1
	// FlagHit (read responses) reports every requested block was
	// cached on arrival.
	FlagHit Flags = 1 << 2
	// FlagPeer (requests) marks a request forwarded by a cluster peer:
	// the receiver serves it if its ring gives it the file and refuses
	// it otherwise, never re-forwarding it, which keeps forwarding
	// loop-free and a second copy off a node started on another ring.
	FlagPeer Flags = 1 << 3

	flagsKnown = FlagWantData | FlagOK | FlagHit | FlagPeer
)

// Known reports whether every set bit is a flag this implementation
// defines. Unknown bits still parse; receivers decide per-op whether
// to reject them.
func (f Flags) Known() bool { return f&^flagsKnown == 0 }

// Header is a decoded frame header — and, on the request side, the
// one request descriptor: client, pool, dispatcher and peer tier all
// pass it through unchanged.
type Header struct {
	Op         Op
	Flags      Flags
	Seq        uint32
	File       int32
	Offset     int32
	Size       int32
	PayloadLen uint32
}

// ErrFrameTooLarge reports a length field beyond the protocol limits.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// PutHeader encodes h into dst, which must hold HeaderSize bytes.
func PutHeader(dst []byte, h Header) {
	_ = dst[HeaderSize-1]
	dst[0] = byte(h.Op)
	dst[1] = byte(h.Flags)
	dst[2] = Version
	dst[3] = 0
	binary.LittleEndian.PutUint32(dst[4:], h.Seq)
	binary.LittleEndian.PutUint32(dst[8:], uint32(h.File))
	binary.LittleEndian.PutUint32(dst[12:], uint32(h.Offset))
	binary.LittleEndian.PutUint32(dst[16:], uint32(h.Size))
	binary.LittleEndian.PutUint32(dst[20:], h.PayloadLen)
}

// ParseHeader decodes and validates a frame header structurally. It
// never panics and performs no allocation regardless of input.
//
// Only layout-level properties are enforced here: the version byte,
// the reserved byte, the payload bound and a nonzero op. Unknown op
// and flag values parse successfully — the frame is still framed
// correctly, so the connection can consume its payload and answer
// with an error frame instead of wedging; use Op.Known and
// Flags.Known at dispatch.
func ParseHeader(src []byte) (Header, error) {
	if len(src) < HeaderSize {
		return Header{}, fmt.Errorf("wire: short header: %d bytes, need %d", len(src), HeaderSize)
	}
	if err := CheckPrefix(src); err != nil {
		return Header{}, err
	}
	var h Header
	h.Op = Op(src[0])
	h.Flags = Flags(src[1])
	h.Seq = binary.LittleEndian.Uint32(src[4:])
	h.File = int32(binary.LittleEndian.Uint32(src[8:]))
	h.Offset = int32(binary.LittleEndian.Uint32(src[12:]))
	h.Size = int32(binary.LittleEndian.Uint32(src[16:]))
	h.PayloadLen = binary.LittleEndian.Uint32(src[20:])
	if h.PayloadLen > MaxPayload {
		return Header{}, fmt.Errorf("wire: payload length %d: %w", h.PayloadLen, ErrFrameTooLarge)
	}
	return h, nil
}

// CheckPrefix validates the first PrefixSize bytes of a header — a
// nonzero op, the version byte, the zero reserved byte — which is
// everything needed to tell a frame from foreign bytes. A receiver
// runs it as soon as that much has arrived, so a peer speaking another
// protocol (whose whole message may be shorter than a header) is
// refused at once instead of being waited on.
func CheckPrefix(src []byte) error {
	_ = src[PrefixSize-1]
	if src[0] == 0 {
		return errors.New("wire: zero op")
	}
	if src[2] != Version {
		return fmt.Errorf("wire: protocol version %d, want %d", src[2], Version)
	}
	if src[3] != 0 {
		return fmt.Errorf("wire: nonzero reserved byte %#x", src[3])
	}
	return nil
}

// ReadHeader reads and validates one frame header from r. scratch
// must hold at least HeaderSize bytes (callers keep one per
// connection so the read path does not allocate).
func ReadHeader(r io.Reader, scratch []byte) (Header, error) {
	if _, err := io.ReadFull(r, scratch[:HeaderSize]); err != nil {
		return Header{}, err
	}
	return ParseHeader(scratch)
}

// ReadPayload reads h's payload into buf, growing it only as far as
// the already-validated PayloadLen. A zero-length payload returns
// buf[:0] without touching r.
func ReadPayload(r io.Reader, h Header, buf []byte) ([]byte, error) {
	n := int(h.PayloadLen)
	if n == 0 {
		return buf[:0], nil
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("wire: payload truncated: %w", err)
	}
	return buf, nil
}

// flushBuffers writes every slice in *v with one vectored write
// (writev when w is a *net.TCPConn; sequential Write calls otherwise,
// which is what keeps per-Write fault interposers working) and then
// restores *v to an empty slice over its ORIGINAL backing array.
// net.Buffers.WriteTo consumes the slice it is called on — it nils
// entries and advances the base pointer — so without the restore a
// reused gather slice would shrink toward zero capacity and every
// subsequent append would allocate.
func flushBuffers(w io.Writer, v *net.Buffers) error {
	saved := *v
	_, err := v.WriteTo(w)
	*v = saved[:0]
	return err
}

// WriteFrameVectored writes one complete frame with a single vectored
// write: the header is encoded into scratch (caller-owned, at least
// HeaderSize bytes) and gathered with payload into one writev — the
// payload bytes go from the caller's buffer to the socket with no
// staging copy. h.PayloadLen is overwritten with len(payload). vec
// must point to a gather slice that persists across calls (a struct
// field, not a local): it is reused, so the steady state allocates
// nothing. Both ends of the protocol write through FrameBatch; the
// callers left are bench/'s wire.encode_ns probe and tests.
//
// The caller must keep scratch and payload untouched (and any
// refcounted buffer backing payload alive) until the call returns:
// the kernel reads both during the writev syscall.
func WriteFrameVectored(w io.Writer, scratch []byte, h Header, payload []byte, vec *net.Buffers) error {
	if len(payload) > MaxPayload {
		return ErrFrameTooLarge
	}
	h.PayloadLen = uint32(len(payload))
	PutHeader(scratch, h)
	if len(payload) == 0 {
		_, err := w.Write(scratch[:HeaderSize])
		return err
	}
	*vec = append((*vec)[:0], scratch[:HeaderSize], payload)
	return flushBuffers(w, vec)
}

// FrameBatch accumulates encoded frames and flushes them with one
// vectored write — the frame-coalescing half of the hot path, in both
// directions: the server's K responses to a pipelined client cost one
// writev instead of K write syscalls, and so do K requests that
// callers sharing a lapclient.Conn queue while a writev is in
// progress. Headers are encoded into stable per-frame scratch
// arrays owned by the batch; payload slices are gathered by reference,
// so the bytes (and any refcounted buffers backing them) must stay
// alive and untouched until Flush returns. All storage is reused
// across flushes: a warm batch allocates nothing.
//
// A FrameBatch is not safe for concurrent use; callers serialize it
// per connection.
type FrameBatch struct {
	hdrs []hdrArr
	n    int // headers used since the last Flush/Reset
	vec  net.Buffers
}

type hdrArr [HeaderSize]byte

// header hands out the next stable header scratch slice. Growing hdrs
// may move the backing array, but slices already queued in vec keep
// the old array (and its written bytes) alive, so queued frames stay
// intact.
func (b *FrameBatch) header() []byte {
	if b.n == len(b.hdrs) {
		b.hdrs = append(b.hdrs, hdrArr{})
	}
	s := b.hdrs[b.n][:]
	b.n++
	return s
}

// Len reports how many frame headers are queued.
func (b *FrameBatch) Len() int { return b.n }

// AppendFrame queues one complete frame; h.PayloadLen is overwritten
// with len(payload).
func (b *FrameBatch) AppendFrame(h Header, payload []byte) error {
	if len(payload) > MaxPayload {
		return ErrFrameTooLarge
	}
	h.PayloadLen = uint32(len(payload))
	hs := b.header()
	PutHeader(hs, h)
	b.vec = append(b.vec, hs)
	if len(payload) > 0 {
		b.vec = append(b.vec, payload)
	}
	return nil
}

// AppendHeader queues a frame header whose payload arrives through
// subsequent AppendPayload calls; the caller is responsible for
// setting h.PayloadLen to the payload total it will append.
func (b *FrameBatch) AppendHeader(h Header) {
	hs := b.header()
	PutHeader(hs, h)
	b.vec = append(b.vec, hs)
}

// AppendPayload queues one payload segment for the most recently
// appended header.
func (b *FrameBatch) AppendPayload(p []byte) {
	if len(p) > 0 {
		b.vec = append(b.vec, p)
	}
}

// Flush writes every queued frame with one vectored write and resets
// the batch for reuse. A batch with nothing queued returns nil
// without touching w.
func (b *FrameBatch) Flush(w io.Writer) error {
	if len(b.vec) == 0 {
		b.n = 0
		return nil
	}
	err := flushBuffers(w, &b.vec)
	b.n = 0
	return err
}

// Reset drops queued frames without writing them (connection
// teardown).
func (b *FrameBatch) Reset() {
	b.vec = b.vec[:0]
	b.n = 0
}
