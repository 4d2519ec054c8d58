package serve

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Wire protocol: length-prefixed binary frames over a byte stream.
//
// Every frame is
//
//	u32  payload length (big-endian, not counting these 4 bytes)
//	u8   frame type
//	u32  request id
//	...  type-specific body
//
// Client → server:
//
//	'V' hello   u16 protocol version (the highest the client speaks)
//	'O' open    u8 kernel-name-len, name, u32 stream-count
//	'S' stream  u32 stream-idx, u16 #arrays,
//	            each: u8 name-len, name, u32 #elems, elems × i64
//	'K' keepalive (empty body; the server echoes it, request id intact)
//
// Server → client:
//
//	'V' hello   u16 protocol version (min of client's and server's)
//	'R' result  u32 stream-idx, u64 cycles,
//	            u16 #outputs,   each: u8 name-len, name, u32 #elems, elems × i64
//	            u16 #feedbacks, each: u8 name-len, name, i64 value
//	'F' fault   u32 stream-idx, u32 abort-cycle, u8 op-len, op,
//	            u16 msg-len, msg      (a dp.FaultError, cycle-exact)
//	'E' error   u32 stream-idx (0xFFFFFFFF = request-level), u16 msg-len, msg
//	'D' done    (empty body: every stream of the request was answered)
//	'K' keepalive (echo of a client keepalive)
//
// A request is one 'O' frame followed by exactly stream-count 'S'
// frames. The server answers each stream with one 'R', 'F' or
// stream-level 'E' frame — in completion order, not stream order; the
// stream-idx identifies the stream — and finishes the request with 'D'.
// A request-level 'E' (unknown kernel, kernel fails to compile, server
// draining) aborts the whole request: no 'D' follows and subsequent 'S'
// frames for that request id are discarded. Backpressure is the byte
// stream's own: the server stops reading while its per-connection
// executor is saturated, and a client that stops reading eventually
// blocks the server's writer, then its executors, then its reader.
//
// Versioning. Protocol v1 is the frame set above minus 'V' and 'K': one
// request in flight per connection, no negotiation. Protocol v2 keeps
// every v1 frame byte-for-byte identical and adds the hello handshake
// and keepalive, which is what makes pipelining safe to rely on. This
// package's client always opens with 'V' and refuses to run against a
// server that does not ack it (a v1 server answers the unknown frame
// type with a request-level 'E' and closes). The server still accepts
// v1 byte streams: they are valid v2 byte streams, so a connection
// that sends no hello is served unchanged. With the handshake done,
// one connection carries many requests concurrently: request ids demux
// the responses client-side, and the server's per-connection executor
// becomes a per-request-slot semaphore shared by all of them.
const (
	frameHello     = 'V'
	frameOpen      = 'O'
	frameStream    = 'S'
	frameResult    = 'R'
	frameFault     = 'F'
	frameError     = 'E'
	frameDone      = 'D'
	frameKeepAlive = 'K'
)

// ProtoV2 is the protocol version a hello negotiates. It adds
// negotiation, keepalive and pipelined requests over one connection to
// v1, the first wire format (no hello, no keepalive, serial requests),
// which the server still accepts.
const ProtoV2 = 2

// reqNone is the request id used for errors that cannot be attributed to
// a request (malformed frames); streamNone marks request-level errors.
const (
	reqNone    = ^uint32(0)
	streamNone = ^uint32(0)
)

// maxFrame bounds one frame's payload; a length prefix beyond it is a
// protocol error (it would otherwise size a multi-gigabyte read from a
// single corrupt word).
const maxFrame = 64 << 20

// maxName bounds kernel and array names (they travel as u8-length
// strings).
const maxName = 255

// bufHighWater is the receive-scratch retention bound: after one
// oversized frame, a long-lived connection's reuse buffer is dropped as
// soon as traffic returns to small frames, instead of pinning the
// high-water allocation for the connection's lifetime. Pooled encoders
// and server stream buffers larger than it are dropped the same way.
const bufHighWater = 1 << 20

// readBufSize is the per-connection read buffer: a burst of small
// frames — several pipelined requests, or a response and its 'D' —
// costs one read syscall instead of two per frame.
const readBufSize = 16 << 10

// maxPending bounds the bytes queued for a connection's writer (both
// ends): a sender that finds that many waits until the writer takes
// them, so a peer that stops reading stops the senders too, and a large
// batch is queued in pieces instead of one giant buffer.
const maxPending = 256 << 10

// maxInterned bounds each name-interning table, so a peer sending
// ever-new names cannot grow one; names past the bound are allocated
// per use instead of retained.
const maxInterned = 64

// encoder builds frames in a reusable buffer, several of them back to
// back. The connection's writer keeps one over its pending buffer, into
// which each sender appends whole frames under the writer's lock, so
// frames from concurrent senders never interleave partially. Each
// frame's length prefix is patched in finish.
type encoder struct {
	buf   []byte
	start int // offset of the frame being built
}

// begin empties the buffer and starts its first frame.
func (e *encoder) begin(typ byte, req uint32) {
	e.buf = e.buf[:0]
	e.next(typ, req)
}

// next starts another frame after the finished ones in the buffer.
func (e *encoder) next(typ byte, req uint32) {
	e.start = len(e.buf)
	e.buf = append(e.buf, 0, 0, 0, 0, typ)
	e.u32(req)
}

func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) u16(v uint16) { e.buf = binary.BigEndian.AppendUint16(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *encoder) i64(v int64)  { e.u64(uint64(v)) }

func (e *encoder) str8(s string) {
	if len(s) > maxName {
		s = s[:maxName]
	}
	e.u8(uint8(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) str16(s string) {
	if len(s) > 1<<16-1 {
		s = s[:1<<16-1]
	}
	e.u16(uint16(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) vals(v []int64) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.i64(x)
	}
}

// finish patches the current frame's length prefix and returns the
// buffer: every frame since begin.
func (e *encoder) finish() []byte {
	binary.BigEndian.PutUint32(e.buf[e.start:], uint32(len(e.buf)-e.start-4))
	return e.buf
}

// readFrame reads one length-prefixed frame payload into buf (grown as
// needed) and returns the payload. Connection loops pass a
// *bufio.Reader, so small frames are served from one buffered read; the
// length prefix is read into buf's own storage, so a reused buf makes
// the call allocation-free.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4, 512)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(buf[:4])
	if n == 0 {
		return nil, fmt.Errorf("serve: zero-length frame")
	}
	if n > maxFrame {
		return nil, fmt.Errorf("serve: frame of %d bytes exceeds the %d-byte limit", n, maxFrame)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("serve: truncated frame: %w", err)
	}
	return buf, nil
}

// names interns wire names. Lookups by a frame's bytes do not allocate,
// so a steady stream of known names decodes without allocating; only
// the first maxInterned distinct names are retained.
type names map[string]string

func (n *names) intern(b []byte) string {
	if s, ok := (*n)[string(b)]; ok {
		return s
	}
	s := string(b)
	if *n == nil {
		*n = names{}
	}
	if len(*n) < maxInterned {
		(*n)[s] = s
	}
	return s
}

// decoder walks one frame payload; the first decoding overrun latches
// into err and every later read returns zero values, so call sites check
// once at the end.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("serve: truncated frame body at offset %d", d.off)
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) u16() uint16 {
	if d.err != nil || d.off+2 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *decoder) i64() int64 { return int64(d.u64()) }

func (d *decoder) str8() string { return string(d.name8()) }

// name8 returns a u8-length name as a view into the frame, valid until
// the next frame is read: map lookups by it do not allocate.
func (d *decoder) name8() []byte {
	n := int(d.u8())
	if d.err != nil || d.off+n > len(d.b) {
		d.fail()
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) str16() string {
	n := int(d.u16())
	if d.err != nil || d.off+n > len(d.b) {
		d.fail()
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

// count reads a u32 element count and checks that many i64 values
// follow; it returns -1 (with err latched) when they do not.
func (d *decoder) count() int {
	n := int(d.u32())
	if d.err != nil || n > (len(d.b)-d.off)/8 {
		d.fail()
		return -1
	}
	return n
}

// fill decodes len(dst) i64 values (checked by count) into dst.
func (d *decoder) fill(dst []int64) {
	for i := range dst {
		dst[i] = int64(binary.BigEndian.Uint64(d.b[d.off:]))
		d.off += 8
	}
}

// remaining reports whether undecoded bytes are left (a well-formed
// frame is consumed exactly).
func (d *decoder) remaining() bool { return d.err == nil && d.off != len(d.b) }
