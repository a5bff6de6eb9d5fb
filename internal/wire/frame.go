// Package wire implements the confbench relay protocol: a
// length-prefixed binary framing carried over persistent multiplexed
// connections, the codecs for the api request/response types, and the
// two Transport implementations ("httpjson" extracting the legacy
// JSON-over-HTTP hop, "binary" speaking this protocol) selectable at
// every hop of the pipeline.
//
// Frame layout (all integers big-endian):
//
//	offset  size  field
//	0       2     magic 0xCF 0xBE
//	2       1     version (1)
//	3       1     type
//	4       1     flags
//	5       8     correlation ID
//	13      4     payload length
//	17      n     payload
//
// Responses complete out of order: the peer matches responses to
// requests by correlation ID, so one connection multiplexes any number
// of concurrent invokes.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"confbench/internal/api"
)

// Frame constants. The magic bytes are deliberately outside printable
// ASCII so the front-door sniffer can distinguish a wire connection
// from an HTTP request line ("GET ", "POST") with a two-byte peek.
const (
	Magic0 = 0xCF
	Magic1 = 0xBE

	// Version is the only protocol version in existence.
	Version = 1

	// HeaderSize is the fixed frame-header length in bytes.
	HeaderSize = 17

	// MaxPayload bounds a frame payload. It matches the api client's
	// 16 MiB response-body cap so neither carrier can smuggle a larger
	// message than the other accepts.
	MaxPayload = 16 << 20
)

// Type identifies what a frame's payload encodes. The enum is declared
// beside the route table in internal/api (which this package imports,
// not the other way round).
type Type = api.Frame

// Typed decode errors. Decoders return these (possibly wrapped with
// positional detail) and never panic on hostile input.
var (
	ErrBadMagic    = errors.New("wire: bad magic")
	ErrBadVersion  = errors.New("wire: unsupported version")
	ErrTruncated   = errors.New("wire: truncated frame")
	ErrOversize    = errors.New("wire: payload exceeds limit")
	ErrUnknownType = errors.New("wire: unknown frame type")
)

// ErrSever instructs the serving loop to drop the connection without a
// response frame — the carrier-level analogue of the HTTP handlers'
// panic(http.ErrAbortHandler) used by crash/drop faults.
var ErrSever = errors.New("wire: sever connection")

// Header is a parsed frame header.
type Header struct {
	Type  Type
	Flags uint8
	Corr  uint64
	Len   uint32
}

// ParseHeader decodes a fixed-size frame header. b may be longer than
// HeaderSize; only the first HeaderSize bytes are read.
func ParseHeader(b []byte) (Header, error) {
	var h Header
	if len(b) < HeaderSize {
		return h, fmt.Errorf("%w: header %d bytes, need %d", ErrTruncated, len(b), HeaderSize)
	}
	if b[0] != Magic0 || b[1] != Magic1 {
		return h, fmt.Errorf("%w: 0x%02x 0x%02x", ErrBadMagic, b[0], b[1])
	}
	if b[2] != Version {
		return h, fmt.Errorf("%w: %d", ErrBadVersion, b[2])
	}
	h.Type = Type(b[3])
	if !h.Type.Valid() {
		return h, fmt.Errorf("%w: %d", ErrUnknownType, b[3])
	}
	h.Flags = b[4]
	h.Corr = binary.BigEndian.Uint64(b[5:13])
	h.Len = binary.BigEndian.Uint32(b[13:17])
	if h.Len > MaxPayload {
		return h, fmt.Errorf("%w: %d > %d", ErrOversize, h.Len, MaxPayload)
	}
	return h, nil
}

// AppendHeader appends a frame header for (t, corr, payload length n)
// to dst and returns the extended slice.
func AppendHeader(dst []byte, t Type, corr uint64, n int) []byte {
	var hdr [HeaderSize]byte
	hdr[0], hdr[1], hdr[2], hdr[3], hdr[4] = Magic0, Magic1, Version, byte(t), 0
	binary.BigEndian.PutUint64(hdr[5:13], corr)
	binary.BigEndian.PutUint32(hdr[13:17], uint32(n))
	return append(dst, hdr[:]...)
}

// AppendFrame appends a complete frame (header + payload) to dst.
func AppendFrame(dst []byte, t Type, corr uint64, payload []byte) []byte {
	dst = AppendHeader(dst, t, corr, len(payload))
	return append(dst, payload...)
}

// DecodeFrame splits one frame off the front of b without copying,
// returning the header, its payload (aliasing b), and the remaining
// bytes. The length field is validated before any slicing so hostile
// lengths cannot trigger allocation or panic — this is the fuzz
// harness's entry point.
func DecodeFrame(b []byte) (Header, []byte, []byte, error) {
	h, err := ParseHeader(b)
	if err != nil {
		return h, nil, nil, err
	}
	end := HeaderSize + int(h.Len)
	if len(b) < end {
		return h, nil, nil, fmt.Errorf("%w: payload %d bytes, need %d", ErrTruncated, len(b)-HeaderSize, h.Len)
	}
	return h, b[HeaderSize:end], b[end:], nil
}

// ReadFrame reads one frame from r. The returned payload slice comes
// from the buffer pool: callers must hand it back with PutBuf once
// decoded. A header that fails validation is returned with its error
// before any payload read, so a poisoned stream costs at most
// HeaderSize bytes of reading.
func ReadFrame(r io.Reader) (Header, []byte, error) {
	var hdr [HeaderSize]byte
	return readFrame(r, hdr[:])
}

// readFrame is ReadFrame reading the header into the caller's scratch
// (HeaderSize bytes). A local array escapes through io.Reader once per
// frame; a read loop passes the same scratch every time instead.
func readFrame(r io.Reader, hdr []byte) (Header, []byte, error) {
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Header{}, nil, err
	}
	h, err := ParseHeader(hdr)
	if err != nil {
		return h, nil, err
	}
	payload := GetBuf(int(h.Len))
	if _, err := io.ReadFull(r, payload); err != nil {
		PutBuf(payload)
		return h, nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	return h, payload, nil
}

// Buffer pool. Frames and payloads churn at invoke rate, so both the
// read and write paths recycle their scratch through one pool. Buffers
// above poolBufCap are left for the GC rather than pinned forever.
// sync.Pool holds pointers, so a pooled slice sits in a *[]byte box;
// the boxes cycle through boxPool the opposite way (GetBuf empties one,
// PutBuf refills it), and neither call allocates in steady state.
const poolBufCap = 64 << 10

var (
	bufPool = sync.Pool{
		New: func() any {
			b := make([]byte, 0, 4096)
			return &b
		},
	}
	boxPool = sync.Pool{New: func() any { return new([]byte) }}
)

// GetBuf returns a pooled buffer of length n (n may be 0 for use as an
// append target).
func GetBuf(n int) []byte {
	bp := bufPool.Get().(*[]byte)
	b := *bp
	if cap(b) < n {
		bufPool.Put(bp)
		return make([]byte, n)
	}
	*bp = nil
	boxPool.Put(bp)
	return b[:n]
}

// PutBuf recycles a buffer obtained from GetBuf (or grown from one).
// Oversized buffers are dropped to bound pool memory.
func PutBuf(b []byte) {
	if cap(b) == 0 || cap(b) > poolBufCap {
		return
	}
	bp := boxPool.Get().(*[]byte)
	*bp = b[:0]
	bufPool.Put(bp)
}
