// Package migrate implements live migration of running confidential
// guests between hosts: a chunked, checksummed stream protocol for the
// guest's exported state, and an engine that drives export → stream →
// attestation-gated resume, with first-class mid-stream failure
// handling (resume from the last acked chunk, or roll back to the
// still-running source guest).
//
// The stream maps onto each platform's real migration machinery: the
// TDX 1.5 migration-TD stream (TDH.EXPORT.*/TDH.IMPORT.*), the SNP
// migration agent's page stream replaying RMP donations, and a CCA
// realm handoff carrying the sealed RIM. The destination re-verifies
// the launch measurement (via internal/attest) before the migrated
// guest is allowed to resume; a tampered or stale measurement aborts
// the migration with a typed cberr code while the source keeps
// serving.
package migrate

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"confbench/internal/tee"
)

// Stream protocol errors. Decode and the Receiver return these
// wrapped with position context; they never panic on garbage.
var (
	ErrTruncated  = errors.New("migrate: truncated stream")
	ErrMagic      = errors.New("migrate: bad stream magic")
	ErrVersion    = errors.New("migrate: unsupported stream version")
	ErrHeaderCRC  = errors.New("migrate: header checksum mismatch")
	ErrChunkCRC   = errors.New("migrate: chunk checksum mismatch")
	ErrChunkOrder = errors.New("migrate: chunk out of order")
	ErrChunkShape = errors.New("migrate: chunk frame inconsistent with header")
	ErrBinding    = errors.New("migrate: stream binding mismatch")
	ErrMarker     = errors.New("migrate: unknown frame marker")
	ErrOversize   = errors.New("migrate: header field exceeds protocol cap")
	ErrIncomplete = errors.New("migrate: stream ended before all chunks arrived")
	ErrNoHeader   = errors.New("migrate: frame before header")
	ErrHeaderDiff = errors.New("migrate: resumed header differs from original")
)

// Protocol constants.
const (
	streamMagic   = "CBMG"
	streamVersion = 1

	markerChunk   = 'C'
	markerTrailer = 'T'

	// DefaultChunkSize is the engine's default chunk payload size.
	DefaultChunkSize = 4096

	// Protocol caps: a decoder must never allocate more than these on
	// the say-so of an untrusted header.
	maxKindLen     = 64
	maxMeasurement = 1024
	maxState       = 1 << 28 // 256 MiB serialized state
	maxChunkSize   = 1 << 24 // 16 MiB per chunk
)

// header is the decoded stream preamble: everything the destination
// needs to size buffers and, later, verify the binding.
type header struct {
	kind        string
	memoryMB    uint32
	measurement []byte
	stateLen    uint32
	chunkSize   uint32
	exportNs    uint64
	resumeNs    uint64
	raw         []byte // encoded form, for resume-equality checks
}

func (h *header) numChunks() int {
	if h.stateLen == 0 {
		return 0
	}
	return int((h.stateLen + h.chunkSize - 1) / h.chunkSize)
}

// binding computes the SHA-256 the trailer seals over the identity
// fields and the full reassembled state. It is what makes the stream
// tamper-evident end to end: any bit of kind, memory size,
// measurement, or state changed in transit changes the binding.
func binding(kind string, memoryMB uint32, measurement, state []byte) [sha256.Size]byte {
	hsh := sha256.New()
	hsh.Write([]byte(kind))
	var mem [4]byte
	binary.BigEndian.PutUint32(mem[:], memoryMB)
	hsh.Write(mem[:])
	hsh.Write(measurement)
	hsh.Write(state)
	var out [sha256.Size]byte
	copy(out[:], hsh.Sum(nil))
	return out
}

// Stream is an encoded migration image, framed for chunk-at-a-time
// transfer: one header, numChunks chunk frames, one trailer.
type Stream struct {
	header  []byte
	chunks  [][]byte
	trailer []byte
}

// NumChunks returns the chunk-frame count.
func (s *Stream) NumChunks() int { return len(s.chunks) }

// HeaderFrame returns the encoded header frame.
func (s *Stream) HeaderFrame() []byte { return s.header }

// ChunkFrame returns the i-th encoded chunk frame.
func (s *Stream) ChunkFrame(i int) []byte { return s.chunks[i] }

// TrailerFrame returns the encoded trailer frame.
func (s *Stream) TrailerFrame() []byte { return s.trailer }

// Bytes returns the full concatenated stream (header, chunks,
// trailer) — the one-shot wire form Decode accepts.
func (s *Stream) Bytes() []byte {
	n := len(s.header) + len(s.trailer)
	for _, c := range s.chunks {
		n += len(c)
	}
	out := make([]byte, 0, n)
	out = append(out, s.header...)
	for _, c := range s.chunks {
		out = append(out, c...)
	}
	out = append(out, s.trailer...)
	return out
}

// TotalBytes returns the on-wire size of the full stream.
func (s *Stream) TotalBytes() int64 {
	n := int64(len(s.header) + len(s.trailer))
	for _, c := range s.chunks {
		n += int64(len(c))
	}
	return n
}

// Encode frames a migration image for transfer. chunkSize <= 0 uses
// DefaultChunkSize.
func Encode(img *tee.MigrationImage, chunkSize int) (*Stream, error) {
	if img == nil {
		return nil, tee.ErrNilImage
	}
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	if chunkSize > maxChunkSize {
		return nil, fmt.Errorf("%w: chunk size %d", ErrOversize, chunkSize)
	}
	kind := string(img.Kind)
	if len(kind) > maxKindLen {
		return nil, fmt.Errorf("%w: kind %q", ErrOversize, kind)
	}
	if len(img.Measurement) > maxMeasurement {
		return nil, fmt.Errorf("%w: measurement %d bytes", ErrOversize, len(img.Measurement))
	}
	if len(img.State) > maxState {
		return nil, fmt.Errorf("%w: state %d bytes", ErrOversize, len(img.State))
	}

	// Header: magic, version, kind, memMB, measurement, state length,
	// chunk size, costs, CRC over all of it.
	var hb bytes.Buffer
	hb.WriteString(streamMagic)
	hb.WriteByte(streamVersion)
	hb.WriteByte(byte(len(kind)))
	hb.WriteString(kind)
	var u32 [4]byte
	var u64 [8]byte
	binary.BigEndian.PutUint32(u32[:], uint32(img.MemoryMB))
	hb.Write(u32[:])
	var u16 [2]byte
	binary.BigEndian.PutUint16(u16[:], uint16(len(img.Measurement)))
	hb.Write(u16[:])
	hb.Write(img.Measurement)
	binary.BigEndian.PutUint32(u32[:], uint32(len(img.State)))
	hb.Write(u32[:])
	binary.BigEndian.PutUint32(u32[:], uint32(chunkSize))
	hb.Write(u32[:])
	binary.BigEndian.PutUint64(u64[:], uint64(img.ExportCost))
	hb.Write(u64[:])
	binary.BigEndian.PutUint64(u64[:], uint64(img.ResumeCost))
	hb.Write(u64[:])
	binary.BigEndian.PutUint32(u32[:], crc32.ChecksumIEEE(hb.Bytes()))
	hb.Write(u32[:])

	st := &Stream{header: hb.Bytes()}

	// Chunk frames: marker, index, offset, length, CRC, payload.
	for off, idx := 0, 0; off < len(img.State); off, idx = off+chunkSize, idx+1 {
		end := off + chunkSize
		if end > len(img.State) {
			end = len(img.State)
		}
		data := img.State[off:end]
		frame := make([]byte, 0, 1+4+4+4+4+len(data))
		frame = append(frame, markerChunk)
		binary.BigEndian.PutUint32(u32[:], uint32(idx))
		frame = append(frame, u32[:]...)
		binary.BigEndian.PutUint32(u32[:], uint32(off))
		frame = append(frame, u32[:]...)
		binary.BigEndian.PutUint32(u32[:], uint32(len(data)))
		frame = append(frame, u32[:]...)
		binary.BigEndian.PutUint32(u32[:], crc32.ChecksumIEEE(data))
		frame = append(frame, u32[:]...)
		frame = append(frame, data...)
		st.chunks = append(st.chunks, frame)
	}

	// Trailer: marker plus the SHA-256 binding over identity + state.
	b := binding(kind, uint32(img.MemoryMB), img.Measurement, img.State)
	trailer := make([]byte, 0, 1+sha256.Size)
	trailer = append(trailer, markerTrailer)
	trailer = append(trailer, b[:]...)
	st.trailer = trailer
	return st, nil
}

// Receiver reassembles a migration image from stream frames. It keeps
// a resume cursor — the index of the next chunk it expects — so a
// severed transfer restarts from the last acked chunk instead of from
// zero. Duplicate (already-acked) chunks are ignored, making resume
// idempotent.
type Receiver struct {
	hdr   *header
	state []byte
	next  int
	img   *tee.MigrationImage
}

// NewReceiver returns an empty receiver awaiting a header frame.
func NewReceiver() *Receiver { return &Receiver{} }

// Cursor returns the resume cursor: the index of the next chunk the
// receiver will accept.
func (r *Receiver) Cursor() int { return r.next }

// Complete reports whether the trailer verified and the image is
// ready.
func (r *Receiver) Complete() bool { return r.img != nil }

// parseHeader decodes and validates a header frame.
func parseHeader(b []byte) (*header, error) {
	// Fixed part before variable fields: magic(4) version(1) kindLen(1).
	if len(b) < 6 {
		return nil, fmt.Errorf("%w: header %d bytes", ErrTruncated, len(b))
	}
	if string(b[:4]) != streamMagic {
		return nil, ErrMagic
	}
	if b[4] != streamVersion {
		return nil, fmt.Errorf("%w: %d", ErrVersion, b[4])
	}
	kindLen := int(b[5])
	if kindLen > maxKindLen {
		return nil, fmt.Errorf("%w: kind %d bytes", ErrOversize, kindLen)
	}
	pos := 6
	if len(b) < pos+kindLen+4+2 {
		return nil, fmt.Errorf("%w: header %d bytes", ErrTruncated, len(b))
	}
	kind := string(b[pos : pos+kindLen])
	pos += kindLen
	memMB := binary.BigEndian.Uint32(b[pos:])
	pos += 4
	measLen := int(binary.BigEndian.Uint16(b[pos:]))
	pos += 2
	if measLen > maxMeasurement {
		return nil, fmt.Errorf("%w: measurement %d bytes", ErrOversize, measLen)
	}
	if len(b) < pos+measLen+4+4+8+8+4 {
		return nil, fmt.Errorf("%w: header %d bytes", ErrTruncated, len(b))
	}
	measurement := append([]byte(nil), b[pos:pos+measLen]...)
	pos += measLen
	stateLen := binary.BigEndian.Uint32(b[pos:])
	pos += 4
	chunkSize := binary.BigEndian.Uint32(b[pos:])
	pos += 4
	exportNs := binary.BigEndian.Uint64(b[pos:])
	pos += 8
	resumeNs := binary.BigEndian.Uint64(b[pos:])
	pos += 8
	if stateLen > maxState {
		return nil, fmt.Errorf("%w: state %d bytes", ErrOversize, stateLen)
	}
	if chunkSize == 0 || chunkSize > maxChunkSize {
		return nil, fmt.Errorf("%w: chunk size %d", ErrOversize, chunkSize)
	}
	sum := binary.BigEndian.Uint32(b[pos:])
	if crc32.ChecksumIEEE(b[:pos]) != sum {
		return nil, ErrHeaderCRC
	}
	pos += 4
	return &header{
		kind:        kind,
		memoryMB:    memMB,
		measurement: measurement,
		stateLen:    stateLen,
		chunkSize:   chunkSize,
		exportNs:    exportNs,
		resumeNs:    resumeNs,
		raw:         append([]byte(nil), b[:pos]...),
	}, nil
}

// headerLen returns the total encoded length of a header frame whose
// fixed prefix is readable in b, or an error when b cannot hold one.
func headerLen(b []byte) (int, error) {
	if len(b) < 6 {
		return 0, fmt.Errorf("%w: header %d bytes", ErrTruncated, len(b))
	}
	kindLen := int(b[5])
	pos := 6 + kindLen + 4
	if len(b) < pos+2 {
		return 0, fmt.Errorf("%w: header %d bytes", ErrTruncated, len(b))
	}
	measLen := int(binary.BigEndian.Uint16(b[pos:]))
	return pos + 2 + measLen + 4 + 4 + 8 + 8 + 4, nil
}

// FeedHeader accepts the stream header. Re-feeding after a resume is
// legal but the bytes must match the original exactly.
func (r *Receiver) FeedHeader(frame []byte) error {
	h, err := parseHeader(frame)
	if err != nil {
		return err
	}
	if r.hdr != nil {
		if !bytes.Equal(r.hdr.raw, h.raw) {
			return ErrHeaderDiff
		}
		return nil
	}
	r.hdr = h
	r.state = make([]byte, h.stateLen)
	return nil
}

// FeedChunk accepts one chunk frame. Chunks must arrive in order;
// duplicates of already-acked chunks are ignored (resume idempotence),
// and a corrupt chunk is rejected with ErrChunkCRC without advancing
// the cursor, so the sender can re-transmit it.
func (r *Receiver) FeedChunk(frame []byte) error {
	if r.hdr == nil {
		return ErrNoHeader
	}
	if len(frame) < 1+4+4+4+4 {
		return fmt.Errorf("%w: chunk frame %d bytes", ErrTruncated, len(frame))
	}
	if frame[0] != markerChunk {
		return fmt.Errorf("%w: %q", ErrMarker, frame[0])
	}
	idx := int(binary.BigEndian.Uint32(frame[1:]))
	off := int64(binary.BigEndian.Uint32(frame[5:]))
	length := int64(binary.BigEndian.Uint32(frame[9:]))
	sum := binary.BigEndian.Uint32(frame[13:])
	data := frame[17:]
	if int64(len(data)) != length {
		return fmt.Errorf("%w: chunk %d declares %d bytes, carries %d",
			ErrTruncated, idx, length, len(data))
	}
	if idx >= r.hdr.numChunks() || length > int64(r.hdr.chunkSize) ||
		off != int64(idx)*int64(r.hdr.chunkSize) || off+length > int64(r.hdr.stateLen) {
		return fmt.Errorf("%w: chunk %d (offset %d, %d bytes)", ErrChunkShape, idx, off, length)
	}
	if idx < r.next {
		return nil // duplicate of an acked chunk: resume overlap, ignore
	}
	if idx > r.next {
		return fmt.Errorf("%w: got chunk %d, want %d", ErrChunkOrder, idx, r.next)
	}
	if crc32.ChecksumIEEE(data) != sum {
		return fmt.Errorf("%w: chunk %d", ErrChunkCRC, idx)
	}
	copy(r.state[off:off+length], data)
	r.next++
	return nil
}

// FeedTrailer accepts the trailer, verifies every chunk arrived and
// the binding seals what was reassembled, and finalizes the image.
func (r *Receiver) FeedTrailer(frame []byte) error {
	if r.hdr == nil {
		return ErrNoHeader
	}
	if len(frame) < 1+sha256.Size {
		return fmt.Errorf("%w: trailer %d bytes", ErrTruncated, len(frame))
	}
	if frame[0] != markerTrailer {
		return fmt.Errorf("%w: %q", ErrMarker, frame[0])
	}
	if r.next < r.hdr.numChunks() {
		return fmt.Errorf("%w: %d of %d chunks", ErrIncomplete, r.next, r.hdr.numChunks())
	}
	want := binding(r.hdr.kind, r.hdr.memoryMB, r.hdr.measurement, r.state)
	if !bytes.Equal(frame[1:1+sha256.Size], want[:]) {
		return ErrBinding
	}
	r.img = &tee.MigrationImage{
		Kind:        tee.Kind(r.hdr.kind),
		MemoryMB:    int(r.hdr.memoryMB),
		Measurement: append([]byte(nil), r.hdr.measurement...),
		State:       append([]byte(nil), r.state...),
		ExportCost:  time.Duration(r.hdr.exportNs),
		ResumeCost:  time.Duration(r.hdr.resumeNs),
	}
	return nil
}

// Image returns the reassembled, binding-verified migration image.
func (r *Receiver) Image() (*tee.MigrationImage, error) {
	if r.img == nil {
		if r.hdr == nil {
			return nil, ErrNoHeader
		}
		return nil, fmt.Errorf("%w: %d of %d chunks", ErrIncomplete, r.next, r.hdr.numChunks())
	}
	return r.img, nil
}

// Decode reassembles a full concatenated stream in one shot — the
// wire form Stream.Bytes produces. It walks header, chunk frames, and
// trailer, and returns the verified image. Garbage of any shape yields
// an error, never a panic.
func Decode(data []byte) (*tee.MigrationImage, error) {
	r := NewReceiver()
	hlen, err := headerLen(data)
	if err != nil {
		return nil, err
	}
	if len(data) < hlen {
		return nil, fmt.Errorf("%w: header %d bytes", ErrTruncated, len(data))
	}
	if err := r.FeedHeader(data[:hlen]); err != nil {
		return nil, err
	}
	pos := hlen
	for pos < len(data) {
		switch data[pos] {
		case markerChunk:
			if len(data) < pos+17 {
				return nil, fmt.Errorf("%w: chunk frame at %d", ErrTruncated, pos)
			}
			length := int(binary.BigEndian.Uint32(data[pos+9:]))
			if length > maxChunkSize {
				return nil, fmt.Errorf("%w: chunk of %d bytes", ErrOversize, length)
			}
			end := pos + 17 + length
			if end > len(data) {
				return nil, fmt.Errorf("%w: chunk frame at %d", ErrTruncated, pos)
			}
			if err := r.FeedChunk(data[pos:end]); err != nil {
				return nil, err
			}
			pos = end
		case markerTrailer:
			end := pos + 1 + sha256.Size
			if end > len(data) {
				return nil, fmt.Errorf("%w: trailer at %d", ErrTruncated, pos)
			}
			if err := r.FeedTrailer(data[pos:end]); err != nil {
				return nil, err
			}
			if end != len(data) {
				return nil, fmt.Errorf("%w: %d trailing bytes", ErrMarker, len(data)-end)
			}
			return r.Image()
		default:
			return nil, fmt.Errorf("%w: %q at %d", ErrMarker, data[pos], pos)
		}
	}
	return nil, fmt.Errorf("%w: no trailer", ErrIncomplete)
}
