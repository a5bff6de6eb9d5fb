// Package wal is ConfBench's durable persistence plane: a bitcask-style
// append-only entry log with an in-memory key index.
//
// Records are length-prefixed and CRC32-checksummed, appended to
// numbered segment files that roll over at a byte budget. Open rebuilds
// the key → (segment, offset) index by scanning every segment in order;
// a torn tail record (the footprint of a crash mid-append) is truncated
// away instead of failing the open, so the log always recovers every
// record written before the corruption. Superseded and tombstoned
// entries are dropped by merge compaction, which rewrites the live set
// into fresh segments and deletes the old ones — triggered explicitly
// via Compact or in the background once the dead-byte ratio crosses the
// configured threshold.
//
// Two consumers mount it: internal/minidb's durable storage backend
// (committed row mutations, so speedtest prices real write
// amplification and fsync pairs) and internal/obs's telemetry spill
// (series windows and flight-recorder event batches as saved-record
// column blocks, so windowed queries and postmortems span restarts).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

const (
	// segmentBytes is the roll-over budget of one segment file.
	segmentBytes = 4 << 20
	// DefaultCompactRatio is the dead/total byte ratio past which a
	// write triggers background compaction.
	DefaultCompactRatio = 0.5
	// compactMinBytes is the total log size below which automatic
	// compaction never triggers (tiny logs are not worth rewriting).
	compactMinBytes = 64 << 10
	// MaxKeyLen and MaxValueLen bound one record's key and value; the
	// scanner treats larger claimed lengths as corruption.
	MaxKeyLen   = 1 << 16
	MaxValueLen = 64 << 20
)

// recordHeaderLen is crc32(4) + flags(1) + keyLen(4) + valLen(4).
const recordHeaderLen = 13

// Record flags.
const flagTombstone = 1

// ErrClosed reports an operation on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Options tunes a Log.
type Options struct {
	// CompactRatio is the dead/total byte ratio past which appends
	// schedule a background compaction (0 = DefaultCompactRatio;
	// negative disables automatic compaction — Compact still works).
	CompactRatio float64
}

func (o Options) withDefaults() Options {
	if o.CompactRatio == 0 {
		o.CompactRatio = DefaultCompactRatio
	}
	return o
}

// ref locates one live record.
type ref struct {
	seg  int
	off  int64
	size int64 // full record footprint, header included
}

// segment is one log file open for reading (and, for the active one,
// appending).
type segment struct {
	id   int
	f    *os.File
	size int64
}

// Stats is a point-in-time summary of the log.
type Stats struct {
	// Segments counts live segment files.
	Segments int
	// Keys counts live (non-tombstoned, non-superseded) keys.
	Keys int
	// LiveBytes is the record footprint of the live keys.
	LiveBytes int64
	// TotalBytes is the on-disk footprint of every segment.
	TotalBytes int64
	// Compactions counts completed merge passes.
	Compactions int
	// TruncatedTail reports whether Open found and cut a torn tail.
	TruncatedTail bool
	// RecoveredRecords counts records recovered by the opening scan.
	RecoveredRecords int
}

// DeadRatio is the fraction of on-disk bytes owed to superseded and
// tombstoned records.
func (s Stats) DeadRatio() float64 {
	if s.TotalBytes == 0 {
		return 0
	}
	return float64(s.TotalBytes-s.LiveBytes) / float64(s.TotalBytes)
}

// Log is an append-only keyed entry log. All methods are safe for
// concurrent use.
type Log struct {
	dir  string
	opts Options
	// segBytes is segmentBytes; tests shrink it to force roll-overs.
	segBytes int64

	mu          sync.Mutex
	segments    map[int]*segment
	active      *segment
	index       map[string]ref
	liveBytes   int64
	totalBytes  int64
	compacting  bool
	compactions int
	closed      bool
	wg          sync.WaitGroup

	truncatedTail bool
	recovered     int
}

// Open opens (or creates) the log rooted at dir, rebuilding the key
// index by scanning every segment in id order. A torn or corrupted
// tail is truncated, never fatal: every record before the corruption
// point is recovered.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{
		dir:      dir,
		opts:     opts,
		segBytes: segmentBytes,
		segments: make(map[int]*segment, 4),
		index:    make(map[string]ref, 64),
	}
	ids, err := listSegmentIDs(dir)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		seg, err := l.openSegment(id)
		if err != nil {
			l.closeAllLocked()
			return nil, err
		}
		if err := l.scanSegment(seg); err != nil {
			l.closeAllLocked()
			return nil, err
		}
		l.segments[id] = seg
		l.totalBytes += seg.size
	}
	if len(ids) == 0 {
		if err := l.rollLocked(1); err != nil {
			return nil, err
		}
	} else {
		l.active = l.segments[ids[len(ids)-1]]
	}
	return l, nil
}

// segmentName renders one segment file name.
func segmentName(id int) string { return fmt.Sprintf("seg-%08d.wal", id) }

// listSegmentIDs returns the segment ids present in dir, ascending.
func listSegmentIDs(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var ids []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".wal") {
			continue
		}
		var id int
		if _, err := fmt.Sscanf(name, "seg-%08d.wal", &id); err != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids, nil
}

func (l *Log) openSegment(id int) (*segment, error) {
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(id)), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	return &segment{id: id, f: f, size: fi.Size()}, nil
}

// scanSegment replays one segment into the index, truncating at the
// first torn or corrupted record. Records later in the scan supersede
// earlier ones (and tombstones delete), so replaying segments in id
// order reproduces last-write-wins.
func (l *Log) scanSegment(seg *segment) error {
	var off int64
	header := make([]byte, recordHeaderLen)
	for off < seg.size {
		key, valLen, recLen, ok := l.readRecordMeta(seg, off, header)
		if !ok {
			// Torn or corrupted tail: cut the segment here. Everything
			// before off was verified and stays recovered.
			if err := seg.f.Truncate(off); err != nil {
				return fmt.Errorf("wal: truncate torn tail of %s: %w", segmentName(seg.id), err)
			}
			seg.size = off
			l.truncatedTail = true
			return nil
		}
		tombstone := valLen < 0
		if prev, exists := l.index[key]; exists {
			l.liveBytes -= prev.size
		}
		if tombstone {
			delete(l.index, key)
		} else {
			l.index[key] = ref{seg: seg.id, off: off, size: recLen}
			l.liveBytes += recLen
		}
		l.recovered++
		off += recLen
	}
	return nil
}

// readRecordMeta reads and verifies the record at off. It returns the
// key, the value length (-1 for tombstones), and the full record
// length. ok is false when the record is torn or fails its checksum.
func (l *Log) readRecordMeta(seg *segment, off int64, header []byte) (key string, valLen int64, recLen int64, ok bool) {
	if _, err := seg.f.ReadAt(header, off); err != nil {
		return "", 0, 0, false
	}
	crc := binary.BigEndian.Uint32(header[0:4])
	flags := header[4]
	kl := int64(binary.BigEndian.Uint32(header[5:9]))
	vl := int64(binary.BigEndian.Uint32(header[9:13]))
	if kl == 0 || kl > MaxKeyLen || vl > MaxValueLen {
		return "", 0, 0, false
	}
	recLen = recordHeaderLen + kl + vl
	if off+recLen > seg.size {
		return "", 0, 0, false
	}
	body := make([]byte, kl+vl)
	if _, err := seg.f.ReadAt(body, off+recordHeaderLen); err != nil {
		return "", 0, 0, false
	}
	h := crc32.NewIEEE()
	h.Write(header[4:])
	h.Write(body)
	if h.Sum32() != crc {
		return "", 0, 0, false
	}
	valLen = vl
	if flags&flagTombstone != 0 {
		valLen = -1
	}
	return string(body[:kl]), valLen, recLen, true
}

// encodeRecord renders one record: crc | flags | keyLen | valLen |
// key | val. The CRC covers everything after itself.
func encodeRecord(key string, val []byte, tombstone bool) []byte {
	buf := make([]byte, recordHeaderLen+len(key)+len(val))
	var flags byte
	if tombstone {
		flags = flagTombstone
	}
	buf[4] = flags
	binary.BigEndian.PutUint32(buf[5:9], uint32(len(key)))
	binary.BigEndian.PutUint32(buf[9:13], uint32(len(val)))
	copy(buf[recordHeaderLen:], key)
	copy(buf[recordHeaderLen+len(key):], val)
	binary.BigEndian.PutUint32(buf[0:4], crc32.ChecksumIEEE(buf[4:]))
	return buf
}

// rollLocked starts a fresh active segment with the given id.
func (l *Log) rollLocked(id int) error {
	seg, err := l.openSegment(id)
	if err != nil {
		return err
	}
	l.segments[id] = seg
	l.active = seg
	return nil
}

// appendLocked writes one encoded record to the active segment,
// rolling over first when the active segment is past its budget.
func (l *Log) appendLocked(rec []byte) (seg int, off int64, err error) {
	if l.active.size >= l.segBytes {
		if err := l.rollLocked(l.active.id + 1); err != nil {
			return 0, 0, err
		}
	}
	off = l.active.size
	if _, err := l.active.f.WriteAt(rec, off); err != nil {
		return 0, 0, fmt.Errorf("wal: append: %w", err)
	}
	l.active.size += int64(len(rec))
	l.totalBytes += int64(len(rec))
	return l.active.id, off, nil
}

// Put appends key → val, superseding any earlier record for key. It
// returns the on-disk record footprint in bytes (the write
// amplification callers meter).
func (l *Log) Put(key string, val []byte) (int64, error) {
	if key == "" || len(key) > MaxKeyLen {
		return 0, fmt.Errorf("wal: invalid key length %d", len(key))
	}
	if len(val) > MaxValueLen {
		return 0, fmt.Errorf("wal: value too large (%d bytes)", len(val))
	}
	rec := encodeRecord(key, val, false)
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	seg, off, err := l.appendLocked(rec)
	if err != nil {
		l.mu.Unlock()
		return 0, err
	}
	if prev, ok := l.index[key]; ok {
		l.liveBytes -= prev.size
	}
	l.index[key] = ref{seg: seg, off: off, size: int64(len(rec))}
	l.liveBytes += int64(len(rec))
	l.maybeCompactLocked()
	l.mu.Unlock()
	return int64(len(rec)), nil
}

// Delete appends a tombstone for key and drops it from the index. It
// returns the tombstone's on-disk footprint (0 when the key was never
// live — the append is skipped, there is nothing to shadow).
func (l *Log) Delete(key string) (int64, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	prev, ok := l.index[key]
	if !ok {
		l.mu.Unlock()
		return 0, nil
	}
	rec := encodeRecord(key, nil, true)
	if _, _, err := l.appendLocked(rec); err != nil {
		l.mu.Unlock()
		return 0, err
	}
	l.liveBytes -= prev.size
	delete(l.index, key)
	l.maybeCompactLocked()
	l.mu.Unlock()
	return int64(len(rec)), nil
}

// Get reads the live value under key.
func (l *Log) Get(key string) ([]byte, bool, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, false, ErrClosed
	}
	r, ok := l.index[key]
	if !ok {
		l.mu.Unlock()
		return nil, false, nil
	}
	val, err := l.readValueLocked(r)
	l.mu.Unlock()
	if err != nil {
		return nil, false, err
	}
	return val, true, nil
}

// readValueLocked fetches the value bytes of one indexed record.
func (l *Log) readValueLocked(r ref) ([]byte, error) {
	seg, ok := l.segments[r.seg]
	if !ok {
		return nil, fmt.Errorf("wal: segment %d vanished", r.seg)
	}
	header := make([]byte, recordHeaderLen)
	if _, err := seg.f.ReadAt(header, r.off); err != nil {
		return nil, fmt.Errorf("wal: read: %w", err)
	}
	kl := int64(binary.BigEndian.Uint32(header[5:9]))
	vl := int64(binary.BigEndian.Uint32(header[9:13]))
	val := make([]byte, vl)
	if _, err := seg.f.ReadAt(val, r.off+recordHeaderLen+kl); err != nil {
		return nil, fmt.Errorf("wal: read: %w", err)
	}
	return val, nil
}

// Keys returns every live key, sorted.
func (l *Log) Keys() []string {
	l.mu.Lock()
	out := make([]string, 0, len(l.index))
	for k := range l.index {
		out = append(out, k)
	}
	l.mu.Unlock()
	sort.Strings(out)
	return out
}

// Len returns the live key count.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.index)
}

// Range calls fn for every live entry in sorted key order, stopping at
// the first error.
func (l *Log) Range(fn func(key string, val []byte) error) error {
	for _, k := range l.Keys() {
		val, ok, err := l.Get(k)
		if err != nil {
			return err
		}
		if !ok {
			continue // deleted between Keys and Get
		}
		if err := fn(k, val); err != nil {
			return err
		}
	}
	return nil
}

// Sync flushes the active segment to stable storage — the commit
// point's fsync. The metered cost (one fsync pair) is charged by the
// caller; Sync performs the physical one.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.active.f.Sync()
}

// maybeCompactLocked schedules a background merge when the dead-byte
// ratio crosses the configured threshold. Caller holds l.mu.
func (l *Log) maybeCompactLocked() {
	if l.opts.CompactRatio < 0 || l.compacting || l.closed {
		return
	}
	if l.totalBytes < compactMinBytes {
		return
	}
	dead := l.totalBytes - l.liveBytes
	if float64(dead)/float64(l.totalBytes) < l.opts.CompactRatio {
		return
	}
	l.compacting = true
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		_ = l.compact()
	}()
}

// Compact merges the live set into fresh segments, dropping superseded
// and tombstoned records, and deletes the old segment files.
func (l *Log) Compact() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.compacting {
		// A background merge is in flight; it will do the same work.
		l.mu.Unlock()
		return nil
	}
	l.compacting = true
	l.mu.Unlock()
	return l.compact()
}

// compact performs the merge. Only one runs at a time (l.compacting).
func (l *Log) compact() error {
	l.mu.Lock()
	defer func() {
		l.compacting = false
		l.mu.Unlock()
	}()
	if l.closed {
		return ErrClosed
	}
	// Rewrite live records, sorted by key for a deterministic layout,
	// into fresh segments numbered above every existing one.
	keys := make([]string, 0, len(l.index))
	for k := range l.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	oldSegments := l.segments
	nextID := l.active.id + 1
	l.segments = make(map[int]*segment, 4)
	if err := l.rollLocked(nextID); err != nil {
		l.segments = oldSegments
		return err
	}
	newIndex := make(map[string]ref, len(keys))
	var live, total int64
	for _, k := range keys {
		r := l.index[k]
		seg, ok := oldSegments[r.seg]
		if !ok {
			continue
		}
		rec := make([]byte, r.size)
		if _, err := seg.f.ReadAt(rec, r.off); err != nil {
			return fmt.Errorf("wal: compact read: %w", err)
		}
		id, off, err := l.appendLocked(rec)
		if err != nil {
			return err
		}
		newIndex[k] = ref{seg: id, off: off, size: r.size}
		live += r.size
		total += r.size
	}
	if err := l.active.f.Sync(); err != nil {
		return fmt.Errorf("wal: compact sync: %w", err)
	}
	l.index = newIndex
	l.liveBytes = live
	l.totalBytes = total
	for id, seg := range oldSegments {
		seg.f.Close()
		_ = os.Remove(filepath.Join(l.dir, segmentName(id)))
		_ = id
	}
	l.compactions++
	return nil
}

// Stats summarizes the log.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Segments:         len(l.segments),
		Keys:             len(l.index),
		LiveBytes:        l.liveBytes,
		TotalBytes:       l.totalBytes,
		Compactions:      l.compactions,
		TruncatedTail:    l.truncatedTail,
		RecoveredRecords: l.recovered,
	}
}

// Dir returns the log's root directory.
func (l *Log) Dir() string { return l.dir }

// closeAllLocked closes every open segment handle.
func (l *Log) closeAllLocked() {
	for _, seg := range l.segments {
		seg.f.Close()
	}
}

// Close waits for any background compaction, syncs the active
// segment, and releases every file handle. Further operations return
// ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()
	l.wg.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.active != nil {
		if serr := l.active.f.Sync(); serr != nil && !errors.Is(serr, os.ErrClosed) {
			err = serr
		}
	}
	l.closeAllLocked()
	return err
}

// CorruptTailForTest appends garbage bytes to the active segment —
// the footprint of a crash mid-append — so recovery tests can assert
// the torn tail is truncated. Exposed for tests only.
func (l *Log) CorruptTailForTest(garbage []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if _, err := l.active.f.WriteAt(garbage, l.active.size); err != nil {
		return err
	}
	l.active.size += int64(len(garbage))
	l.totalBytes += int64(len(garbage))
	return nil
}

var _ io.Closer = (*Log)(nil)
