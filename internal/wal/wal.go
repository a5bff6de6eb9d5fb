// Package wal is ConfBench's durable persistence plane: a bitcask-style
// append-only entry log with an in-memory key index.
//
// Records are length-prefixed and CRC32-checksummed, appended to
// numbered segment files that roll over at a byte budget. A batch of
// ops (Apply) is encoded into one buffer and written with one write per
// segment it lands in. Open rebuilds the key → (segment, offset) index
// by reading every segment whole, in order, and parsing it in memory; a
// torn tail record (the footprint of a crash mid-append) is truncated
// away instead of failing the open, so the log always recovers every
// record written before the corruption. Superseded and tombstoned
// entries are dropped by merge compaction, which copies the live set,
// one old segment read at a time, into fresh segments and deletes the
// old ones — triggered explicitly via Compact or in the background once
// the dead-byte ratio crosses the configured threshold.
//
// Two consumers mount it: internal/minidb's durable storage backend
// (committed row mutations, so speedtest prices real write
// amplification and fsync pairs) and internal/obs's telemetry spill
// (series windows and flight-recorder event batches as saved-record
// column blocks, so windowed queries and postmortems span restarts).
package wal

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
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

// Op is one mutation of an Apply batch: Val under Key, or a tombstone
// for Key when Delete is set (Val is then ignored).
type Op struct {
	Key    string
	Val    []byte
	Delete bool
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

// scratchBytes and scratchRefs bound the Apply scratch a log keeps
// between batches; a larger batch's scratch is left to the collector.
const (
	scratchBytes = 1 << 20
	scratchRefs  = 1 << 15
)

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
	// buf and refs are Apply's scratch, reused under mu: the batch's
	// encoded records, and where each op landed (a zero ref for a
	// delete that appended nothing).
	buf  []byte
	refs []ref
	// unsynced lists the segments written since the last Sync, in id
	// order: an Apply that rolls over leaves records in the segment it
	// rolled from, and the commit point owes them an fsync too.
	unsynced []*segment
	// fsync makes one file (a segment or the directory) durable; tests
	// count the calls through it.
	fsync func(*os.File) error

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
		fsync:    (*os.File).Sync,
	}
	ids, err := listSegmentIDs(dir)
	if err != nil {
		return nil, err
	}
	var data []byte
	for _, id := range ids {
		seg, err := l.openSegment(id)
		if err != nil {
			l.closeAllLocked()
			return nil, err
		}
		if data, err = l.scanSegment(seg, data); err != nil {
			seg.f.Close()
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

// scanSegment replays one segment into the index. It reads the segment
// whole into buf (grown as needed, and returned for the next segment)
// and parses it in memory, truncating the file at the first torn or
// corrupted record. Records later in the scan supersede earlier ones
// (and tombstones delete), so replaying segments in id order
// reproduces last-write-wins.
func (l *Log) scanSegment(seg *segment, buf []byte) ([]byte, error) {
	if int64(cap(buf)) < seg.size {
		buf = make([]byte, seg.size)
	}
	// A short read leaves the rest of the segment unread: it is cut
	// below as torn, as a record that failed to read always was.
	n, _ := seg.f.ReadAt(buf[:seg.size], 0)
	data := buf[:n]
	var off int64
	for off < seg.size {
		key, tombstone, recLen, ok := parseRecord(data[off:])
		if !ok {
			// Torn or corrupted tail: cut the segment here. Everything
			// before off was verified and stays recovered.
			if err := seg.f.Truncate(off); err != nil {
				return buf, fmt.Errorf("wal: truncate torn tail of %s: %w", segmentName(seg.id), err)
			}
			seg.size = off
			l.truncatedTail = true
			return buf, nil
		}
		if prev, exists := l.index[string(key)]; exists {
			l.liveBytes -= prev.size
		}
		if tombstone {
			delete(l.index, string(key))
		} else {
			l.index[string(key)] = ref{seg: seg.id, off: off, size: recLen}
			l.liveBytes += recLen
		}
		l.recovered++
		off += recLen
	}
	return buf, nil
}

// parseRecord verifies the record at the start of b. It returns the
// key bytes, whether the record is a tombstone, and the full record
// length. ok is false when b holds no whole record, or the record's
// lengths are out of bounds or it fails its checksum.
func parseRecord(b []byte) (key []byte, tombstone bool, recLen int64, ok bool) {
	if len(b) < recordHeaderLen {
		return nil, false, 0, false
	}
	kl := int64(binary.BigEndian.Uint32(b[5:9]))
	vl := int64(binary.BigEndian.Uint32(b[9:13]))
	if kl == 0 || kl > MaxKeyLen || vl > MaxValueLen {
		return nil, false, 0, false
	}
	recLen = recordHeaderLen + kl + vl
	if recLen > int64(len(b)) {
		return nil, false, 0, false
	}
	if crc32.ChecksumIEEE(b[4:recLen]) != binary.BigEndian.Uint32(b[0:4]) {
		return nil, false, 0, false
	}
	return b[recordHeaderLen : recordHeaderLen+kl], b[4]&flagTombstone != 0, recLen, true
}

// appendRecord renders one record onto dst: crc | flags | keyLen |
// valLen | key | val. The CRC covers everything after itself.
func appendRecord(dst []byte, key string, val []byte, tombstone bool) []byte {
	start := len(dst)
	var flags byte
	if tombstone {
		flags = flagTombstone
	}
	dst = append(dst, 0, 0, 0, 0, flags)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(key)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(val)))
	dst = append(dst, key...)
	dst = append(dst, val...)
	binary.BigEndian.PutUint32(dst[start:], crc32.ChecksumIEEE(dst[start+4:]))
	return dst
}

// rollLocked starts a fresh active segment with the given id, and
// fsyncs the directory so that the new file's entry is as durable as
// the records later synced into it.
func (l *Log) rollLocked(id int) error {
	seg, err := l.openSegment(id)
	if err != nil {
		return err
	}
	l.segments[id] = seg
	l.active = seg
	return l.syncDir()
}

// syncDir fsyncs the log's directory: the creations and removals of
// segment files in it.
func (l *Log) syncDir() error {
	d, err := os.Open(l.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := l.fsync(d); err != nil {
		return fmt.Errorf("wal: sync %s: %w", l.dir, err)
	}
	return nil
}

// Put appends key → val, superseding any earlier record for key: an
// Apply of one op. It returns the on-disk record footprint in bytes
// (the write amplification callers meter).
func (l *Log) Put(key string, val []byte) (int64, error) {
	return l.Apply([]Op{{Key: key, Val: val}})
}

// Delete appends a tombstone for key and drops it from the index: an
// Apply of one op. It returns the tombstone's on-disk footprint (0
// when the key was never live — the append is skipped, there is
// nothing to shadow).
func (l *Log) Delete(key string) (int64, error) {
	return l.Apply([]Op{{Key: key, Delete: true}})
}

// Apply appends ops in order and returns the on-disk footprint they
// wrote (the write amplification callers meter). Each op writes the
// record a Put or Delete of it would, and a delete of a key that is
// not live at its point in the batch appends nothing. The batch is
// encoded into one buffer and written with one write per segment it
// lands in, rolling over where separate appends would; the index
// changes only once the bytes are written. A batch is not atomic: a
// crash mid-write recovers a prefix of its ops, as it would of
// separate appends.
func (l *Log) Apply(ops []Op) (int64, error) {
	for i := range ops {
		if op := &ops[i]; !op.Delete {
			if op.Key == "" || len(op.Key) > MaxKeyLen {
				return 0, fmt.Errorf("wal: invalid key length %d", len(op.Key))
			}
			if len(op.Val) > MaxValueLen {
				return 0, fmt.Errorf("wal: value too large (%d bytes)", len(op.Val))
			}
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	n, err := l.applyLocked(ops)
	if err != nil {
		return n, err
	}
	l.maybeCompactLocked()
	return n, nil
}

// applyLocked encodes and writes one batch. Caller holds l.mu.
func (l *Log) applyLocked(ops []Op) (int64, error) {
	buf, refs := l.buf[:0], l.refs[:0]
	var written int64
	first := 0 // the first op whose record buf holds
	// pending holds whether each key the batch has touched is live
	// after the ops so far; the index still shows the state before the
	// batch. It is built at the first delete that follows another op.
	var pending map[string]bool
	for i := range ops {
		op := &ops[i]
		if op.Delete {
			if pending == nil && i > 0 {
				pending = make(map[string]bool, i)
				for _, prev := range ops[:i] {
					pending[prev.Key] = !prev.Delete
				}
			}
			live, seen := pending[op.Key]
			if !seen {
				_, live = l.index[op.Key]
			}
			if !live {
				refs = append(refs, ref{})
				continue
			}
		}
		if pending != nil {
			pending[op.Key] = !op.Delete
		}
		if l.active.size+int64(len(buf)) >= l.segBytes {
			if err := l.flushLocked(buf, ops[first:i], refs[first:i]); err != nil {
				return written, err
			}
			written += int64(len(buf))
			if err := l.rollLocked(l.active.id + 1); err != nil {
				return written, err
			}
			buf, first = buf[:0], i
		}
		start := len(buf)
		buf = appendRecord(buf, op.Key, op.Val, op.Delete)
		refs = append(refs, ref{seg: l.active.id, off: l.active.size + int64(start), size: int64(len(buf) - start)})
	}
	err := l.flushLocked(buf, ops[first:], refs[first:])
	if err == nil {
		written += int64(len(buf))
	}
	if cap(buf) <= scratchBytes && cap(refs) <= scratchRefs {
		l.buf, l.refs = buf[:0], refs[:0]
	}
	return written, err
}

// flushLocked writes buf at the end of the active segment, then
// applies ops, which refs places, to the index.
func (l *Log) flushLocked(buf []byte, ops []Op, refs []ref) error {
	if len(buf) > 0 {
		if _, err := l.active.f.WriteAt(buf, l.active.size); err != nil {
			return fmt.Errorf("wal: append: %w", err)
		}
		l.active.size += int64(len(buf))
		l.totalBytes += int64(len(buf))
		if n := len(l.unsynced); n == 0 || l.unsynced[n-1] != l.active {
			l.unsynced = append(l.unsynced, l.active)
		}
	}
	for i, r := range refs {
		if r.size == 0 {
			continue // a delete of a key that was not live
		}
		key := ops[i].Key
		if prev, ok := l.index[key]; ok {
			l.liveBytes -= prev.size
		}
		if ops[i].Delete {
			delete(l.index, key)
		} else {
			l.index[key] = r
			l.liveBytes += r.size
		}
	}
	return nil
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
	val, err := l.readValueLocked(key, r)
	l.mu.Unlock()
	if err != nil {
		return nil, false, err
	}
	return val, true, nil
}

// readValueLocked reads one indexed record whole and returns its value
// bytes. A record that fails its checksum, or is not the live record
// of key the index says it is, is an error, never data.
func (l *Log) readValueLocked(key string, r ref) ([]byte, error) {
	seg, ok := l.segments[r.seg]
	if !ok {
		return nil, fmt.Errorf("wal: segment %d vanished", r.seg)
	}
	rec := make([]byte, r.size)
	if _, err := seg.f.ReadAt(rec, r.off); err != nil {
		return nil, fmt.Errorf("wal: read: %w", err)
	}
	return recordValue(key, r, rec)
}

// recordValue checks that rec, read from where r points, is the live
// record of key, and returns its value bytes.
func recordValue(key string, r ref, rec []byte) ([]byte, error) {
	k, tombstone, n, ok := parseRecord(rec)
	if !ok || tombstone || n != r.size || string(k) != key {
		return nil, fmt.Errorf("wal: record of %q at %s offset %d is corrupt", key, segmentName(r.seg), r.off)
	}
	return rec[recordHeaderLen+len(k):], nil
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

// Range calls fn for every entry live when it is called, in sorted key
// order, stopping at the first error. It reads each segment that holds
// a live record once and checks every record as Get does; fn runs
// without the lock held, and may keep the values it is passed.
func (l *Log) Range(fn func(key string, val []byte) error) error {
	live, spans, err := l.readLive()
	if err != nil {
		return err
	}
	slices.SortFunc(live, func(a, b liveRecord) int { return strings.Compare(a.key, b.key) })
	for _, rec := range live {
		sp := spans[rec.seg]
		val, err := recordValue(rec.key, rec.ref, sp.b[rec.off-sp.lo:][:rec.size])
		if err != nil {
			return err
		}
		if err := fn(rec.key, val); err != nil {
			return err
		}
	}
	return nil
}

// span is the bytes of one segment from its first live record to the
// end of its last.
type span struct {
	lo, hi int64
	b      []byte
}

// readLive snapshots the live records and reads the span of every
// segment that holds one, with one read each.
func (l *Log) readLive() ([]liveRecord, map[int]*span, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, nil, ErrClosed
	}
	live := make([]liveRecord, 0, len(l.index))
	spans := make(map[int]*span)
	for k, r := range l.index {
		live = append(live, liveRecord{key: k, ref: r})
		sp, ok := spans[r.seg]
		if !ok {
			sp = &span{lo: r.off}
			spans[r.seg] = sp
		}
		sp.lo, sp.hi = min(sp.lo, r.off), max(sp.hi, r.off+r.size)
	}
	for id, sp := range spans {
		seg, ok := l.segments[id]
		if !ok {
			return nil, nil, fmt.Errorf("wal: segment %d vanished", id)
		}
		sp.b = make([]byte, sp.hi-sp.lo)
		if _, err := seg.f.ReadAt(sp.b, sp.lo); err != nil {
			return nil, nil, fmt.Errorf("wal: read: %w", err)
		}
	}
	return live, spans, nil
}

// Sync flushes every segment written since the last Sync to stable
// storage — the commit point's fsync: the active one, and the one an
// Apply rolled over from, if any. The metered cost (one fsync pair) is
// charged by the caller; Sync performs the physical ones.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

// syncLocked fsyncs the unsynced segments; on an error they all stay
// unsynced for the next try. Caller holds l.mu.
func (l *Log) syncLocked() error {
	for _, seg := range l.unsynced {
		if err := l.fsync(seg.f); err != nil {
			return err
		}
	}
	clear(l.unsynced)
	l.unsynced = l.unsynced[:0]
	return nil
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

// liveRecord is one live record, as compaction copies it and Range
// reads it.
type liveRecord struct {
	key string
	ref
}

// compact performs the merge. Only one runs at a time (l.compacting).
//
// It copies the live records, in (segment, offset) order, into fresh
// segments numbered above every existing one, rolling over where
// appends would. Each old segment that holds a live record is read
// whole with one read, and each new one written with one write and
// fsynced, so the merge holds one segment in and one out. It first
// fsyncs what is still unsynced of the old segments, so that every
// record it copies is already durable where it was. Only once every new
// segment and the directory entries naming them are on stable storage
// does the index switch over and the old segments go, oldest first,
// and the directory is fsynced again. A crash at any point leaves a
// directory whose replay is the live set: every new record supersedes
// the old ones of its key, and what survives of the old segments is a
// suffix of them, so no old record outlives the newer record or
// tombstone that shadowed it. A failed merge removes its new segments
// and leaves the log as it was.
func (l *Log) compact() error {
	l.mu.Lock()
	defer func() {
		l.compacting = false
		l.mu.Unlock()
	}()
	if l.closed {
		return ErrClosed
	}
	if err := l.syncLocked(); err != nil {
		return fmt.Errorf("wal: compact sync: %w", err)
	}
	live := make([]liveRecord, 0, len(l.index))
	for k, r := range l.index {
		live = append(live, liveRecord{key: k, ref: r})
	}
	slices.SortFunc(live, func(a, b liveRecord) int {
		if a.seg != b.seg {
			return cmp.Compare(a.seg, b.seg)
		}
		return cmp.Compare(a.off, b.off)
	})

	var fresh []*segment
	abort := func(err error) error {
		for _, seg := range fresh {
			seg.f.Close()
			_ = os.Remove(filepath.Join(l.dir, segmentName(seg.id)))
		}
		return err
	}
	// seal writes out as the newest fresh segment and fsyncs it.
	seal := func(out []byte) error {
		seg := fresh[len(fresh)-1]
		if _, err := seg.f.WriteAt(out, 0); err != nil {
			return fmt.Errorf("wal: compact write: %w", err)
		}
		if err := l.fsync(seg.f); err != nil {
			return fmt.Errorf("wal: compact sync: %w", err)
		}
		seg.size = int64(len(out))
		return nil
	}
	open := func() error {
		seg, err := l.openSegment(l.active.id + 1 + len(fresh))
		if err != nil {
			return err
		}
		fresh = append(fresh, seg)
		return nil
	}
	if err := open(); err != nil {
		return err
	}
	newIndex := make(map[string]ref, len(live))
	var in, out []byte
	var total int64
	inSeg := -1 // the old segment in holds
	for _, rec := range live {
		if rec.seg != inSeg {
			seg, ok := l.segments[rec.seg]
			if !ok {
				return abort(fmt.Errorf("wal: segment %d vanished", rec.seg))
			}
			if int64(cap(in)) < seg.size {
				in = make([]byte, seg.size)
			}
			in = in[:seg.size]
			if _, err := seg.f.ReadAt(in, 0); err != nil {
				return abort(fmt.Errorf("wal: compact read: %w", err))
			}
			inSeg = rec.seg
		}
		if int64(len(out)) >= l.segBytes {
			if err := seal(out); err != nil {
				return abort(err)
			}
			if err := open(); err != nil {
				return abort(err)
			}
			out = out[:0]
		}
		newIndex[rec.key] = ref{seg: fresh[len(fresh)-1].id, off: int64(len(out)), size: rec.size}
		out = append(out, in[rec.off:rec.off+rec.size]...)
		total += rec.size
	}
	if err := seal(out); err != nil {
		return abort(err)
	}
	if err := l.syncDir(); err != nil {
		return abort(err)
	}

	old := l.segments
	l.segments = make(map[int]*segment, len(fresh))
	for _, seg := range fresh {
		l.segments[seg.id] = seg
	}
	l.active = fresh[len(fresh)-1]
	l.index = newIndex
	l.liveBytes = total
	l.totalBytes = total
	oldIDs := make([]int, 0, len(old))
	for id := range old {
		oldIDs = append(oldIDs, id)
	}
	sort.Ints(oldIDs)
	for _, id := range oldIDs {
		old[id].f.Close()
		_ = os.Remove(filepath.Join(l.dir, segmentName(id)))
	}
	l.compactions++
	return l.syncDir()
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

// Close waits for any background compaction, syncs every segment
// written since the last Sync, and releases every file handle. Further operations return
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
	err := l.syncLocked()
	if errors.Is(err, os.ErrClosed) {
		err = nil
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
