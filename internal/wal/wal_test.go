package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// openT opens a log rooted in a fresh temp dir and registers cleanup.
func openT(t *testing.T, opts Options) *Log {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// openSegT is openT with segments of segBytes.
func openSegT(t *testing.T, opts Options, segBytes int64) *Log {
	t.Helper()
	l := openT(t, opts)
	l.segBytes = segBytes
	return l
}

func mustPut(t *testing.T, l *Log, key, val string) {
	t.Helper()
	if _, err := l.Put(key, []byte(val)); err != nil {
		t.Fatalf("Put(%q): %v", key, err)
	}
}

func wantGet(t *testing.T, l *Log, key, val string) {
	t.Helper()
	got, ok, err := l.Get(key)
	if err != nil {
		t.Fatalf("Get(%q): %v", key, err)
	}
	if !ok {
		t.Fatalf("Get(%q): missing, want %q", key, val)
	}
	if string(got) != val {
		t.Fatalf("Get(%q) = %q, want %q", key, got, val)
	}
}

func wantMissing(t *testing.T, l *Log, key string) {
	t.Helper()
	if _, ok, err := l.Get(key); err != nil {
		t.Fatalf("Get(%q): %v", key, err)
	} else if ok {
		t.Fatalf("Get(%q): present, want missing", key)
	}
}

func TestPutGetDelete(t *testing.T) {
	l := openT(t, Options{})
	mustPut(t, l, "a", "1")
	mustPut(t, l, "b", "2")
	mustPut(t, l, "a", "3") // supersede
	wantGet(t, l, "a", "3")
	wantGet(t, l, "b", "2")
	wantMissing(t, l, "nope")

	n, err := l.Delete("a")
	if err != nil || n == 0 {
		t.Fatalf("Delete(a) = %d, %v; want tombstone bytes, nil", n, err)
	}
	wantMissing(t, l, "a")

	// Deleting a key that was never live appends nothing.
	n, err = l.Delete("ghost")
	if err != nil || n != 0 {
		t.Fatalf("Delete(ghost) = %d, %v; want 0, nil", n, err)
	}

	if got := l.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
}

func TestPutReportsRecordFootprint(t *testing.T) {
	l := openT(t, Options{})
	n, err := l.Put("key", []byte("value"))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	want := int64(recordHeaderLen + len("key") + len("value"))
	if n != want {
		t.Fatalf("Put footprint = %d, want %d", n, want)
	}
}

func TestReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	mustPut(t, l, "a", "1")
	mustPut(t, l, "b", "2")
	mustPut(t, l, "a", "updated")
	if _, err := l.Delete("b"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	wantGet(t, l2, "a", "updated")
	wantMissing(t, l2, "b")
	st := l2.Stats()
	if st.Keys != 1 {
		t.Fatalf("Keys = %d, want 1", st.Keys)
	}
	if st.RecoveredRecords != 4 {
		t.Fatalf("RecoveredRecords = %d, want 4", st.RecoveredRecords)
	}
	if st.TruncatedTail {
		t.Fatal("TruncatedTail set on a clean log")
	}
}

func TestSegmentRollover(t *testing.T) {
	l := openSegT(t, Options{CompactRatio: -1}, 256)
	for i := 0; i < 50; i++ {
		mustPut(t, l, fmt.Sprintf("k%02d", i), "0123456789abcdef")
	}
	st := l.Stats()
	if st.Segments < 2 {
		t.Fatalf("Segments = %d, want >= 2 after roll-over", st.Segments)
	}
	for i := 0; i < 50; i++ {
		wantGet(t, l, fmt.Sprintf("k%02d", i), "0123456789abcdef")
	}

	// Reopen spans segments too.
	dir := l.Dir()
	l.Close()
	l2, err := Open(dir, Options{CompactRatio: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if got := l2.Len(); got != 50 {
		t.Fatalf("Len after reopen = %d, want 50", got)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	mustPut(t, l, "committed1", "v1")
	mustPut(t, l, "committed2", "v2")
	// Crash mid-append: a partial record header lands at the tail.
	if err := l.CorruptTailForTest([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatalf("CorruptTailForTest: %v", err)
	}
	l.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer l2.Close()
	wantGet(t, l2, "committed1", "v1")
	wantGet(t, l2, "committed2", "v2")
	st := l2.Stats()
	if !st.TruncatedTail {
		t.Fatal("TruncatedTail not reported")
	}
	if st.RecoveredRecords != 2 {
		t.Fatalf("RecoveredRecords = %d, want 2", st.RecoveredRecords)
	}

	// The log stays writable after recovery.
	if _, err := l2.Put("post", []byte("recovery")); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
	wantGet(t, l2, "post", "recovery")
}

func TestCorruptedChecksumCutsTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	mustPut(t, l, "good", "keep")
	mustPut(t, l, "bad", "flip")
	l.Close()

	// Bit-flip a byte inside the second record's value.
	seg := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatalf("write segment: %v", err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after bit flip: %v", err)
	}
	defer l2.Close()
	wantGet(t, l2, "good", "keep")
	wantMissing(t, l2, "bad")
	if st := l2.Stats(); !st.TruncatedTail || st.RecoveredRecords != 1 {
		t.Fatalf("Stats = %+v, want TruncatedTail with 1 recovered record", st)
	}
}

func TestCompactDropsDeadRecords(t *testing.T) {
	l := openSegT(t, Options{CompactRatio: -1}, 512)
	for i := 0; i < 40; i++ {
		mustPut(t, l, fmt.Sprintf("k%02d", i%4), fmt.Sprintf("gen-%02d-0123456789", i))
	}
	if _, err := l.Delete("k03"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	before := l.Stats()
	if before.DeadRatio() < 0.5 {
		t.Fatalf("test setup: DeadRatio = %.2f, want mostly dead", before.DeadRatio())
	}

	if err := l.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after := l.Stats()
	if after.TotalBytes != after.LiveBytes {
		t.Fatalf("after compact TotalBytes=%d LiveBytes=%d, want equal", after.TotalBytes, after.LiveBytes)
	}
	if after.TotalBytes >= before.TotalBytes {
		t.Fatalf("compact did not shrink: %d -> %d", before.TotalBytes, after.TotalBytes)
	}
	if after.Compactions != 1 {
		t.Fatalf("Compactions = %d, want 1", after.Compactions)
	}
	wantGet(t, l, "k00", "gen-36-0123456789")
	wantGet(t, l, "k01", "gen-37-0123456789")
	wantGet(t, l, "k02", "gen-38-0123456789")
	wantMissing(t, l, "k03")

	// Post-compact state survives reopen.
	dir := l.Dir()
	l.Close()
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after compact: %v", err)
	}
	defer l2.Close()
	wantGet(t, l2, "k02", "gen-38-0123456789")
	wantMissing(t, l2, "k03")
}

func TestAutoCompactionTriggers(t *testing.T) {
	// Small segments plus heavy overwrite of one key pushes the dead
	// ratio past the threshold and total bytes past compactMinBytes.
	l := openSegT(t, Options{CompactRatio: 0.5}, 8<<10)
	val := bytes.Repeat([]byte("x"), 1024)
	for i := 0; i < 200; i++ {
		if _, err := l.Put("hot", val); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	l.wg.Wait() // drain any in-flight background merge
	st := l.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no automatic compaction after %d overwrites (stats %+v)", 200, st)
	}
	wantGet(t, l, "hot", string(val))
}

func TestRangeSortedAndComplete(t *testing.T) {
	l := openT(t, Options{})
	mustPut(t, l, "b", "2")
	mustPut(t, l, "a", "1")
	mustPut(t, l, "c", "3")
	var keys []string
	err := l.Range(func(k string, v []byte) error {
		keys = append(keys, k+"="+string(v))
		return nil
	})
	if err != nil {
		t.Fatalf("Range: %v", err)
	}
	want := []string{"a=1", "b=2", "c=3"}
	if len(keys) != len(want) {
		t.Fatalf("Range visited %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Range visited %v, want %v", keys, want)
		}
	}
}

func TestClosedLogRejectsOps(t *testing.T) {
	l := openT(t, Options{})
	mustPut(t, l, "k", "v")
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := l.Put("k", nil); err != ErrClosed {
		t.Fatalf("Put after close: %v, want ErrClosed", err)
	}
	if _, _, err := l.Get("k"); err != ErrClosed {
		t.Fatalf("Get after close: %v, want ErrClosed", err)
	}
	if err := l.Sync(); err != ErrClosed {
		t.Fatalf("Sync after close: %v, want ErrClosed", err)
	}
	if err := l.Compact(); err != ErrClosed {
		t.Fatalf("Compact after close: %v, want ErrClosed", err)
	}
	// Double close is a no-op.
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	l := openT(t, Options{})
	if _, err := l.Put("", []byte("v")); err == nil {
		t.Fatal("Put with empty key succeeded")
	}
	if _, err := l.Put(string(bytes.Repeat([]byte("k"), MaxKeyLen+1)), nil); err == nil {
		t.Fatal("Put with oversized key succeeded")
	}
}

func TestConcurrentPutsAndGets(t *testing.T) {
	l := openSegT(t, Options{}, 4<<10)
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i%10)
				if _, err := l.Put(key, []byte(fmt.Sprintf("%d", i))); err != nil {
					done <- err
					return
				}
				if _, _, err := l.Get(key); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	if got := l.Len(); got != 40 {
		t.Fatalf("Len = %d, want 40", got)
	}
}

func TestSync(t *testing.T) {
	l := openT(t, Options{})
	mustPut(t, l, "k", "v")
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

// fsyncs counts a log's fsyncs through its hook: per segment file,
// and of the directory.
type fsyncs struct {
	files map[int]int
	dirs  int
}

func watchFsyncs(t *testing.T, l *Log) *fsyncs {
	t.Helper()
	c := &fsyncs{files: map[int]int{}}
	l.mu.Lock()
	defer l.mu.Unlock()
	next := l.fsync
	l.fsync = func(f *os.File) error {
		if f.Name() == l.dir {
			c.dirs++
		} else {
			var id int
			if _, err := fmt.Sscanf(filepath.Base(f.Name()), "seg-%08d.wal", &id); err != nil {
				t.Errorf("fsync of %s, neither a segment nor the directory", f.Name())
			}
			c.files[id]++
		}
		return next(f)
	}
	return c
}

func (c *fsyncs) fileTotal() int {
	n := 0
	for _, v := range c.files {
		n += v
	}
	return n
}

// TestSyncCoversEverySegmentWritten: a commit point whose Apply rolls
// over fsyncs the segments it rolled from as well as the active one,
// each new segment's directory entry is fsynced when the segment is
// created, and a compaction fsyncs the directory once its new segments
// are written and once the old ones are gone. A commit that does not
// roll still costs exactly one file fsync.
func TestSyncCoversEverySegmentWritten(t *testing.T) {
	l := openSegT(t, Options{CompactRatio: -1}, 300)
	c := watchFsyncs(t, l)
	sizes := func() map[int]int64 {
		l.mu.Lock()
		defer l.mu.Unlock()
		out := map[int]int64{}
		for id, seg := range l.segments {
			out[id] = seg.size
		}
		return out
	}
	commit := func(ops []Op) (written []int) {
		t.Helper()
		before := sizes()
		if _, err := l.Apply(ops); err != nil {
			t.Fatal(err)
		}
		for id, size := range sizes() {
			if size != before[id] {
				written = append(written, id)
			}
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if len(l.unsynced) != 0 {
			t.Fatalf("%d segments left unsynced after Sync", len(l.unsynced))
		}
		return written
	}

	commit([]Op{{Key: "a", Val: []byte("small")}})
	if c.fileTotal() != 1 || c.dirs != 0 {
		t.Fatalf("a commit that does not roll: %d file fsyncs and %d of the directory, want 1 and 0", c.fileTotal(), c.dirs)
	}

	var ops []Op
	for i := 0; i < 10; i++ {
		ops = append(ops, Op{Key: fmt.Sprintf("k%d", i), Val: bytes.Repeat([]byte{byte(i)}, 40)})
	}
	*c = fsyncs{files: map[int]int{}}
	written := commit(ops)
	if len(written) < 2 {
		t.Fatalf("the batch wrote into segments %v, want it to straddle a roll", written)
	}
	for _, id := range written {
		if c.files[id] != 1 {
			t.Errorf("segment %d, written by the commit, fsynced %d times, want 1 (fsyncs %v)", id, c.files[id], c.files)
		}
	}
	if c.fileTotal() != len(written) || c.dirs != len(written)-1 {
		t.Errorf("a commit over %d segments: %d file fsyncs and %d of the directory, want %d and %d",
			len(written), c.fileTotal(), c.dirs, len(written), len(written)-1)
	}

	mustPut(t, l, "a", "superseded") // written, not synced: compaction syncs it first
	*c = fsyncs{files: map[int]int{}}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if c.dirs != 2 {
		t.Errorf("a compaction fsynced the directory %d times, want 2", c.dirs)
	}
	if len(l.unsynced) != 0 {
		t.Errorf("%d segments left unsynced after a compaction", len(l.unsynced))
	}

	*c = fsyncs{files: map[int]int{}}
	commit([]Op{{Key: "b", Val: []byte("small")}})
	if c.fileTotal() != 1 || c.dirs != 0 {
		t.Errorf("a commit after a compaction: %d file fsyncs and %d of the directory, want 1 and 0", c.fileTotal(), c.dirs)
	}
}
