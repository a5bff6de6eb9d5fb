package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzRecovery is the crash-recovery property harness: write a known
// record sequence as Apply batches, split where the bits of splits
// say, then truncate or bit-flip the segment at an arbitrary offset.
// Open must never panic or fail, and must recover exactly the prefix
// of records that lies wholly before the damage: a torn batch recovers
// as a prefix of its ops, as separate appends did.
func FuzzRecovery(f *testing.F) {
	f.Add(uint16(0), true, uint8(0), uint16(0))
	f.Add(uint16(7), false, uint8(0x80), uint16(0xffff))
	f.Add(uint16(100), true, uint8(1), uint16(0x0421))
	f.Add(uint16(9999), false, uint8(0xff), uint16(0x0800))
	f.Fuzz(func(t *testing.T, rawOff uint16, truncate bool, flip uint8, splits uint16) {
		dir := t.TempDir()
		l, err := Open(dir, Options{CompactRatio: -1})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		// A deterministic sequence of records with known boundaries; a
		// batch ends after record i when bit i of splits is set.
		const n = 12
		var bounds []int64 // cumulative end offset of record i
		var end, batchStart int64
		var batch []Op
		for i := 0; i < n; i++ {
			op := Op{Key: fmt.Sprintf("key-%02d", i), Val: []byte(fmt.Sprintf("value-%02d-padding", i))}
			batch = append(batch, op)
			end += int64(recordHeaderLen + len(op.Key) + len(op.Val))
			bounds = append(bounds, end)
			if splits&(1<<i) == 0 && i < n-1 {
				continue
			}
			sz, err := l.Apply(batch)
			if err != nil {
				t.Fatalf("Apply: %v", err)
			}
			if sz != end-batchStart {
				t.Fatalf("Apply of %d records wrote %d bytes, want %d", len(batch), sz, end-batchStart)
			}
			batch, batchStart = batch[:0], end
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		seg := filepath.Join(dir, segmentName(1))
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatalf("read segment: %v", err)
		}
		if int64(len(data)) != end {
			t.Fatalf("segment size %d, want %d", len(data), end)
		}
		off := int64(rawOff) % (end + 1)
		if truncate {
			data = data[:off]
		} else {
			if off == end {
				off = end - 1
			}
			if flip == 0 {
				flip = 0xff // ensure the byte actually changes
			}
			data[off] ^= flip
		}
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatalf("write segment: %v", err)
		}

		// Every record wholly before the damage must survive; the
		// damaged record and everything after it is cut. Open must not
		// panic or error regardless of where the damage landed.
		l2, err := Open(dir, Options{CompactRatio: -1})
		if err != nil {
			t.Fatalf("reopen after corruption at %d: %v", off, err)
		}
		defer l2.Close()
		intact := 0
		for i, b := range bounds {
			if b <= off {
				intact = i + 1
			}
		}
		st := l2.Stats()
		if st.RecoveredRecords != intact {
			t.Fatalf("corruption at %d (truncate=%v): recovered %d records, want %d",
				off, truncate, st.RecoveredRecords, intact)
		}
		for i := 0; i < intact; i++ {
			got, ok, err := l2.Get(fmt.Sprintf("key-%02d", i))
			if err != nil || !ok {
				t.Fatalf("key-%02d lost (ok=%v err=%v), damage at %d", i, ok, err, off)
			}
			want := fmt.Sprintf("value-%02d-padding", i)
			if string(got) != want {
				t.Fatalf("key-%02d = %q, want %q", i, got, want)
			}
		}
		for i := intact; i < n; i++ {
			if _, ok, _ := l2.Get(fmt.Sprintf("key-%02d", i)); ok {
				t.Fatalf("key-%02d survived damage at %d, should have been cut", i, off)
			}
		}
		// Recovered log stays writable.
		if _, err := l2.Put("post-recovery", []byte("ok")); err != nil {
			t.Fatalf("Put after recovery: %v", err)
		}
	})
}
