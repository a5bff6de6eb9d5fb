package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// footprint is the on-disk size of one record of key and val.
func footprint(key string, val []byte) int64 {
	return int64(recordHeaderLen + len(key) + len(val))
}

// modelLog is the reference a Log is checked against: the live map,
// and the footprint each op of a batch must report.
type modelLog map[string][]byte

// apply applies ops in order and returns the bytes a Log must write
// for them: every put, and every delete of a key live at its point.
func (m modelLog) apply(ops []Op) int64 {
	var n int64
	for _, op := range ops {
		if op.Delete {
			if _, ok := m[op.Key]; ok {
				n += footprint(op.Key, nil)
				delete(m, op.Key)
			}
			continue
		}
		n += footprint(op.Key, op.Val)
		m[op.Key] = op.Val
	}
	return n
}

// check asserts that l holds exactly the model: Get of every key in
// keys (live or not), Len, Range and LiveBytes.
func (m modelLog) check(t *testing.T, l *Log, keys []string, step string) {
	t.Helper()
	for _, k := range keys {
		got, ok, err := l.Get(k)
		want, live := m[k]
		if err != nil || ok != live || !bytes.Equal(got, want) {
			t.Fatalf("%s: Get(%q) = %q, %v, %v; want %q, %v", step, k, got, ok, err, want, live)
		}
	}
	if l.Len() != len(m) {
		t.Fatalf("%s: Len = %d, want %d", step, l.Len(), len(m))
	}
	var live int64
	sorted := make([]string, 0, len(m))
	for k, v := range m {
		live += footprint(k, v)
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	var ranged []string
	if err := l.Range(func(k string, v []byte) error {
		if !bytes.Equal(v, m[k]) {
			return fmt.Errorf("Range gave %q = %q, want %q", k, v, m[k])
		}
		ranged = append(ranged, k)
		return nil
	}); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if fmt.Sprint(ranged) != fmt.Sprint(sorted) {
		t.Fatalf("%s: Range visited %q, want %q", step, ranged, sorted)
	}
	if got := l.Stats().LiveBytes; got != live {
		t.Fatalf("%s: LiveBytes = %d, want %d", step, got, live)
	}
}

// readDir returns every file of dir by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestLogMatchesModel drives random sequences of Put, Delete,
// multi-op Apply, Compact and close+reopen against a map model, and
// against a twin log that takes every batch one Put or Delete at a
// time. Batches repeat keys and delete keys that were never live, and
// segments are small, so batches roll over mid-way. After every step
// Get, Len, Range and LiveBytes agree with the model, each Apply
// reports the model's footprint, and the two logs' files are
// byte-identical: a batch writes the records separate appends would.
func TestLogMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			keys := make([]string, 0, 12)
			for i := 0; i < 10; i++ {
				keys = append(keys, fmt.Sprintf("k%02d", i))
			}
			keys = append(keys, "never-a", "never-b") // deleted, never put
			pick := func() string {
				if rng.Intn(8) == 0 {
					return keys[10+rng.Intn(2)]
				}
				return keys[rng.Intn(10)]
			}
			put := func() Op {
				val := make([]byte, rng.Intn(40))
				rng.Read(val)
				return Op{Key: keys[rng.Intn(10)], Val: val}
			}
			randOp := func() Op {
				if rng.Intn(3) == 0 {
					return Op{Key: pick(), Delete: true}
				}
				return put()
			}
			const segBytes = 300
			opts := Options{CompactRatio: -1}
			open := func(dir string) *Log {
				l, err := Open(dir, opts)
				if err != nil {
					t.Fatal(err)
				}
				l.segBytes = segBytes
				return l
			}
			batchedDir, singleDir := t.TempDir(), t.TempDir()
			batched, single := open(batchedDir), open(singleDir)
			defer func() { batched.Close(); single.Close() }()
			model := modelLog{}

			for step := 0; step < 120; step++ {
				var ops []Op
				var name string
				switch r := rng.Intn(100); {
				case r < 25:
					ops, name = []Op{put()}, "put"
				case r < 37:
					ops, name = []Op{{Key: pick(), Delete: true}}, "delete"
				case r < 80:
					name = "batch"
					for n := 2 + rng.Intn(7); len(ops) < n; {
						ops = append(ops, randOp())
					}
					if rng.Intn(2) == 0 { // the same key twice
						ops = append(ops, Op{Key: ops[0].Key, Val: []byte("again")})
					}
					if rng.Intn(2) == 0 {
						ops = append(ops, Op{Key: "never-a", Delete: true})
					}
				case r < 90:
					name = "compact"
					for _, l := range []*Log{batched, single} {
						if err := l.Compact(); err != nil {
							t.Fatalf("step %d: Compact: %v", step, err)
						}
					}
				default:
					name = "reopen"
					for _, l := range []*Log{batched, single} {
						if err := l.Close(); err != nil {
							t.Fatal(err)
						}
					}
					batched, single = open(batchedDir), open(singleDir)
				}
				if ops != nil {
					want := model.apply(ops)
					got, err := batched.Apply(ops)
					if err != nil || got != want {
						t.Fatalf("step %d: Apply(%d ops) = %d, %v; want %d", step, len(ops), got, err, want)
					}
					var sum int64
					for _, op := range ops {
						var n int64
						if op.Delete {
							n, err = single.Delete(op.Key)
						} else {
							n, err = single.Put(op.Key, op.Val)
						}
						if err != nil {
							t.Fatal(err)
						}
						sum += n
					}
					if sum != want {
						t.Fatalf("step %d: separate appends wrote %d, want %d", step, sum, want)
					}
				}
				at := fmt.Sprintf("step %d (%s)", step, name)
				model.check(t, batched, keys, at)
				model.check(t, single, keys, at)
				a, b := readDir(t, batchedDir), readDir(t, singleDir)
				if len(a) != len(b) {
					t.Fatalf("%s: batched log has files %d, separate appends %d", at, len(a), len(b))
				}
				for name, data := range a {
					if !bytes.Equal(data, b[name]) {
						t.Fatalf("%s: %s differs between the batched and the separate-append log", at, name)
					}
				}
			}
		})
	}
}

// TestCompactionCrashStates replays the directories a crash during
// Compact can leave. The new segments are written and fsynced before
// any old one goes, and the old ones go oldest first, so a crash
// leaves every new segment beside a suffix of the old ones (all of
// them, if it came before the first removal). Each such directory
// must reopen to the model's live set. A key put in the first segment
// and deleted in a later one shows why the order matters: were the
// later segment removed first, the put would come back.
func TestCompactionCrashStates(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{CompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	l.segBytes = 200
	model := modelLog{}
	rng := rand.New(rand.NewSource(7))
	apply := func(ops ...Op) {
		t.Helper()
		want := model.apply(ops)
		if got, err := l.Apply(ops); err != nil || got != want {
			t.Fatalf("Apply = %d, %v; want %d", got, err, want)
		}
	}
	apply(Op{Key: "doomed", Val: []byte("put in the first segment")})
	for i := 0; i < 60; i++ {
		val := make([]byte, 10+rng.Intn(30))
		rng.Read(val)
		apply(Op{Key: fmt.Sprintf("k%02d", rng.Intn(12)), Val: val},
			Op{Key: fmt.Sprintf("k%02d", rng.Intn(12)), Delete: true})
	}
	apply(Op{Key: "doomed", Delete: true})
	keys := []string{"doomed"}
	for i := 0; i < 12; i++ {
		keys = append(keys, fmt.Sprintf("k%02d", i))
	}

	before := readDir(t, dir)
	oldNames := make([]string, 0, len(before))
	for name := range before {
		oldNames = append(oldNames, name)
	}
	sort.Strings(oldNames) // zero-padded: name order is id order
	if len(oldNames) < 3 {
		t.Fatalf("test setup: %d segments before compaction, want several", len(oldNames))
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	model.check(t, l, keys, "after Compact")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	after := readDir(t, dir)
	for name := range after {
		if _, ok := before[name]; ok {
			t.Fatalf("compaction reused segment name %s", name)
		}
	}

	reopen := func(old []string) *Log {
		t.Helper()
		crash := t.TempDir()
		for name, data := range after {
			if err := os.WriteFile(filepath.Join(crash, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for _, name := range old {
			if err := os.WriteFile(filepath.Join(crash, name), before[name], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		l, err := Open(crash, Options{CompactRatio: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l
	}
	for removed := 0; removed <= len(oldNames); removed++ {
		l := reopen(oldNames[removed:])
		model.check(t, l, keys, fmt.Sprintf("new segments beside old ones %q", oldNames[removed:]))
	}
	// The hazard the removal order avoids: the oldest segment without
	// the one holding the tombstone resurrects the key.
	if _, ok, _ := reopen(oldNames[:1]).Get("doomed"); !ok {
		t.Fatal("test setup: the first old segment alone does not resurrect the deleted key")
	}
}

// TestGetDetectsCorruptRecord flips one value byte of a live record
// after Open: Get and Range must fail rather than return the bytes.
func TestGetDetectsCorruptRecord(t *testing.T) {
	l := openT(t, Options{})
	mustPut(t, l, "good", "kept intact")
	mustPut(t, l, "bad", "one byte flips")
	r := l.index["bad"]
	f, err := os.OpenFile(filepath.Join(l.Dir(), segmentName(r.seg)), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	last := r.off + r.size - 1
	if _, err := f.ReadAt(b, last); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x20
	if _, err := f.WriteAt(b, last); err != nil {
		t.Fatal(err)
	}
	f.Close()

	wantGet(t, l, "good", "kept intact")
	if val, ok, err := l.Get("bad"); err == nil {
		t.Fatalf("Get of a flipped record = %q, %v, nil; want an error", val, ok)
	}
	if err := l.Range(func(string, []byte) error { return nil }); err == nil {
		t.Fatal("Range over a flipped record succeeded")
	}
}
