package minidb

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"confbench/internal/meter"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// TestSpeedTestGolden is what "same priced output" means for a change
// to how the suite issues its statements: every test's ID, name,
// statement and row counts and its metered usage — snapshotted and
// reset at the progress callback, as bench.DBMS prices it — at three
// sizes on the in-memory and the durable backend, plus the durable
// log's live set at each boundary. The file was recorded while the suite still
// formatted and parsed a fresh SQL string per row, before prepared
// statements, and is compared byte for byte.
func TestSpeedTestGolden(t *testing.T) {
	var got bytes.Buffer
	for _, size := range []int{5, 20, 50} {
		for _, durable := range []bool{false, true} {
			st := NewSpeedTest(size)
			name := "memory"
			var b *DurableBackend
			if durable {
				var err error
				if b, err = NewDurableBackend(t.TempDir()); err != nil {
					t.Fatal(err)
				}
				st.Backend, name = b, "durable"
			}
			m := meter.NewContext()
			_, err := st.RunWithProgress(m, func(r TestResult) error {
				fmt.Fprintf(&got, "%s %d %d %q stmts=%d rows=%d [%s]",
					name, size, r.ID, r.Name, r.Statements, r.Rows, m.Snapshot())
				if b != nil {
					writeLiveSet(&got, b)
				}
				got.WriteByte('\n')
				m.Reset()
				return nil
			})
			if err != nil {
				t.Fatalf("%s size %d: %v", name, size, err)
			}
			if b != nil {
				got.WriteString("durable final")
				writeLiveSet(&got, b)
				got.WriteByte('\n')
				if err := b.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	compareGolden(t, filepath.Join("testdata", "speedtest.golden"), got.Bytes())
}

// writeLiveSet appends the durable log's live set. Segments,
// TotalBytes and Compactions depend on when the log's background merge
// runs, so they are left out; the live keys and bytes do not.
func writeLiveSet(w *bytes.Buffer, b *DurableBackend) {
	ls := b.Stats()
	fmt.Fprintf(w, " wal keys=%d live_bytes=%d", ls.Keys, ls.LiveBytes)
}

func compareGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s line %d differs:\n got %s\nwant %s", file, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", file, len(gl), len(wl))
}
