package workloads

import (
	"bytes"
	"fmt"
	"path"
	"slices"
	"sort"
	"strings"

	"confbench/internal/meter"
)

// ioWorkloads returns the I/O-bound catalog entries. They run against
// an in-memory virtual disk: byte copies are performed for real and
// metered as storage traffic, so the TEE models apply their I/O
// factors (TDX bounce buffers, SEV shared pages, the CCA double
// abstraction layer).
func ioWorkloads() []Workload {
	return []Workload{
		{
			Name: "iostress", Kind: KindIO, DefaultScale: 8,
			Description: "dd-style creation and write/read of scale 1-MB files",
			Run:         runIOStress,
		},
		{
			Name: "dd", Kind: KindIO, DefaultScale: 8,
			Description: "block copy of a scale-MiB file at several block sizes",
			Run:         runDD,
		},
		{
			Name: "filesystem", Kind: KindIO, DefaultScale: 4,
			Description: "create nested folders and a 1-MB file, write, read, delete",
			Run:         runFilesystem,
		},
		{
			Name: "logging", Kind: KindIO, DefaultScale: 3000,
			Description: "print a large number of log messages",
			Run:         runLogging,
		},
		{
			Name: "fileindex", Kind: KindIO, DefaultScale: 400,
			Description: "create many small files then list and stat them",
			Run:         runFileIndex,
		},
	}
}

// vfs is a minimal in-memory filesystem with directories. All data
// movement through it is real byte copying, metered as storage I/O.
type vfs struct {
	m     *meter.Context
	files map[string][]byte
	dirs  map[string]bool
}

func newVFS(m *meter.Context) *vfs {
	return &vfs{
		m:     m,
		files: make(map[string][]byte, 16),
		dirs:  map[string]bool{"/": true},
	}
}

func (fs *vfs) mkdir(p string) error {
	p = path.Clean(p)
	parent := path.Dir(p)
	if !fs.dirs[parent] {
		return fmt.Errorf("vfs: mkdir %s: parent missing", p)
	}
	if fs.dirs[p] {
		return fmt.Errorf("vfs: mkdir %s: exists", p)
	}
	fs.dirs[p] = true
	fs.m.FileOp(1)
	return nil
}

func (fs *vfs) create(p string) error {
	p = path.Clean(p)
	if !fs.dirs[path.Dir(p)] {
		return fmt.Errorf("vfs: create %s: directory missing", p)
	}
	fs.files[p] = nil
	fs.m.FileOp(1)
	return nil
}

// write appends data block-by-block (blockSize bytes per syscall).
// The file's room is reserved once, so N blocks move N·blockSize bytes.
func (fs *vfs) write(p string, data []byte, blockSize int) error {
	p = path.Clean(p)
	if _, ok := fs.files[p]; !ok {
		return fmt.Errorf("vfs: write %s: no such file", p)
	}
	buf := slices.Grow(fs.files[p], len(data))
	for off := 0; off < len(data); off += blockSize {
		end := off + blockSize
		if end > len(data) {
			end = len(data)
		}
		buf = append(buf, data[off:end]...)
		fs.m.WriteIO(int64(end - off))
	}
	fs.files[p] = buf
	return nil
}

// read copies the file out block-by-block.
func (fs *vfs) read(p string, blockSize int) ([]byte, error) {
	p = path.Clean(p)
	data, ok := fs.files[p]
	if !ok {
		return nil, fmt.Errorf("vfs: read %s: no such file", p)
	}
	out := make([]byte, 0, len(data))
	for off := 0; off < len(data); off += blockSize {
		end := off + blockSize
		if end > len(data) {
			end = len(data)
		}
		out = append(out, data[off:end]...)
		fs.m.ReadIO(int64(end - off))
	}
	return out, nil
}

func (fs *vfs) remove(p string) error {
	p = path.Clean(p)
	if _, ok := fs.files[p]; ok {
		delete(fs.files, p)
		fs.m.FileOp(1)
		return nil
	}
	if fs.dirs[p] {
		for f := range fs.files {
			if strings.HasPrefix(f, p+"/") {
				return fmt.Errorf("vfs: rmdir %s: not empty", p)
			}
		}
		for d := range fs.dirs {
			if d != p && strings.HasPrefix(d, p+"/") {
				return fmt.Errorf("vfs: rmdir %s: not empty", p)
			}
		}
		delete(fs.dirs, p)
		fs.m.FileOp(1)
		return nil
	}
	return fmt.Errorf("vfs: remove %s: no such entry", p)
}

func (fs *vfs) list(dir string) []string {
	dir = path.Clean(dir)
	var out []string
	for f := range fs.files {
		if path.Dir(f) == dir {
			out = append(out, f)
		}
	}
	sort.Strings(out)
	fs.m.Syscall(int64(1 + len(out)))
	return out
}

// pattern fills a deterministic data block: data[i] = byte(i)*31 + seed.
// The sequence has period 256, so one period is computed and the rest
// is doubled into place.
func pattern(n int, seed byte) []byte {
	data := make([]byte, n)
	period := min(n, 256)
	for i := range data[:period] {
		data[i] = byte(i)*31 + seed
	}
	for filled := period; filled < n; filled *= 2 {
		copy(data[filled:], data[:filled])
	}
	return data
}

// runIOStress mirrors the paper's iostress: intensive read/write
// operations creating and writing 1-MB files with dd-style block I/O.
func runIOStress(m *meter.Context, scale int) (string, error) {
	if scale <= 0 {
		return "", fmt.Errorf("iostress: scale must be positive, got %d", scale)
	}
	fs := newVFS(m)
	const blockSize = 4096
	data := pattern(mib, 7)
	m.Alloc(mib)
	var total int
	for i := 0; i < scale; i++ {
		name := fmt.Sprintf("/io-%d.dat", i)
		if err := fs.create(name); err != nil {
			return "", err
		}
		if err := fs.write(name, data, blockSize); err != nil {
			return "", err
		}
		back, err := fs.read(name, blockSize)
		if err != nil {
			return "", err
		}
		if !bytes.Equal(back, data) {
			return "", fmt.Errorf("iostress: readback mismatch on %s", name)
		}
		total += len(back)
		if err := fs.remove(name); err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("moved %d MiB", total/mib), nil
}

// runDD copies a scale-MiB file at block sizes 512, 4096 and 65536,
// like repeated dd invocations with different bs.
func runDD(m *meter.Context, scale int) (string, error) {
	if scale <= 0 {
		return "", fmt.Errorf("dd: scale must be positive, got %d", scale)
	}
	fs := newVFS(m)
	data := pattern(scale*mib, 3)
	m.Alloc(int64(len(data)))
	if err := fs.create("/src.img"); err != nil {
		return "", err
	}
	if err := fs.write("/src.img", data, 65536); err != nil {
		return "", err
	}
	var copies int
	for _, bs := range []int{512, 4096, 65536} {
		src, err := fs.read("/src.img", bs)
		if err != nil {
			return "", err
		}
		dst := fmt.Sprintf("/dst-%d.img", bs)
		if err := fs.create(dst); err != nil {
			return "", err
		}
		if err := fs.write(dst, src, bs); err != nil {
			return "", err
		}
		copies++
	}
	return fmt.Sprintf("%d copies of %d MiB", copies, scale), nil
}

// runFilesystem mirrors the paper's filesystem workload: create two
// nested folders, create a 1-MB file in the innermost, write to it,
// read from it, and delete everything.
func runFilesystem(m *meter.Context, scale int) (string, error) {
	if scale <= 0 {
		return "", fmt.Errorf("filesystem: scale must be positive, got %d", scale)
	}
	const blockSize = 4096
	data := pattern(mib, 11)
	m.Alloc(mib)
	fs := newVFS(m)
	for i := 0; i < scale; i++ {
		outer := fmt.Sprintf("/outer-%d", i)
		inner := outer + "/inner"
		file := inner + "/payload.bin"
		if err := fs.mkdir(outer); err != nil {
			return "", err
		}
		if err := fs.mkdir(inner); err != nil {
			return "", err
		}
		if err := fs.create(file); err != nil {
			return "", err
		}
		if err := fs.write(file, data, blockSize); err != nil {
			return "", err
		}
		back, err := fs.read(file, blockSize)
		if err != nil {
			return "", err
		}
		if len(back) != mib {
			return "", fmt.Errorf("filesystem: read %d bytes, want %d", len(back), mib)
		}
		for _, p := range []string{file, inner, outer} {
			if err := fs.remove(p); err != nil {
				return "", err
			}
		}
	}
	return fmt.Sprintf("%d rounds", scale), nil
}

// runLogging mirrors the paper's logging workload: format and emit a
// large number of messages (formatting is real; output is discarded
// but metered as console writes).
func runLogging(m *meter.Context, scale int) (string, error) {
	if scale <= 0 {
		return "", fmt.Errorf("logging: scale must be positive, got %d", scale)
	}
	var buf bytes.Buffer
	for i := 0; i < scale; i++ {
		fmt.Fprintf(&buf, "[%08d] level=info worker=%d msg=%q\n", i, i%16, "benchmark log line payload")
		if buf.Len() > 1<<16 {
			buf.Reset()
		}
	}
	m.Log(int64(scale))
	m.CPU(int64(scale) * 40)
	return fmt.Sprintf("%d lines", scale), nil
}

// runFileIndex creates many small files, then lists and re-reads them
// — a metadata-heavy pattern (stat/readdir storms).
func runFileIndex(m *meter.Context, scale int) (string, error) {
	if scale <= 0 {
		return "", fmt.Errorf("fileindex: scale must be positive, got %d", scale)
	}
	fs := newVFS(m)
	if err := fs.mkdir("/idx"); err != nil {
		return "", err
	}
	blob := pattern(512, 5)
	for i := 0; i < scale; i++ {
		name := fmt.Sprintf("/idx/f-%05d", i)
		if err := fs.create(name); err != nil {
			return "", err
		}
		if err := fs.write(name, blob, 512); err != nil {
			return "", err
		}
	}
	names := fs.list("/idx")
	if len(names) != scale {
		return "", fmt.Errorf("fileindex: listed %d files, want %d", len(names), scale)
	}
	var total int
	for _, n := range names {
		data, err := fs.read(n, 512)
		if err != nil {
			return "", err
		}
		total += len(data)
	}
	return fmt.Sprintf("%d files, %d bytes", scale, total), nil
}
