// Package unixbench implements a Byte-UnixBench-style suite of
// low-level OS benchmarks for ConfBench's classic-workload experiments
// (§IV-C, Fig. 4).
//
// Like the original, the suite runs a set of heterogeneous tests —
// Dhrystone-style integer work, Whetstone-style floating point,
// execl/spawn throughput, file copies at several buffer sizes, pipe
// throughput, pipe-based context switching, syscall overhead, and
// shell-script pipelines — and reports an index score per test
// comparing against the reference system (a SPARCstation 20-61 with
// 128 MB RAM running Solaris 2.3, whose baseline values UnixBench
// hard-codes), plus the geometric-mean aggregate index.
//
// Because ConfBench prices execution with a virtual clock, the suite
// only executes: Run returns what each test did and metered, and Score
// turns the durations a VM priced those usages at into index scores.
// Scoring one Run under the secure and the normal guest of one host
// yields the Fig. 4 ratios.
package unixbench

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"confbench/internal/meter"
	"confbench/internal/stats"
)

// TestScore reports one test.
type TestScore struct {
	// Name is the UnixBench test name.
	Name string `json:"name"`
	// Unit is the throughput unit (lps, KBps, MWIPS, lpm).
	Unit string `json:"unit"`
	// Rate is the measured throughput in Unit.
	Rate float64 `json:"rate"`
	// Baseline is the reference system's throughput.
	Baseline float64 `json:"baseline"`
	// Index is Rate/Baseline × 10 (UnixBench convention).
	Index float64 `json:"index"`
}

// Result is the full suite outcome.
type Result struct {
	Scores []TestScore `json:"scores"`
	// Index is the geometric mean of per-test indexes — the
	// "System Benchmarks Index Score" UnixBench prints.
	Index float64 `json:"index"`
}

// Options tunes suite size (iterations scale with Scale; 1.0 matches
// the defaults used in the paper's single-threaded configuration).
type Options struct {
	Scale float64
}

// Suite is a configured UnixBench run.
type Suite struct {
	scale float64
}

// New builds a suite; scale 0 means 1.0.
func New(opts Options) *Suite {
	s := opts.Scale
	if s <= 0 {
		s = 1.0
	}
	return &Suite{scale: s}
}

// baselines from the UnixBench sources (SPARCstation 20-61 reference).
const (
	baseDhrystone = 116700.0 // lps
	baseWhetstone = 55.0     // MWIPS
	baseExecl     = 43.0     // lps
	baseFile256   = 1655.0   // KBps
	baseFile1024  = 3960.0   // KBps
	baseFile4096  = 5800.0   // KBps
	basePipe      = 12440.0  // lps
	baseContext1  = 4000.0   // lps
	baseSpawn     = 126.0    // lps
	baseSyscall   = 15000.0  // lps
	baseShell1    = 42.4     // lpm
	baseShell8    = 6.0      // lpm
)

// test is one suite entry: run returns (work metric, is-per-minute).
type test struct {
	name     string
	unit     string
	baseline float64
	perMin   bool
	run      func(m *meter.Context, scale float64) float64
}

func (s *Suite) tests() []test {
	return []test{
		{"dhry2reg", "lps", baseDhrystone, false, runDhrystone},
		{"whetstone-double", "MWIPS", baseWhetstone, false, runWhetstone},
		{"execl", "lps", baseExecl, false, runExecl},
		{"fstime-256", "KBps", baseFile256, false, fileCopy(256, 500)},
		{"fstime-1024", "KBps", baseFile1024, false, fileCopy(1024, 2000)},
		{"fstime-4096", "KBps", baseFile4096, false, fileCopy(4096, 8000)},
		{"pipe", "lps", basePipe, false, runPipe},
		{"context1", "lps", baseContext1, false, runContext1},
		{"spawn", "lps", baseSpawn, false, runSpawn},
		{"syscall", "lps", baseSyscall, false, runSyscall},
		{"shell1", "lpm", baseShell1, true, runShell(1)},
		{"shell8", "lpm", baseShell8, true, runShell(8)},
	}
}

// TestRun is one executed test, not yet priced.
type TestRun struct {
	test
	// Work is the test's work metric (loops, KB copied, MWIPS).
	Work float64
	// Usage is what the test metered.
	Usage meter.Usage
}

// Run executes every test once, each against a meter of its own, and
// returns the runs in suite order. ctx is checked between tests.
func (s *Suite) Run(ctx context.Context) ([]TestRun, error) {
	var runs []TestRun
	for _, t := range s.tests() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		local := meter.NewContext()
		work := t.run(local, s.scale)
		runs = append(runs, TestRun{test: t, Work: work, Usage: local.Snapshot()})
	}
	return runs, nil
}

// Score computes the UnixBench report of runs whose usages were priced
// at durs (one duration per run, same order).
func Score(runs []TestRun, durs []time.Duration) (Result, error) {
	if len(durs) != len(runs) {
		return Result{}, fmt.Errorf("unixbench: %d durations for %d runs", len(durs), len(runs))
	}
	var res Result
	var indexes []float64
	for i, t := range runs {
		dur := durs[i]
		if dur <= 0 {
			return Result{}, fmt.Errorf("unixbench: %s priced at %v", t.name, dur)
		}
		rate := t.Work / dur.Seconds()
		if t.perMin {
			rate = t.Work / (dur.Seconds() / 60)
		}
		score := TestScore{
			Name:     t.name,
			Unit:     t.unit,
			Rate:     rate,
			Baseline: t.baseline,
			Index:    rate / t.baseline * 10,
		}
		res.Scores = append(res.Scores, score)
		indexes = append(indexes, score.Index)
	}
	res.Index = stats.GeoMean(indexes)
	return res, nil
}

// Render prints the result like the UnixBench report.
func Render(r Result) string {
	var sb strings.Builder
	sb.WriteString("System Benchmarks (single-threaded):\n")
	for _, s := range r.Scores {
		fmt.Fprintf(&sb, "  %-20s %14.1f %-6s (baseline %10.1f, index %8.1f)\n",
			s.Name, s.Rate, s.Unit, s.Baseline, s.Index)
	}
	fmt.Fprintf(&sb, "System Benchmarks Index Score: %.1f\n", r.Index)
	return sb.String()
}

// --- individual tests ---

// dhryRecord mirrors Dhrystone's record assignments.
type dhryRecord struct {
	ptrComp     *dhryRecord
	discr       int
	enumComp    int
	intComp     int
	stringComp  string
	stringComp2 string
}

// runDhrystone performs Dhrystone-2-style work: record assignments,
// string comparisons, integer arithmetic. Returns loop count.
func runDhrystone(m *meter.Context, scale float64) float64 {
	loops := int(60000 * scale)
	glob := &dhryRecord{stringComp: "DHRYSTONE PROGRAM, SOME STRING"}
	next := &dhryRecord{}
	glob.ptrComp = next
	intGlob := 0
	boolGlob := false
	ch1, ch2 := 'A', 'B'
	for i := 0; i < loops; i++ {
		// Proc1-ish: record copy through pointer.
		*next = *glob
		next.intComp = 5
		next.ptrComp = glob.ptrComp
		// Proc4-ish: boolean and char juggling.
		boolGlob = !boolGlob && ch1 == 'A'
		ch2 = 'B'
		// Func2-ish: string comparison.
		if glob.stringComp == "DHRYSTONE PROGRAM, SOME STRING" {
			intGlob = i & 0xff
		}
		// Integer arithmetic mix.
		x := i*7 + intGlob
		y := x / 3
		intGlob = (x - y) & 0xffff
		_ = ch2
	}
	m.CPU(int64(loops) * 90)
	m.Touch(int64(loops) * 64)
	return float64(loops)
}

// runWhetstone performs Whetstone-style floating-point kernels and
// returns the equivalent millions of Whetstone instructions.
func runWhetstone(m *meter.Context, scale float64) float64 {
	outer := int(60 * scale)
	x1, x2, x3, x4 := 1.0, -1.0, -1.0, -1.0
	const t = 0.499975
	const t2 = 2.0
	var fpOps int64
	for i := 0; i < outer; i++ {
		// Module 1: simple identifiers.
		for j := 0; j < 1000; j++ {
			x1 = (x1 + x2 + x3 - x4) * t
			x2 = (x1 + x2 - x3 + x4) * t
			x3 = (x1 - x2 + x3 + x4) * t
			x4 = (-x1 + x2 + x3 + x4) * t
		}
		fpOps += 16000
		// Module 7: trig functions.
		x := 0.5
		for j := 0; j < 100; j++ {
			x = t * math.Atan(t2*math.Sin(x)*math.Cos(x)/(math.Cos(x+x)+math.Cos(x-x)-1.0))
		}
		fpOps += 100 * 30
		// Module 8: procedure calls with division.
		e1 := [4]float64{1.0, -1.0, -1.0, -1.0}
		for j := 0; j < 500; j++ {
			e1[0] = (e1[0] + e1[1] + e1[2] - e1[3]) * t
			e1[1] = e1[0] / t2
		}
		fpOps += 500 * 8
	}
	m.FP(fpOps)
	// 1 Whetstone "instruction" ≈ 1 of our fp ops here.
	return float64(fpOps) / 1e6
}

// runExecl models execl throughput: replacing a process image. Each
// loop builds a fresh 64-KiB image and tears the old one down.
func runExecl(m *meter.Context, scale float64) float64 {
	loops := int(300 * scale)
	for i := 0; i < loops; i++ {
		img := make([]byte, 64<<10)
		for off := 0; off < len(img); off += 4096 {
			img[off] = byte(i)
		}
		m.Alloc(int64(len(img)))
		m.Spawn(1)
		m.Fault(int64(len(img)) / 4096)
	}
	return float64(loops)
}

// filePage is the size of fileCopy's in-memory file page.
const filePage = 1 << 20

// fileCopy returns a test copying maxBlocks blocks of bufSize bytes
// through an in-memory "file", metering real storage traffic. Every
// block is appended to one page of at most filePage bytes, reused from
// its start once full, as a page cache recycles a written-back page:
// the copy does the same work and meters the same bytes as keeping the
// whole file would, without asking the heap for it (32 MiB for
// fstime-4096). The metric is KB copied.
func fileCopy(bufSize, maxBlocks int) func(m *meter.Context, scale float64) float64 {
	return func(m *meter.Context, scale float64) float64 {
		blocks := int(float64(maxBlocks) * scale)
		src := make([]byte, bufSize)
		for i := range src {
			src[i] = byte(i * 31)
		}
		page := make([]byte, 0, min(filePage, bufSize*blocks))
		var copied int64
		for b := 0; b < blocks; b++ {
			if len(page)+bufSize > cap(page) {
				page = page[:0]
			}
			page = append(page, src...)
			m.ReadIO(int64(bufSize))
			m.WriteIO(int64(bufSize))
			copied += int64(bufSize)
		}
		m.Alloc(copied)
		return float64(copied) / 1024
	}
}

// runPipe models pipe throughput: 512-byte writes+reads through an
// in-memory ring. Metric is read/write loop count.
func runPipe(m *meter.Context, scale float64) float64 {
	loops := int(40000 * scale)
	var ring [4096]byte
	buf := make([]byte, 512)
	pos := 0
	for i := 0; i < loops; i++ {
		copy(ring[pos:pos+512], buf)
		copy(buf, ring[pos:pos+512])
		pos = (pos + 512) % 4096
		m.Syscall(2)
		m.Touch(1024)
	}
	return float64(loops)
}

// runContext1 models pipe-based context switching: two goroutines
// ping-pong a token over unbuffered channels (real scheduler context
// switches). Metric is round trips.
func runContext1(m *meter.Context, scale float64) float64 {
	loops := int(8000 * scale)
	ping := make(chan int)
	pong := make(chan int)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := range ping {
			pong <- v + 1
		}
	}()
	for i := 0; i < loops; i++ {
		ping <- i
		<-pong
		m.Switch(2)
		m.Syscall(2)
	}
	close(ping)
	<-done
	return float64(loops)
}

// runSpawn models process creation: launching and reaping short-lived
// workers. Metric is spawns.
func runSpawn(m *meter.Context, scale float64) float64 {
	loops := int(120 * scale)
	for i := 0; i < loops; i++ {
		done := make(chan struct{})
		go func() {
			// A newborn process touches its fresh stack and exits.
			var stack [2048]byte
			stack[0] = byte(i)
			_ = stack
			close(done)
		}()
		<-done
		m.Spawn(1)
		m.Switch(2)
	}
	return float64(loops)
}

// runSyscall measures bare syscall overhead (getpid-style). Metric is
// syscalls issued.
func runSyscall(m *meter.Context, scale float64) float64 {
	loops := int(50000 * scale)
	acc := 0
	for i := 0; i < loops; i++ {
		acc += i & 1 // keep the loop honest
	}
	_ = acc
	m.Syscall(int64(loops))
	m.CPU(int64(loops) * 4)
	return float64(loops)
}

// runShell returns the shell-script test: each loop runs a sort|grep|
// wc-style pipeline over generated text with the given concurrency.
func runShell(concurrent int) func(m *meter.Context, scale float64) float64 {
	return func(m *meter.Context, scale float64) float64 {
		loops := int(30 * scale)
		text := makeShellInput()
		for i := 0; i < loops; i++ {
			for c := 0; c < concurrent; c++ {
				// Three "processes" per pipeline stage.
				m.Spawn(3)
				lines := strings.Split(text, "\n")
				matched := 0
				for _, ln := range lines {
					if strings.Contains(ln, "user") {
						matched++
					}
				}
				m.CPU(int64(len(lines)) * 30)
				m.ReadIO(int64(len(text)))
				m.WriteIO(int64(matched) * 16)
				m.Switch(4)
			}
		}
		return float64(loops)
	}
}

func makeShellInput() string {
	var sb strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&sb, "entry %04d user%d group%d size=%d\n", i, i%17, i%5, i*37%8192)
	}
	return sb.String()
}
