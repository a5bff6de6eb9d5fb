package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// loadClients is the number of closed-loop client goroutines every
// invoke workload runs: the measurement scripts ConfBench serves wait
// for each reply, and the box has two cores.
const loadClients = 2

// loadWindows is the number of equal windows a measured run is cut
// into; each reported figure is the median of the per-window values.
const loadWindows = 6

type opKind uint8

const (
	opSync  opKind = iota // one synchronous invoke, send to verified reply
	opAsync               // one async invoke, submit to result in hand
	opObs                 // one GET /v1/obs/cluster round trip
)

// sample is one completed client operation, packed into 16 bytes so
// that a run's few hundred thousand of them stay small next to the
// memory of the system under test (mem_sys_mb reads the whole process).
type sample struct {
	endUs  uint32 // µs since the load started
	latNs  uint32 // client wall ns, saturating at ~4.29 s
	virtNs uint32 // priced virtual ns the reply carried (invokes only), saturating
	kind   opKind
	ok     bool
}

func saturate(ns int64) uint32 {
	if ns > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(ns)
}

// sampleChunk is how many samples a recorder allocates at a time; full
// chunks are never copied, so sample storage neither doubles nor
// leaves garbage behind.
const sampleChunk = 1 << 15

// recorder collects one client's samples; it is not shared.
type recorder struct {
	start    time.Time
	deadline time.Time
	chunks   [][]sample
	notes    []string
}

// done reports whether the client should stop issuing work.
func (r *recorder) done() bool { return !time.Now().Before(r.deadline) }

// add records an operation that began at began and just completed;
// problem is "" for a verified reply, else what was wrong.
func (r *recorder) add(kind opKind, began time.Time, virt int64, problem string) {
	now := time.Now()
	if n := len(r.chunks); n == 0 || len(r.chunks[n-1]) == sampleChunk {
		r.chunks = append(r.chunks, make([]sample, 0, sampleChunk))
	}
	last := &r.chunks[len(r.chunks)-1]
	*last = append(*last, sample{
		endUs:  uint32(now.Sub(r.start) / time.Microsecond),
		latNs:  saturate(now.Sub(began).Nanoseconds()),
		virtNs: saturate(virt),
		kind:   kind,
		ok:     problem == "",
	})
	if problem != "" && len(r.notes) < 5 {
		r.notes = append(r.notes, problem)
	}
}

// boundary is the process-wide accounting read at a window edge.
type boundary struct {
	at      int64 // ns since the load started
	mallocs uint64
	cpu     time.Duration // user+sys
	gcPause uint64        // ns
	numGC   uint32
}

func readBoundary(start time.Time) boundary {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return boundary{
		at:      time.Since(start).Nanoseconds(),
		mallocs: ms.Mallocs,
		cpu:     processCPU(),
		gcPause: ms.PauseTotalNs,
		numGC:   ms.NumGC,
	}
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// loadRun is everything one measured load produced.
type loadRun struct {
	chunks [][]sample
	bounds []boundary
	notes  []string
}

// runLoad drives loadClients closed-loop clients for d. Each client
// calls body repeatedly until the deadline; body issues one or more
// operations and records them. Window edges are read by the calling
// goroutine while the clients run.
func runLoad(d time.Duration, body func(client int, rec *recorder)) *loadRun {
	start := time.Now()
	deadline := start.Add(d)
	recs := make([]*recorder, loadClients)
	var wg sync.WaitGroup
	run := &loadRun{bounds: []boundary{readBoundary(start)}}
	for c := range recs {
		recs[c] = &recorder{start: start, deadline: deadline}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !recs[c].done() {
				body(c, recs[c])
			}
		}(c)
	}
	for w := 1; w <= loadWindows; w++ {
		time.Sleep(time.Until(start.Add(d * time.Duration(w) / loadWindows)))
		run.bounds = append(run.bounds, readBoundary(start))
	}
	wg.Wait()
	for _, r := range recs {
		run.chunks = append(run.chunks, r.chunks...)
		run.notes = append(run.notes, r.notes...)
	}
	return run
}

// loadSummary is a load reduced to the benchmark's figures.
type loadSummary struct {
	attempted, failed int
	invokes           int // verified sync + async invokes inside windows
	measuredS         float64

	opsPerS       float64 // median of windows
	syncP50Ms     float64 // median of windows
	syncP95Ms     float64 // median of windows (see windowTail for short runs)
	syncP99Ms     float64 // likewise
	overheadRatio float64 // Σ sync wall / Σ sync virtual, median of windows
	allocsPerOp   float64 // median of windows
	cpuSPerKop    float64 // median of windows
	gcPauseMs     float64
	gcCycles      int

	syncLatMs, asyncLatMs, obsLatMs []float64 // pooled over the run
	meanSyncMs                      float64
	tailNotes                       []string // set when a tail is a fallback
}

// each visits the run's samples chunk by chunk.
func (l *loadRun) each(visit func(sample)) {
	for _, c := range l.chunks {
		for _, sm := range c {
			visit(sm)
		}
	}
}

// summarize cuts the run into its windows and reduces each figure to
// the median of the per-window values.
func (l *loadRun) summarize() loadSummary {
	s := loadSummary{}
	nw := len(l.bounds) - 1
	type win struct {
		ops           int
		lat           []float64
		sumLat, sumVi float64
	}
	wins := make([]win, nw)
	last := l.bounds[nw].at
	var sumSync float64
	l.each(func(sm sample) {
		s.attempted++
		if !sm.ok {
			s.failed++
			return
		}
		end := int64(sm.endUs) * 1e3
		ms := float64(sm.latNs) / 1e6
		switch sm.kind {
		case opSync:
			s.syncLatMs = append(s.syncLatMs, ms)
			sumSync += ms
		case opAsync:
			s.asyncLatMs = append(s.asyncLatMs, ms)
		case opObs:
			s.obsLatMs = append(s.obsLatMs, ms)
			return
		}
		if end >= last {
			return // finished after the last edge: verified, not timed
		}
		w := 0
		for w+1 < nw && end >= l.bounds[w+1].at {
			w++
		}
		wins[w].ops++
		if sm.kind == opSync {
			wins[w].lat = append(wins[w].lat, ms)
			wins[w].sumLat += float64(sm.latNs)
			wins[w].sumVi += float64(sm.virtNs)
		}
	})
	s.meanSyncMs = sumSync / float64(len(s.syncLatMs))
	var ops, p50, ratio, allocs, cpu []float64
	var sortedWins [][]float64
	for w := range wins {
		b0, b1 := l.bounds[w], l.bounds[w+1]
		dur := float64(b1.at-b0.at) / 1e9
		s.invokes += wins[w].ops
		s.measuredS += dur
		if wins[w].ops == 0 {
			continue
		}
		n := float64(wins[w].ops)
		ops = append(ops, n/dur)
		allocs = append(allocs, float64(b1.mallocs-b0.mallocs)/n)
		cpu = append(cpu, (b1.cpu-b0.cpu).Seconds()/n*1000)
		sorted := sortedCopy(wins[w].lat)
		sortedWins = append(sortedWins, sorted)
		p50 = append(p50, quantileSorted(sorted, 0.5))
		if wins[w].sumVi > 0 {
			ratio = append(ratio, wins[w].sumLat/wins[w].sumVi)
		}
	}
	s.opsPerS = medianOfWindows(ops)
	s.syncP50Ms = medianOfWindows(p50)
	s.syncP95Ms = s.windowTail(sortedWins, 95)
	s.syncP99Ms = s.windowTail(sortedWins, 99)
	s.overheadRatio = medianOfWindows(ratio)
	s.allocsPerOp = medianOfWindows(allocs)
	s.cpuSPerKop = medianOfWindows(cpu)
	s.gcPauseMs = float64(l.bounds[nw].gcPause-l.bounds[0].gcPause) / 1e6
	s.gcCycles = int(l.bounds[nw].numGC - l.bounds[0].numGC)
	return s
}

// windowTail is the p-th percentile of sync latency as the median of
// the per-window values, each window needing minBeyond samples beyond
// the percentile. A run too short for that falls back to the
// percentile pooled over the run, then to the slowest sample, and
// leaves a note saying so.
func (s *loadSummary) windowTail(sortedWins [][]float64, p float64) float64 {
	var per []float64
	for _, w := range sortedWins {
		if supported(len(w), p) {
			per = append(per, quantileSorted(w, p/100))
		}
	}
	if len(per) > 0 {
		return median(per)
	}
	if len(s.syncLatMs) == 0 {
		return math.NaN()
	}
	pooled := sortedCopy(s.syncLatMs)
	if supported(len(pooled), p) {
		s.tailNotes = append(s.tailNotes, fmt.Sprintf("p%g latency is pooled over the run: no window had enough samples (n=%d)", p, len(pooled)))
		return quantileSorted(pooled, p/100)
	}
	s.tailNotes = append(s.tailNotes, fmt.Sprintf("p%g latency is the slowest sample: the run has only %d", p, len(pooled)))
	return pooled[len(pooled)-1]
}

// memSysMiB is the memory the Go runtime holds from the OS right now.
func memSysMiB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
