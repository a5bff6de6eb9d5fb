// Package meter provides resource metering for workload execution.
//
// Every ConfBench workload runs real Go code while recording its
// resource consumption in a Context: abstract CPU operations, bytes
// allocated and touched, I/O traffic, syscalls, and log lines. The
// machine model (internal/cpumodel) converts these counters into
// virtual time, and TEE backends (internal/tee) charge confidential-
// computing overheads on top of them. Metering keeps benchmark runs
// deterministic and fast while the work performed stays genuine.
package meter

import (
	"fmt"
	"sync/atomic"
)

// Counter identifies one metered resource dimension.
type Counter int

// Metered resource dimensions.
const (
	// CPUOps counts abstract arithmetic/logic operations executed.
	CPUOps Counter = iota + 1
	// FPOps counts floating-point operations (Whetstone-style work).
	FPOps
	// BytesAllocated counts heap bytes requested by the workload.
	BytesAllocated
	// BytesTouched counts bytes read or written in memory (working-set
	// pressure; drives TEE memory encryption/integrity charges).
	BytesTouched
	// IOReadBytes counts bytes read from storage devices.
	IOReadBytes
	// IOWriteBytes counts bytes written to storage devices.
	IOWriteBytes
	// NetBytes counts bytes moved over the (virtual) network.
	NetBytes
	// Syscalls counts kernel entries (each may become a TEE exit).
	Syscalls
	// ContextSwitches counts scheduler context switches.
	ContextSwitches
	// ProcessSpawns counts process (or process-like) creations.
	ProcessSpawns
	// LogLines counts emitted log lines (console I/O).
	LogLines
	// FileOps counts file-metadata operations (create/unlink/mkdir).
	FileOps
	// PageFaults counts first-touch page faults (RMP/TDX accept cost).
	PageFaults

	// numCounters bounds the defined range: a Usage holds one slot per
	// value below it (slot 0 stays unused, counters start at 1).
	numCounters
)

var counterNames = [numCounters]string{
	CPUOps:          "cpu-ops",
	FPOps:           "fp-ops",
	BytesAllocated:  "bytes-allocated",
	BytesTouched:    "bytes-touched",
	IOReadBytes:     "io-read-bytes",
	IOWriteBytes:    "io-write-bytes",
	NetBytes:        "net-bytes",
	Syscalls:        "syscalls",
	ContextSwitches: "context-switches",
	ProcessSpawns:   "process-spawns",
	LogLines:        "log-lines",
	FileOps:         "file-ops",
	PageFaults:      "page-faults",
}

// defined reports whether c names one of the metered dimensions.
func (c Counter) defined() bool { return c > 0 && c < numCounters }

// String returns the canonical lowercase name of the counter.
func (c Counter) String() string {
	if c.defined() {
		return counterNames[c]
	}
	return fmt.Sprintf("counter(%d)", int(c))
}

// AllCounters returns every defined counter in a stable order.
func AllCounters() []Counter {
	out := make([]Counter, 0, numCounters-1)
	for c := Counter(1); c < numCounters; c++ {
		out = append(out, c)
	}
	return out
}

// Context accumulates resource usage for a single workload execution.
// It is safe for concurrent use; workloads that fan out goroutines may
// share one Context. Every slot is updated and read atomically, on its
// own: a Snapshot taken while Adds are still landing is consistent per
// slot, not across slots. Every caller snapshots after the body has
// joined its goroutines.
type Context struct {
	counts Usage
}

// NewContext returns an empty metering context.
func NewContext() *Context {
	return &Context{}
}

// Add increments counter c by n. Negative increments and counters
// outside the defined range are ignored.
func (m *Context) Add(c Counter, n int64) {
	if n <= 0 || !c.defined() {
		return
	}
	atomic.AddUint64(&m.counts[c], uint64(n))
}

// Get returns the current value of counter c.
func (m *Context) Get(c Counter) uint64 {
	if !c.defined() {
		return 0
	}
	return atomic.LoadUint64(&m.counts[c])
}

// CPU records n abstract CPU operations.
func (m *Context) CPU(n int64) { m.Add(CPUOps, n) }

// FP records n floating-point operations.
func (m *Context) FP(n int64) { m.Add(FPOps, n) }

// Alloc records a heap allocation of n bytes. The bytes are also
// counted as touched, since Go zeroes allocations.
func (m *Context) Alloc(n int64) {
	m.Add(BytesAllocated, n)
	m.Add(BytesTouched, n)
}

// Touch records n bytes of memory traffic (reads or writes).
func (m *Context) Touch(n int64) { m.Add(BytesTouched, n) }

// ReadIO records an n-byte storage read plus the syscall driving it.
func (m *Context) ReadIO(n int64) {
	m.Add(IOReadBytes, n)
	m.Add(Syscalls, 1)
}

// WriteIO records an n-byte storage write plus the syscall driving it.
func (m *Context) WriteIO(n int64) {
	m.Add(IOWriteBytes, n)
	m.Add(Syscalls, 1)
}

// Syscall records n kernel entries.
func (m *Context) Syscall(n int64) { m.Add(Syscalls, n) }

// Log records n emitted log lines (each one write syscall).
func (m *Context) Log(n int64) {
	m.Add(LogLines, n)
	m.Add(Syscalls, n)
}

// FileOp records n file metadata operations (each one syscall).
func (m *Context) FileOp(n int64) {
	m.Add(FileOps, n)
	m.Add(Syscalls, n)
}

// Spawn records n process creations.
func (m *Context) Spawn(n int64) {
	m.Add(ProcessSpawns, n)
	m.Add(Syscalls, 3*n) // fork+exec+wait style triple
}

// Switch records n context switches.
func (m *Context) Switch(n int64) { m.Add(ContextSwitches, n) }

// Fault records n first-touch page faults.
func (m *Context) Fault(n int64) { m.Add(PageFaults, n) }

// Snapshot returns a copy of the counters, each slot read atomically.
func (m *Context) Snapshot() Usage {
	var u Usage
	for c := Counter(1); c < numCounters; c++ {
		u[c] = atomic.LoadUint64(&m.counts[c])
	}
	return u
}

// Reset zeroes all counters.
func (m *Context) Reset() {
	for c := Counter(1); c < numCounters; c++ {
		atomic.StoreUint64(&m.counts[c], 0)
	}
}

// Merge adds every defined counter of u into the context.
func (m *Context) Merge(u Usage) {
	for c := Counter(1); c < numCounters; c++ {
		atomic.AddUint64(&m.counts[c], u[c])
	}
}

// Usage is a snapshot of counter values: one slot per Counter, indexed
// by it, so it is a plain value that copies without allocating and a
// keyed literal such as Usage{CPUOps: n} fills the slot it names. Slot
// 0 belongs to no counter: Get reads it as 0, and Add, Scale and Merge
// drop it.
type Usage [numCounters]uint64

// Get returns the value of counter c (0 when c is undefined).
func (u Usage) Get(c Counter) uint64 {
	if !c.defined() {
		return 0
	}
	return u[c]
}

// IsZero reports whether every counter is zero.
func (u Usage) IsZero() bool {
	for c := Counter(1); c < numCounters; c++ {
		if u[c] != 0 {
			return false
		}
	}
	return true
}

// Add returns the element-wise sum of u and v.
func (u Usage) Add(v Usage) Usage {
	var out Usage
	for c := Counter(1); c < numCounters; c++ {
		out[c] = u[c] + v[c]
	}
	return out
}

// Scale returns u with every counter multiplied by f. Negative factors
// are treated as zero.
func (u Usage) Scale(f float64) Usage {
	if f < 0 {
		f = 0
	}
	var out Usage
	for c := Counter(1); c < numCounters; c++ {
		out[c] = uint64(float64(u[c]) * f)
	}
	return out
}

// String renders the non-zero counters in counter order.
func (u Usage) String() string {
	s := ""
	for c := Counter(1); c < numCounters; c++ {
		if u[c] == 0 {
			continue
		}
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", c, u[c])
	}
	return s
}
