package minidb

import (
	"encoding/binary"
	"fmt"

	"confbench/internal/meter"
	"confbench/internal/wal"
)

// Change is one keyed mutation buffered between commit points. Keys
// name rows, table schemas, and index definitions (see rowKey and
// friends); a nil-value Delete tombstones the key.
type Change struct {
	Key    string
	Val    []byte
	Delete bool
	// DDL marks schema-shaping changes (CREATE/DROP TABLE, CREATE
	// INDEX, and the row tombstones of a DROP). ROLLBACK keeps them:
	// the engine's operation-level undo log does not undo DDL, so the
	// durable state must not either.
	DDL bool
}

// Backend is the storage plane behind a Database. The engine buffers
// row and schema mutations as Changes and hands them to Apply at each
// commit point (autocommit statement end, COMMIT); logicalBytes is the
// batched dirty-page volume the in-memory pager would have flushed.
//
// A nil backend is the in-memory path: commit points charge
// m.WriteIO(logicalBytes), nothing survives the process.
// DurableBackend appends each commit point's changes to a write-ahead
// log as one batch and fsyncs once, charging the log's real write
// amplification and the fsync syscall pair instead — the
// durable-vs-memory delta speedtest prices.
type Backend interface {
	// Apply persists one commit point's buffered changes.
	Apply(m *meter.Context, changes []Change, logicalBytes int64) error
	// Load replays the persisted state, one live key per call, in
	// sorted key order. NewWithBackend uses it to rebuild the heap.
	Load(fn func(key string, val []byte) error) error
	// Compact reclaims superseded storage (VACUUM's durable half).
	Compact(m *meter.Context) error
	// Close releases the backend's resources.
	Close() error
}

// Key prefixes. Sorted key order groups indexes, then rows (per table
// in rowid order), then schemas.
const (
	keyPrefixIndex  = "i\x00"
	keyPrefixRow    = "r\x00"
	keyPrefixSchema = "s\x00"
)

// rowKey names one row: r\0 table \0 bigEndian64(rowid), so sorted key
// order within a table is rowid order.
func rowKey(table string, rowid int64) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(rowid))
	return keyPrefixRow + table + "\x00" + string(b[:])
}

// schemaKey names one table's column definitions.
func schemaKey(table string) string { return keyPrefixSchema + table }

// indexKey names one index definition; the value is the index name.
func indexKey(table, col string) string { return keyPrefixIndex + table + "\x00" + col }

// DurableBackend persists commit points to an append-only checksummed
// log (internal/wal). Every commit point appends the changed records
// in one write and fsyncs once, so the metered cost is the log's
// actual on-disk write amplification plus a journal fsync pair — not
// the logical dirty-page volume the memory pager charges. A commit
// point is not atomic on disk: a crash mid-write recovers a prefix of
// its changes.
type DurableBackend struct {
	log *wal.Log
}

// NewDurableBackend opens (or creates) the durable log rooted at dir.
// Reopening the dir of a previous run recovers its committed state;
// a torn tail from a crash mid-commit is truncated, never fatal.
func NewDurableBackend(dir string) (*DurableBackend, error) {
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, fmt.Errorf("minidb: open durable backend: %w", err)
	}
	return &DurableBackend{log: l}, nil
}

// Apply appends the commit point's changes as one log batch (one
// write) and fsyncs once. The physical bytes written (record headers
// and checksums included) are charged as storage writes; the fsync is
// the same journal syscall pair COMMIT already models.
func (b *DurableBackend) Apply(m *meter.Context, changes []Change, _ int64) error {
	if len(changes) == 0 {
		return nil
	}
	ops := make([]wal.Op, len(changes))
	for i, c := range changes {
		ops[i] = wal.Op{Key: c.Key, Val: c.Val, Delete: c.Delete}
	}
	written, err := b.log.Apply(ops)
	if err != nil {
		return err
	}
	if written > 0 {
		m.WriteIO(written)
	}
	m.Syscall(2) // fsync pair at the commit point
	return b.log.Sync()
}

// Load replays every live record in sorted key order.
func (b *DurableBackend) Load(fn func(key string, val []byte) error) error {
	return b.log.Range(fn)
}

// Compact merges the log down to its live set, pricing the rewrite as
// a read+write of the live bytes plus one merge fsync pair, however
// many segments the log reads and fsyncs to do it.
func (b *DurableBackend) Compact(m *meter.Context) error {
	live := b.log.Stats().LiveBytes
	if err := b.log.Compact(); err != nil {
		return err
	}
	if live > 0 {
		m.ReadIO(live)
		m.WriteIO(live)
	}
	m.Syscall(2)
	return nil
}

// Stats exposes the underlying log's stats (tests and smoke checks).
func (b *DurableBackend) Stats() wal.Stats { return b.log.Stats() }

// Close syncs and closes the log.
func (b *DurableBackend) Close() error { return b.log.Close() }
