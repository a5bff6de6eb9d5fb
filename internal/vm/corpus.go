package vm

import (
	"context"
	"sync"

	"confbench/internal/cberr"
)

// Corpus holds the measurement bodies one cluster has executed, for
// every pair it hands out. A body's usage depends on what it runs and
// with which arguments, not on the platform whose launcher runs it
// (DESIGN.md §15), so what one pair executed another pair prices as
// is: a catalog workload's raw run (for every language), a FaaS cell,
// an ML image or a benchmark suite executes once per cluster, however
// many rows and platforms price it. Only measurement bodies reach it:
// InvokeFunction, the serving path, always executes.
// Safe for concurrent use; a nil corpus is valid and never hits.
type Corpus struct {
	mu      sync.Mutex
	entries map[any]*corpusEntry
}

// corpusEntry is one key's execution. Its fields are written before
// done is closed and read only after.
type corpusEntry struct {
	done   chan struct{}
	val    any
	stored bool // the body returned without error
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus { return &Corpus{entries: make(map[any]*corpusEntry)} }

// Len returns the number of keys stored or executing.
func (c *Corpus) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Shared admits ctx on both VMs of p, then returns the value body
// produced under key in p's corpus, running body on a miss. A key is
// an exact comparable value naming everything the body's result
// depends on; keys of distinct types never collide. A key executes at
// most once per corpus: a concurrent caller waits for the running
// execution, or for its own ctx. An error goes to the caller whose
// body raised it and is never stored, so the next caller runs body
// again. A stored value is shared with every later caller, who must
// treat it as read-only.
func Shared[K comparable, V any](ctx context.Context, p Pair, key K, body func(ctx context.Context) (V, error)) (V, error) {
	var zero V
	if err := p.admit(ctx); err != nil {
		return zero, err
	}
	c := p.Corpus
	if c == nil {
		return body(ctx)
	}
	for {
		c.mu.Lock()
		e, ok := c.entries[key]
		if !ok {
			e = &corpusEntry{done: make(chan struct{})}
			c.entries[key] = e
		}
		c.mu.Unlock()
		if !ok {
			return fill(ctx, c, key, e, body)
		}
		select {
		case <-e.done:
		case <-ctx.Done():
			return zero, cberr.From(ctx.Err(), cberr.LayerVM)
		}
		if e.stored {
			return e.val.(V), nil
		}
		// The execution failed and was removed: run it again.
	}
}

// fill runs body for key's new entry e and publishes the outcome: the
// value, or (on an error or a panic) the entry's removal.
func fill[V any](ctx context.Context, c *Corpus, key any, e *corpusEntry, body func(ctx context.Context) (V, error)) (V, error) {
	defer func() {
		if !e.stored {
			c.mu.Lock()
			delete(c.entries, key)
			c.mu.Unlock()
		}
		close(e.done)
	}()
	v, err := body(ctx)
	if err == nil {
		e.val, e.stored = v, true
	}
	return v, err
}
