package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"confbench/internal/wal"
)

// Spill persists the telemetry plane across restarts: each federation
// sweep's series samples are flushed as one saved-record column block,
// and flight-recorder events as saved batches, to an append-only
// checksummed log (internal/wal). Replay on open feeds the recovered
// blocks back into a SeriesSet and Recorder, so windowed `?window=`
// rate queries and postmortem event reads span process restarts.
//
// Retention mirrors the in-memory rings: only the most recent blocks
// and batches are kept live; older ones are tombstoned and reclaimed
// by the log's merge compaction.
type Spill struct {
	log *wal.Log

	mu sync.Mutex
	// nextBlock and nextBatch number series column blocks and event
	// batches monotonically, continuing across restarts so replay
	// order is key order.
	nextBlock uint64
	nextBatch uint64
	// lastEventSeq is the highest recorder sequence already flushed
	// (or replayed); FlushEvents skips events at or below it.
	lastEventSeq uint64
	blockKeys    []string // live series block keys, oldest first
	eventKeys    []string // live event batch keys, oldest first

	maxBlocks  int
	maxBatches int
}

// Spill retention defaults, sized to the in-memory rings they mirror.
const (
	// DefaultSpillBlocks caps retained series column blocks (one per
	// sweep; DefaultSeriesCapacity sweeps = a full ring's history).
	DefaultSpillBlocks = DefaultSeriesCapacity
	// DefaultSpillEventBatches caps retained event batches.
	DefaultSpillEventBatches = 64
)

// Spill key prefixes; zero-padded sequence numbers keep key order
// equal to write order.
const (
	spillBlockPrefix = "b\x00"
	spillEventPrefix = "e\x00"
)

func spillBlockKey(seq uint64) string { return fmt.Sprintf("%s%020d", spillBlockPrefix, seq) }
func spillEventKey(seq uint64) string { return fmt.Sprintf("%s%020d", spillEventPrefix, seq) }

// seriesBlock is one sweep's samples in column layout: parallel ID and
// value columns under a single timestamp.
type seriesBlock struct {
	AtUnixNs int64     `json:"at"`
	IDs      []string  `json:"ids"`
	Values   []float64 `json:"values"`
}

// OpenSpill opens (or creates) a telemetry spill rooted at dir. The
// underlying log recovers from torn tails on its own; a partially
// flushed block from a crash mid-sweep is simply absent.
func OpenSpill(dir string) (*Spill, error) {
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, fmt.Errorf("obs: open spill: %w", err)
	}
	return &Spill{
		log:        l,
		maxBlocks:  DefaultSpillBlocks,
		maxBatches: DefaultSpillEventBatches,
	}, nil
}

// FlushSweep writes one sweep's samples as a column block. Callers
// pass the same instant they recorded into the live SeriesSet so the
// replayed timeline is identical.
func (s *Spill) FlushSweep(at time.Time, samples map[string]float64) error {
	if len(samples) == 0 {
		return nil
	}
	blk := seriesBlock{
		AtUnixNs: at.UnixNano(),
		IDs:      make([]string, 0, len(samples)),
		Values:   make([]float64, 0, len(samples)),
	}
	for id := range samples {
		blk.IDs = append(blk.IDs, id)
	}
	sort.Strings(blk.IDs)
	for _, id := range blk.IDs {
		blk.Values = append(blk.Values, samples[id])
	}
	val, err := json.Marshal(blk)
	if err != nil {
		return fmt.Errorf("obs: encode spill block: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextBlock++
	if err := s.appendLocked(&s.blockKeys, s.maxBlocks, spillBlockKey(s.nextBlock), val); err != nil {
		return err
	}
	return s.log.Sync()
}

// FlushEvents writes the events newer than the last flushed sequence
// as one batch. Passing a Recorder's full Events() slice repeatedly is
// the intended use; already-flushed events are skipped.
func (s *Spill) FlushEvents(evs []Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	fresh := make([]Event, 0, len(evs))
	for _, ev := range evs {
		if ev.Seq > s.lastEventSeq {
			fresh = append(fresh, ev)
		}
	}
	if len(fresh) == 0 {
		return nil
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].Seq < fresh[j].Seq })
	val, err := json.Marshal(fresh)
	if err != nil {
		return fmt.Errorf("obs: encode spill events: %w", err)
	}
	s.nextBatch++
	if err := s.appendLocked(&s.eventKeys, s.maxBatches, spillEventKey(s.nextBatch), val); err != nil {
		return err
	}
	s.lastEventSeq = fresh[len(fresh)-1].Seq
	return s.log.Sync()
}

// appendLocked writes val under key and tombstones the oldest of keys
// past the retention cap as one log batch, which the caller fsyncs
// once; the log's merge compaction reclaims the tombstoned space.
func (s *Spill) appendLocked(keys *[]string, max int, key string, val []byte) error {
	*keys = append(*keys, key)
	trim := len(*keys) - max
	if trim < 0 {
		trim = 0
	}
	ops := make([]wal.Op, 1, 2) // a flush past the cap trims one key
	ops[0] = wal.Op{Key: key, Val: val}
	for _, old := range (*keys)[:trim] {
		ops = append(ops, wal.Op{Key: old, Delete: true})
	}
	if _, err := s.log.Apply(ops); err != nil {
		*keys = (*keys)[:len(*keys)-1]
		return err
	}
	*keys = (*keys)[trim:]
	return nil
}

// Replay feeds every persisted block and event batch, oldest first,
// into the given SeriesSet and Recorder, and primes the spill's
// sequence state so subsequent flushes continue where the previous
// process stopped. Call once, right after OpenSpill, before the first
// flush. Replayed events are re-recorded, so they receive fresh
// sequence numbers in the new Recorder; their traces and payloads are
// preserved. It returns the number of replayed samples and events.
func (s *Spill) Replay(set *SeriesSet, rec *Recorder) (samples, events int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var maxReplayedSeq uint64
	err = s.log.Range(func(key string, val []byte) error {
		switch {
		case len(key) > len(spillBlockPrefix) && key[:len(spillBlockPrefix)] == spillBlockPrefix:
			var blk seriesBlock
			if err := json.Unmarshal(val, &blk); err != nil {
				return fmt.Errorf("obs: decode spill block %q: %w", key, err)
			}
			if len(blk.IDs) != len(blk.Values) {
				return fmt.Errorf("obs: spill block %q has %d ids, %d values", key, len(blk.IDs), len(blk.Values))
			}
			at := time.Unix(0, blk.AtUnixNs)
			for i, id := range blk.IDs {
				if set != nil {
					set.Series(id).Record(at, blk.Values[i])
				}
				samples++
			}
			var seq uint64
			if _, err := fmt.Sscanf(key[len(spillBlockPrefix):], "%d", &seq); err == nil && seq > s.nextBlock {
				s.nextBlock = seq
			}
			s.blockKeys = append(s.blockKeys, key)
		case len(key) > len(spillEventPrefix) && key[:len(spillEventPrefix)] == spillEventPrefix:
			var evs []Event
			if err := json.Unmarshal(val, &evs); err != nil {
				return fmt.Errorf("obs: decode spill events %q: %w", key, err)
			}
			for _, ev := range evs {
				if rec != nil {
					if seq := rec.Record(ev); seq > maxReplayedSeq {
						maxReplayedSeq = seq
					}
				}
				events++
			}
			var seq uint64
			if _, err := fmt.Sscanf(key[len(spillEventPrefix):], "%d", &seq); err == nil && seq > s.nextBatch {
				s.nextBatch = seq
			}
			s.eventKeys = append(s.eventKeys, key)
		default:
			return fmt.Errorf("obs: unknown spill key %q", key)
		}
		return nil
	})
	if err != nil {
		return samples, events, err
	}
	// Future flushes of the new Recorder must skip what was replayed
	// into it.
	s.lastEventSeq = maxReplayedSeq
	return samples, events, nil
}

// Close syncs and closes the underlying log.
func (s *Spill) Close() error {
	return s.log.Close()
}
