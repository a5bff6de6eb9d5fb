package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file implements cluster federation: merging per-host registry
// snapshots into one cluster view whose metric IDs carry a host
// label, plus a Prometheus writer over merged snapshots (the registry
// writer walks live metrics; the federation path only has copies).

// splitID splits a canonical metric ID into its family and raw (still
// escaped) label block body. "fam{a=\"b\"}" → ("fam", `a="b"`).
func splitID(id string) (family, block string) {
	i := strings.IndexByte(id, '{')
	if i < 0 {
		return id, ""
	}
	return id[:i], strings.TrimSuffix(id[i+1:], "}")
}

// parseLabels parses a label block body back into alternating
// key/value pairs with values unescaped. The block is trusted to be
// canonical (this package rendered it); a malformed tail is dropped.
func parseLabels(block string) []string {
	var out []string
	for len(block) > 0 {
		eq := strings.Index(block, `="`)
		if eq < 0 {
			break
		}
		key := block[:eq]
		rest := block[eq+2:]
		// Find the closing quote, skipping escaped characters.
		end := -1
		for i := 0; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
				continue
			}
			if rest[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			break
		}
		out = append(out, key, unescapeLabelValue(rest[:end]))
		block = rest[end+1:]
		block = strings.TrimPrefix(block, ",")
	}
	return out
}

// ParseMetricID splits a canonical metric ID back into its family and
// label map. Consumers of merged cluster snapshots use it to filter
// by host or TEE without re-implementing the exposition grammar.
func ParseMetricID(id string) (family string, labels map[string]string) {
	family, block := splitID(id)
	pairs := parseLabels(block)
	labels = make(map[string]string, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		labels[pairs[i]] = pairs[i+1]
	}
	return family, labels
}

// WithLabel returns id with the key=value label added in canonical
// (sorted) position. When the metric already carries key — e.g. a
// breaker-state gauge that has its own host label being federated
// under a scrape host — the existing pair is kept under
// "exported_<key>", Prometheus-federation style, so neither side's
// identity is lost.
func WithLabel(id, key, value string) string {
	family, block := splitID(id)
	labels := parseLabels(block)
	for i := 0; i+1 < len(labels); i += 2 {
		if labels[i] == key {
			labels[i] = "exported_" + key
		}
	}
	labels = append(labels, key, value)
	return family + labelBlock(sortLabels(labels), "", "")
}

// MergeSnapshots merges per-host registry snapshots into one cluster
// snapshot: every metric ID gains a host label naming the scraped
// host. Hosts are processed in sorted order and the relabeled IDs are
// unique per host, so the merged view is independent of scrape
// arrival order — rendering it is byte-identical across runs.
func MergeSnapshots(hosts map[string]Snapshot) Snapshot {
	return MergeSnapshotsBy("host", hosts)
}

// MergeSnapshotsBy is MergeSnapshots with the identity label chosen by
// the caller: the gateway federates host agents under "host", and the
// front tier federates whole gateway shards under "shard". Snapshots
// already carrying the label (a shard's own host-federated view) keep
// the inner pair as "exported_<label>", Prometheus-federation style.
func MergeSnapshotsBy(label string, snaps map[string]Snapshot) Snapshot {
	merged := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	names := make([]string, 0, len(snaps))
	for h := range snaps {
		names = append(names, h)
	}
	sort.Strings(names)
	for _, name := range names {
		snap := snaps[name]
		for id, v := range snap.Counters {
			merged.Counters[WithLabel(id, label, name)] = v
		}
		for id, v := range snap.Gauges {
			merged.Gauges[WithLabel(id, label, name)] = v
		}
		for id, h := range snap.Histograms {
			merged.Histograms[WithLabel(id, label, name)] = h
		}
	}
	return merged
}

// ClusterSnapshot is the JSON body of GET /v1/obs/cluster: the
// federated view the gateway assembled from every host agent's
// registry, plus windowed rates computed from the scrape series.
type ClusterSnapshot struct {
	// Hosts lists the scrape targets that answered, sorted.
	Hosts []string `json:"hosts"`
	// ScrapeErrors maps hosts that failed this scrape to the error.
	ScrapeErrors map[string]string `json:"scrape_errors,omitempty"`
	// Window is the sample window the rates were computed over.
	Window int `json:"window,omitempty"`
	// Rates holds per-second windowed rates keyed by merged metric ID
	// (counter families only), e.g. the cluster invoke rate under
	// RateInvokesPerSec.
	Rates map[string]float64 `json:"rates,omitempty"`
	// Merged is the cluster view: every host's metrics under a host
	// label.
	Merged Snapshot `json:"merged"`
}

// RateInvokesPerSec keys the cluster-wide invoke rate in
// ClusterSnapshot.Rates: the windowed rate of pool checkouts summed
// across TEEs, i.e. dispatched invokes per second.
const RateInvokesPerSec = "confbench_invokes_per_sec"

// snapEntry is one renderable metric of a snapshot.
type snapEntry struct {
	id     string
	family string
	block  string // raw label block body, without braces
	kind   string
}

// snapshotEntries flattens a snapshot into (id, kind) entries sorted
// by id — the same stable order the registry writer uses.
func snapshotEntries(snap Snapshot) []snapEntry {
	out := make([]snapEntry, 0, len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms))
	add := func(id, kind string) {
		family, block := splitID(id)
		out = append(out, snapEntry{id: id, family: family, block: block, kind: kind})
	}
	for id := range snap.Counters {
		add(id, kindCounter)
	}
	for id := range snap.Gauges {
		add(id, kindGauge)
	}
	for id := range snap.Histograms {
		add(id, kindHistogram)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// reblock renders a label block body (plus an optional extra pair)
// back into braces; an empty body with no extra renders as "".
func reblock(block, extraK, extraV string) string {
	if block == "" && extraK == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	b.WriteString(block)
	if extraK != "" {
		if block != "" {
			b.WriteByte(',')
		}
		b.WriteString(extraK)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(extraV))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// WriteSnapshotPrometheus writes a snapshot (typically a merged
// cluster view) in the Prometheus 0.0.4 text format, ordered by
// metric ID so identical snapshots render byte-identically.
func WriteSnapshotPrometheus(w io.Writer, snap Snapshot) error {
	typed := make(map[string]bool)
	for _, e := range snapshotEntries(snap) {
		if !typed[e.family] {
			typed[e.family] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.family, e.kind); err != nil {
				return err
			}
		}
		switch e.kind {
		case kindCounter:
			if _, err := fmt.Fprintf(w, "%s %d\n", e.id, snap.Counters[e.id]); err != nil {
				return err
			}
		case kindGauge:
			if _, err := fmt.Fprintf(w, "%s %d\n", e.id, snap.Gauges[e.id]); err != nil {
				return err
			}
		case kindHistogram:
			if err := writeSnapshotHistogram(w, e, snap.Histograms[e.id]); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSnapshotHistogram emits cumulative le buckets plus _sum and
// _count for one snapshotted histogram, le appended after the sorted
// labels.
func writeSnapshotHistogram(w io.Writer, e snapEntry, h HistogramSnapshot) error {
	var cum uint64
	for i, bound := range h.Bounds {
		if i < len(h.Counts) {
			cum += h.Counts[i]
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			e.family, reblock(e.block, "le", formatFloat(bound)), cum); err != nil {
			return err
		}
	}
	if len(h.Counts) > len(h.Bounds) {
		cum += h.Counts[len(h.Bounds)]
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
		e.family, reblock(e.block, "le", "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
		e.family, reblock(e.block, "", ""), formatFloat(h.SumSeconds)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n",
		e.family, reblock(e.block, "", ""), h.Count)
	return err
}
