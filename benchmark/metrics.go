package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricSpec declares one metric the benchmark reports. The same
// tables are committed as BENCHMARK.json; TestBenchmarkJSONMatchesSpec
// keeps the two from drifting.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
	// Bound is the share of the parent's median by which an
	// end-to-end metric may worsen before a change is a regression
	// (0, and absent from BENCHMARK.json, for per-layer metrics, which
	// are not gated).
	Bound float64 `json:"bound,omitempty"`
}

// workloadSpec names one workload and why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const (
	wlRelaySmall = "relay-small"
	wlTierMixed  = "tier-mixed"
	wlGuestMix   = "guest-mix"
	wlFigures    = "figures"
)

var workloadSpecs = []workloadSpec{
	{wlRelaySmall, "one tiny function over the binary carrier on a single gateway: plumbing-bound, so any hop-cost change shows here first"},
	{wlTierMixed, "HTTP edge, sharded front tier, sync plus async bursts with the ops plane polling beside them: the same layers used differently"},
	{wlGuestMix, "all 1260 function x language x TEE x VM shapes: guest-bound, so a hop optimisation must predict no change here"},
	{wlFigures, "the paper's figure harness with no network: bench.Runner, vm.Pair, minidb, mlinfer, unixbench, attest; bypasses gateway, wire and front tier"},
}

// endToEndSpecs are the gated metrics. Every workload reports every
// one of them; the README gives each workload's reading of "op" and
// "latency". Every bound on a timing is the contract's maximum: on the
// two-core box the baseline was taken on, the run-to-run spread of the
// same code reaches 10-20 % when a neighbour is busy (README,
// "Baseline"), and a bound below the spread would reject unchanged
// code. allocs_per_op repeats to 0.6 % and keeps the 5 % asked for.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"harness_overhead_ratio", "ratio", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"mem_sys_mb", "MiB", "lower", 0.25},
	{"cpu_s_per_kop", "s", "lower", 0.25},
}

func lower(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: "higher"}
}

// perLayerSpecs are the ungated per-layer metrics of the traced run,
// named <module>.<metric>. A metric reads 0 on a workload that does
// not cross its layer.
var perLayerSpecs = []metricSpec{
	// Load figures of the traced process's untraced phase, kept beside
	// the layers so a traced run explains itself. The first three were
	// specified as end-to-end metrics and are ungated because only
	// tier-mixed can report them (see README, "Demoted metrics").
	lower("async_latency_p50_ms", "ms"),
	lower("obs_cluster_p50_ms", "ms"),
	lower("failed_share", "ratio"),
	lower("latency_p99_ms", "ms"),
	higher("load.ops_per_s", "1/s"),
	higher("load.latency_samples", "count"),

	lower("api.client_self_us", "us"),
	lower("api.client_http_self_us", "us"),

	lower("fronttier.invoke_self_us", "us"),
	lower("fronttier.admit_ns", "ns"),
	lower("fronttier.ring_pick_ns", "ns"),
	lower("fronttier.queue_depth_max", "count"),
	lower("fronttier.async_pending_max", "count"),
	lower("fronttier.sheds", "count"),
	lower("fronttier.result_park_wake_us", "us"),
	lower("fronttier.async_p99_ms", "ms"),
	lower("fronttier.sync_p99_ms", "ms"),
	lower("fronttier.scrape_once_ms", "ms"),

	lower("gateway.dispatch_self_us", "us"),
	lower("gateway.pool_checkout_us", "us"),
	lower("gateway.pool_acquire_ns", "ns"),
	lower("gateway.breaker_check_ns", "ns"),
	lower("gateway.retries", "count"),
	lower("gateway.scrape_once_ms", "ms"),

	lower("wire.hop_self_us", "us"),
	lower("wire.roundtrip_binary_us", "us"),
	lower("wire.roundtrip_httpjson_us", "us"),
	lower("wire.roundtrip_binary_p99_2c_us", "us"),
	lower("wire.roundtrip_httpjson_p99_2c_us", "us"),
	lower("wire.encode_ns", "ns"),
	lower("wire.decode_ns", "ns"),
	higher("wire.batch_size_mean", "count"),
	lower("wire.frames_per_invoke", "count"),
	lower("wire.bytes_per_invoke", "B"),

	lower("relay.self_us", "us"),
	lower("relay.bytes_per_invoke", "B"),

	lower("hostagent.invoke_self_us", "us"),
	lower("hostagent.warm_acquire_us", "us"),
	lower("hostagent.cold_launch_ms", "ms"),

	lower("vm.exec_us", "us"),
	lower("vm.invoke_direct_us", "us"),
	lower("tee.price_us", "us"),
	lower("tee.costmodel_apply_ns", "ns"),
	lower("tee.launch_wall_ms.tdx", "ms"),
	lower("tee.launch_wall_ms.sev", "ms"),
	lower("tee.launch_wall_ms.cca", "ms"),
	lower("tee.restore_wall_us", "us"),

	lower("workloads.cpu_ms", "ms"),
	lower("workloads.memory_ms", "ms"),
	lower("workloads.io_ms", "ms"),
	lower("workloads.mixed_ms", "ms"),
	lower("faas.launcher_self_us", "us"),
	higher("wasmvm.instr_per_s", "1/s"),

	lower("bench.runner_task_ns", "ns"),
	lower("bench.virtual_s_per_pass", "virtual_s"),
	lower("bench.faas_ms", "ms"),
	lower("bench.ml_ms", "ms"),
	lower("bench.dbms_ms", "ms"),
	lower("bench.unixbench_ms", "ms"),
	lower("bench.attestation_ms", "ms"),
	lower("bench.storage_ms", "ms"),
	lower("minidb.speedtest_ms", "ms"),
	lower("minidb.durable_speedtest_ms", "ms"),
	lower("mlinfer.classify_ms", "ms"),

	lower("attest.tdx_attest_wall_ms", "ms"),
	lower("attest.tdx_verify_cold_wall_ms", "ms"),
	lower("attest.tdx_verify_cached_wall_ms", "ms"),
	lower("attest.snp_verify_wall_ms", "ms"),
	lower("attest.tdx_check_cold_virtual_ms", "ms"),
	lower("attest.tdx_check_cached_virtual_ms", "ms"),

	lower("obs.counter_inc_ns", "ns"),
	lower("obs.histogram_observe_ns", "ns"),
	lower("obs.recorder_record_ns", "ns"),
	lower("obs.snapshot_us", "us"),
	lower("obs.merge_us", "us"),
	lower("obs.spill_flush_us", "us"),
	lower("slo.evaluate_us", "us"),

	lower("wal.put_us", "us"),
	lower("wal.put_sync_us", "us"),
	lower("wal.get_us", "us"),
	higher("wal.recovery_mb_per_s", "MiB/s"),
	lower("wal.compact_ms", "ms"),
	lower("wal.write_amp", "ratio"),

	higher("migrate.encode_mb_per_s", "MiB/s"),
	higher("migrate.receive_mb_per_s", "MiB/s"),
	lower("migrate.migrate_wall_ms", "ms"),
	lower("migrate.drain_wall_ms", "ms"),
	lower("migrate.drain_failed_invokes", "count"),

	higher("trace.attributed_share", "ratio"),
	lower("trace.overhead_share", "ratio"),
	lower("runtime.gc_pause_ms", "ms"),
	lower("runtime.gc_cycles", "count"),
	lower("runtime.goroutines_leaked", "count"),
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind the value, where one exists;
	// only the -json file and the text table carry it.
	N int `json:"n,omitempty"`
}

// metricSet collects a run's values by metric name.
type metricSet map[string]metricValue

// set records a value under a declared metric name; an undeclared name
// is a bug in the benchmark, so it panics.
func (m metricSet) set(specs []metricSpec, name string, v float64, n int) {
	for _, s := range specs {
		if s.Name == name {
			m[name] = metricValue{Value: v, Unit: s.Unit, N: n}
			return
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// runResult is what one workload run reports.
type runResult struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Traced    bool      `json:"traced"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
	// Extra holds readings outside the run's declared list (the other
	// list's metrics a run measured anyway); text and -json only.
	Extra metricSet `json:"extra,omitempty"`
	// Notes are verification failures and findings, one per line.
	Notes []string `json:"notes,omitempty"`
}

// contractLine is the last stdout line of a run: exactly the keys the
// benchmark contract names.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// complete fills every declared metric the run left unset with 0 (a
// layer the workload does not cross) and rejects non-finite values,
// which JSON cannot carry.
func (r *runResult) complete(specs []metricSpec) error {
	for _, s := range specs {
		v, ok := r.Metrics[s.Name]
		if !ok {
			r.Metrics[s.Name] = metricValue{Unit: s.Unit}
			continue
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is not finite (%v)", s.Name, v.Value)
		}
	}
	return nil
}

// writeContractLine prints the run's one-line JSON result.
func (r *runResult) writeContractLine(w io.Writer) error {
	line := contractLine{
		Correct:   r.Correct,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   make(map[string]contractMetric, len(r.Metrics)),
	}
	for name, v := range r.Metrics {
		line.Metrics[name] = contractMetric{Value: v.Value, Unit: v.Unit}
	}
	blob, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}

// writeTable prints every metric by name with unit and sample count.
func (r *runResult) writeTable(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (seed %d, %s): attempted %d, failed %d, correct %v\n",
		r.Workload, r.Seed, mode, r.Attempted, r.Failed, r.Correct)
	printSet := func(title string, set metricSet) {
		if len(set) == 0 {
			return
		}
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "-- %s\n", title)
		for _, n := range names {
			v := set[n]
			if v.N > 0 {
				fmt.Fprintf(w, "%-40s %16.4f %-6s n=%d\n", n, v.Value, v.Unit, v.N)
			} else {
				fmt.Fprintf(w, "%-40s %16.4f %s\n", n, v.Value, v.Unit)
			}
		}
	}
	printSet("metrics", r.Metrics)
	printSet("also measured", r.Extra)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// manifest is BENCHMARK.json: how to run the benchmark and what it
// reports.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// writeManifest prints BENCHMARK.json.
func writeManifest(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEndSpecs,
		PerLayer:   perLayerSpecs,
	})
}
