package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"confbench"
	"confbench/internal/obs"
	"confbench/internal/tee"
)

// coldstartRow is one platform's cold-vs-warm comparison: boot costs
// for a cold measured launch and a warm restore, plus one secure and
// one normal invoke wall for the secure/normal overhead context.
type coldstartRow struct {
	Kind       tee.Kind
	ColdBoot   time.Duration
	WarmBoot   time.Duration
	WallSecure time.Duration
	WallNormal time.Duration
}

// coldstartReport boots a warm-pooled cluster, probes each platform's
// cold boot cost against the warm pool's restore cost, and renders the
// comparison plus the warm-path metrics. Everything reported is
// virtual time or deterministic counters, so the same seed yields a
// bit-identical report.
func coldstartReport(ctx context.Context, seed int64, memMB int) (string, []coldstartRow, error) {
	const fn = "coldstart-cpustress"
	cluster, err := warmBed(ctx, seed, memMB, 1, fn)
	if err != nil {
		return "", nil, err
	}
	defer cluster.Close()
	client := cluster.Client()

	var rows []coldstartRow
	for _, kind := range cluster.Kinds() {
		pair, err := cluster.Pair(kind)
		if err != nil {
			return "", nil, err
		}
		row := coldstartRow{Kind: kind, WarmBoot: pair.Secure.Guest().BootCost()}

		if row.ColdBoot, err = coldProbe(cluster, kind, memMB); err != nil {
			return "", nil, err
		}

		for _, secure := range []bool{true, false} {
			resp, err := client.Invoke(ctx, confbench.InvokeRequest{
				Function: fn, Secure: secure, TEE: kind, Scale: 1,
			})
			if err != nil {
				return "", nil, fmt.Errorf("invoke (%s secure=%v): %w", kind, secure, err)
			}
			if secure {
				row.WallSecure = resp.Wall()
			} else {
				row.WallNormal = resp.Wall()
			}
		}
		rows = append(rows, row)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "=== Cold-start benchmark (seed %d, %d MiB guests) ===\n", seed, memMB)
	fmt.Fprintf(&b, "%-8s %14s %14s %10s %14s %14s %8s\n",
		"tee", "cold boot", "warm boot", "cold/warm", "secure wall", "normal wall", "ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %14v %14v %9.1fx %14v %14v %7.2fx\n",
			r.Kind, r.ColdBoot, r.WarmBoot,
			float64(r.ColdBoot)/float64(r.WarmBoot),
			r.WallSecure, r.WallNormal,
			float64(r.WallSecure)/float64(r.WallNormal))
	}

	snap := cluster.Obs().Snapshot()
	fmt.Fprintf(&b, "\nwarm-path metrics:\n")
	for _, kind := range cluster.Kinds() {
		hits := snap.Counters[obs.MetricID("confbench_warm_hits_total", "tee", string(kind))]
		misses := snap.Counters[obs.MetricID("confbench_warm_misses_total", "tee", string(kind))]
		restores := snap.Counters[obs.MetricID("confbench_tee_guest_restores_total", "tee", string(kind))]
		fmt.Fprintf(&b, "  %-8s warm hits %d  misses %d  restores %d\n", kind, hits, misses, restores)
	}
	fmt.Fprintf(&b, "  snapshot cache: %d bytes held\n",
		snap.Gauges[obs.MetricID("confbench_snapshot_cache_bytes")])
	return b.String(), rows, nil
}
