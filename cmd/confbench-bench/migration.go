package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"confbench"
	"confbench/internal/meter"
	"confbench/internal/obs"
	"confbench/internal/tee"
)

// migrationRow is one platform's live-migration comparison: the cold
// boot a failed-over guest would pay, the warm restore a pool hit
// pays, and the blackout a live migration actually costs — plus the
// drain's transfer volume and its priced cost under the TEE's cost
// model.
type migrationRow struct {
	Kind      tee.Kind
	ColdBoot  time.Duration
	WarmBoot  time.Duration
	Downtime  time.Duration
	Migrated  int
	Resumes   int
	Bytes     int64
	XferCost  time.Duration
	PostDrain time.Duration
}

// migrationReport boots a two-hosts-per-TEE warm-pooled cluster,
// drains the first host of each platform mid-service (live-migrating
// its serving and warm guests to the surviving host), and renders the
// downtime-vs-cold-boot-vs-warm-restore comparison. The transfer is
// priced through the platform's cost model as bounce-buffered I/O on
// the surviving secure guest. Everything reported is virtual time or
// deterministic counters, so the same seed yields a bit-identical
// report.
func migrationReport(ctx context.Context, seed int64, memMB int) (string, []migrationRow, error) {
	const fn = "migration-cpustress"
	cluster, err := warmBed(ctx, seed, memMB, 2, fn)
	if err != nil {
		return "", nil, err
	}
	defer cluster.Close()
	client := cluster.Client()

	var rows []migrationRow
	for _, kind := range cluster.Kinds() {
		backend, err := cluster.Backend(kind)
		if err != nil {
			return "", nil, err
		}
		// Cold probe: what a kill-and-reboot failover would cost.
		row := migrationRow{Kind: kind}
		if row.ColdBoot, err = coldProbe(cluster, kind, memMB); err != nil {
			return "", nil, err
		}

		// Warm restore: what a pool hit on the surviving host costs.
		pair, err := cluster.Pair(kind)
		if err != nil {
			return "", nil, err
		}
		row.WarmBoot = pair.Secure.Guest().BootCost()

		// Drain the platform's first host while the deployment serves.
		report, err := cluster.DrainHost(ctx, string(kind)+"-host")
		if err != nil {
			return "", nil, fmt.Errorf("drain (%s): %w", kind, err)
		}
		row.Migrated = len(report.Migrations)
		for i, m := range report.Migrations {
			if i == 0 {
				// The serving guest's blackout is the headline number.
				row.Downtime = time.Duration(m.DowntimeNs)
			}
			row.Resumes += m.Resumes
			row.Bytes += m.TransferredBytes
		}

		// Service check + transfer pricing on the surviving host: the
		// streamed bytes cross the secure boundary like bounce-buffered
		// writes, so the TEE's cost model prices the drain's I/O bill.
		resp, err := client.Invoke(ctx, confbench.InvokeRequest{
			Function: fn, Secure: true, TEE: kind, Scale: 1,
		})
		if err != nil {
			return "", nil, fmt.Errorf("post-drain invoke (%s): %w", kind, err)
		}
		row.PostDrain = resp.Wall()
		survivor, err := cluster.Pair(kind)
		if err != nil {
			return "", nil, err
		}
		u := meter.Usage{meter.IOWriteBytes: uint64(row.Bytes)}
		charge := survivor.Secure.Guest().Price(u, backend.HostProfile().Cost(u), tee.NewKey("drain-transfer"))
		row.XferCost = charge.Total
		rows = append(rows, row)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "=== Live-migration benchmark (seed %d, %d MiB guests) ===\n", seed, memMB)
	fmt.Fprintf(&b, "%-8s %14s %14s %14s %10s %9s %9s %12s %14s\n",
		"tee", "cold boot", "warm restore", "migrate down", "down/cold", "migrated", "resumes", "bytes", "xfer cost")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %14v %14v %14v %9.3fx %9d %9d %12d %14v\n",
			r.Kind, r.ColdBoot, r.WarmBoot, r.Downtime,
			float64(r.Downtime)/float64(r.ColdBoot),
			r.Migrated, r.Resumes, r.Bytes, r.XferCost)
	}

	snap := cluster.Obs().Snapshot()
	fmt.Fprintf(&b, "\nmigration metrics:\n")
	for _, kind := range []tee.Kind{tee.KindCCA, tee.KindSEV, tee.KindTDX} {
		k := string(kind)
		migrated := snap.Counters[obs.MetricID("confbench_migrations_total", "kind", k, "outcome", "migrated")]
		rolled := snap.Counters[obs.MetricID("confbench_migrations_total", "kind", k, "outcome", "rolled_back")]
		bytes := snap.Counters[obs.MetricID("confbench_migration_bytes_total", "kind", k)]
		fmt.Fprintf(&b, "  %-8s migrated %d  rolled back %d  stream bytes %d\n", kind, migrated, rolled, bytes)
	}
	return b.String(), rows, nil
}
