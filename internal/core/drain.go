package core

import (
	"context"
	"fmt"
	"time"

	"confbench/internal/api"
	"confbench/internal/cberr"
	"confbench/internal/hostagent"
	"confbench/internal/migrate"
	"confbench/internal/tee"
)

// drainPollInterval paces the in-flight-to-zero wait after quiescing.
const drainPollInterval = time.Millisecond

// findAgent locates a host agent by name.
func (c *Cluster) findAgent(host string) (tee.Kind, int, *hostagent.Agent) {
	for kind, as := range c.agents {
		for i, a := range as {
			if a.Name() == host {
				return kind, i, a
			}
		}
	}
	return "", -1, nil
}

// DrainHost removes a host from the cluster without dropping its
// work: the host's endpoints are quiesced so new invokes route around
// it, in-flight invokes complete on the source, the serving secure
// guest and any warm-pool guests live-migrate to another host of the
// same kind behind the attestation gate, and only then does the host
// leave the ring and shut down. A failed migration (sever budget
// exhausted, tampered stream, cutover refusal) aborts the drain: the
// host is unquiesced and keeps serving, and the typed error reports
// why. When the deployment runs without warm pools there is nothing
// to carry over and the drain degrades to routing-only (quiesce,
// wait, remove, close).
func (c *Cluster) DrainHost(ctx context.Context, host string) (*api.DrainReport, error) {
	kind, idx, src := c.findAgent(host)
	if src == nil {
		return nil, cberr.Newf(cberr.CodeNotFound, cberr.LayerHost,
			"confbench: drain: unknown host %q", host)
	}
	peers := c.agents[kind]
	if len(peers) < 2 {
		return nil, cberr.Newf(cberr.CodeInvalid, cberr.LayerHost,
			"confbench: drain: %q is the last %s host", host, kind)
	}
	var dest *hostagent.Agent
	for i, a := range peers {
		if i != idx {
			dest = a
			break
		}
	}

	gws := c.gws // every gateway routes over the whole fleet
	quiesced := 0
	for i, gw := range gws {
		n := gw.QuiesceHost(host)
		if i == 0 {
			quiesced = n
		}
	}
	unquiesce := func() {
		for _, gw := range gws {
			gw.UnquiesceHost(host)
		}
	}
	// In-flight invokes drain on the source before anything moves.
	for {
		var inflight int64
		for _, gw := range gws {
			inflight += gw.HostInFlight(host)
		}
		if inflight == 0 {
			break
		}
		select {
		case <-ctx.Done():
			unquiesce()
			return nil, cberr.Wrap(cberr.CodeUnavailable, cberr.LayerHost,
				fmt.Errorf("confbench: drain %s: in-flight wait: %w", host, ctx.Err()))
		case <-time.After(drainPollInterval):
		}
	}

	report := &api.DrainReport{Host: host, TEE: string(kind), Quiesced: quiesced}

	// Live-migrate the serving secure guest plus the warm-pool idle
	// set to the destination. Without warm pools there is no pool on
	// either side and nothing survives the host anyway — routing-only.
	srcPool, destPool := src.Pool(), dest.Pool()
	if srcPool != nil && destPool != nil {
		mig, ok := c.backends[kind].(tee.Migrator)
		if !ok {
			unquiesce()
			return nil, cberr.Newf(cberr.CodeInternal, cberr.LayerHost,
				"confbench: drain: %s backend does not migrate", kind)
		}
		eng := migrate.NewEngine(migrate.Config{Obs: c.obsreg, Faults: c.cfg.Faults})
		guests := append([]tee.Guest{src.Pair().Secure.Guest()}, srcPool.DrainIdle()...)
		for _, g := range guests {
			res, err := eng.Migrate(migrate.Spec{
				Guest:      g,
				Source:     mig,
				Dest:       mig,
				DestConfig: tee.GuestConfig{Name: dest.Name(), MemoryMB: c.cfg.GuestMemoryMB},
				SourceHost: host,
				DestHost:   dest.Name(),
				// The destination's warm pool adopts the migrated guest;
				// a pool already at its high watermark discards it (the
				// same overflow rule Release applies), which is not a
				// migration failure.
				Cutover: func(ng tee.Guest) error {
					destPool.Adopt(ng)
					return nil
				},
			})
			report.Migrations = append(report.Migrations, api.MigrationSummary{
				Guest:            g.ID(),
				Outcome:          string(res.Outcome),
				DowntimeNs:       res.Downtime.Nanoseconds(),
				Resumes:          res.Resumes,
				TransferredBytes: res.Transferred,
			})
			if err != nil {
				// The source copy is still live: put the host back in
				// rotation instead of stranding a half-drained machine.
				unquiesce()
				return report, fmt.Errorf("confbench: drain %s: migrate %s: %w", host, g.ID(), err)
			}
		}
	} else {
		report.RoutingOnly = true
	}

	removed := 0
	for i, gw := range gws {
		n := gw.RemoveHost(host)
		if i == 0 {
			removed = n
		}
	}
	report.Removed = removed
	c.agents[kind] = append(peers[:idx:idx], peers[idx+1:]...)
	if err := src.Close(); err != nil {
		return report, fmt.Errorf("confbench: drain %s: close host: %w", host, err)
	}
	return report, nil
}
