package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"confbench/internal/api"
	"confbench/internal/slo"
)

// cmdAlerts prints the deployment's SLO plane: every objective's
// state, burn rates, and remaining error budget, followed by the
// alert timeline (state transitions with trace attribution), which
// survives gateway restarts via the telemetry spill.
func cmdAlerts(ctx context.Context, client *api.Client, args []string) error {
	fs := flag.NewFlagSet("alerts", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "print the raw JSON status and timeline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	statuses, err := client.SLOStatus(ctx)
	if err != nil {
		return err
	}
	timeline, err := client.Alerts(ctx)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]any{"objectives": statuses, "alerts": timeline})
	}
	fmt.Print(slo.Render(statuses, timeline))
	return nil
}
