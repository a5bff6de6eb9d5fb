// Command confbench-host runs one TEE-enabled host agent: it boots the
// secure/normal VM pair for the selected platform, exposes both VMs
// through socat-style relays, and prints the endpoint list the gateway
// needs (as JSON on stdout).
//
// Usage:
//
//	confbench-host -tee tdx|sev-snp|cca [-name NAME] [-memory MB]
//	               [-warm-pool N [-snapshot-cache-mb MB]]
//
// The process serves until interrupted.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"confbench/internal/hostagent"
	"confbench/internal/profiler"
	"confbench/internal/tee"
	"confbench/internal/tee/cca"
	"confbench/internal/tee/sev"
	"confbench/internal/tee/tdx"
	"confbench/internal/vm"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "confbench-host:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("confbench-host", flag.ContinueOnError)
	teeFlag := fs.String("tee", "tdx", "TEE platform: tdx, sev-snp, cca")
	name := fs.String("name", "", "host name (default <tee>-host)")
	memory := fs.Int("memory", 64, "guest memory in MiB")
	seed := fs.Int64("seed", 1, "deterministic noise seed")
	warmPool := fs.Int("warm-pool", 0, "serve the secure VM from a prewarmed guest pool with this high watermark")
	cacheMB := fs.Int("snapshot-cache-mb", 256, "snapshot image cache budget in MiB (with -warm-pool)")
	shutdownTimeout := fs.Duration("shutdown-timeout", 5*time.Second, "deadline for draining the warm pool on SIGTERM (idle guests are destroyed even when it expires)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pprofAddr != "" {
		url, stopProf, err := profiler.Enable(*pprofAddr)
		if err != nil {
			return err
		}
		defer stopProf()
		fmt.Fprintln(os.Stderr, "pprof serving", url)
	}

	backend, err := newBackend(tee.Kind(*teeFlag), *seed)
	if err != nil {
		return err
	}
	var cache *vm.SnapshotCache
	if *warmPool > 0 {
		cache = vm.NewSnapshotCache(int64(*cacheMB)<<20, nil)
	}
	agent, err := hostagent.NewAgent(hostagent.AgentConfig{
		Name:     *name,
		Backend:  backend,
		Guest:    tee.GuestConfig{MemoryMB: *memory},
		WarmPool: *warmPool,
		Cache:    cache,
	})
	if err != nil {
		return err
	}
	defer agent.Close()

	fmt.Fprintf(os.Stderr, "host %q up: %s\n", agent.Name(), backend.Name())
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(agent.Endpoints()); err != nil {
		return err
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "shutting down")
	// Drain the warm pool under a deadline before the general teardown:
	// an impatient exit must not leak warm guests, and Shutdown
	// guarantees the idle set is destroyed even when the refill
	// goroutine outlives the timeout.
	if pool := agent.Pool(); pool != nil {
		ctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		if err := pool.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "warm pool shutdown:", err)
		}
	}
	return nil
}

func newBackend(kind tee.Kind, seed int64) (tee.Backend, error) {
	switch kind {
	case tee.KindTDX:
		return tdx.NewBackend(tdx.Options{Seed: seed})
	case tee.KindSEV:
		return sev.NewBackend(sev.Options{Seed: seed})
	case tee.KindCCA:
		return cca.NewBackend(cca.Options{Seed: seed})
	default:
		return nil, fmt.Errorf("unknown TEE %q (want tdx, sev-snp, or cca)", kind)
	}
}
