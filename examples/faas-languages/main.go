// FaaS language comparison: run the paper's six named functions
// (cpustress, memstress, iostress, logging, factors, filesystem) in
// all seven language runtimes on one TEE, reproducing a slice of the
// Fig. 6 heatmap and showing how runtime weight shapes TEE overhead.
//
//	go run ./examples/faas-languages [-tee tdx|sev-snp|cca]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"confbench"
	"confbench/internal/bench"
	"confbench/internal/tee"
)

func main() {
	teeFlag := flag.String("tee", "tdx", "platform to compare on")
	trials := flag.Int("trials", 5, "trials per cell")
	flag.Parse()
	if err := run(tee.Kind(*teeFlag), *trials); err != nil {
		log.Fatal(err)
	}
}

func run(kind tee.Kind, trials int) error {
	ctx := context.Background()
	cluster, err := confbench.New(confbench.WithTEEs(kind), confbench.WithGuestMemoryMB(16))
	if err != nil {
		return err
	}
	defer cluster.Close()

	pair, err := cluster.Pair(kind)
	if err != nil {
		return err
	}
	res, err := bench.FaaS(ctx, pair, cluster.Catalog(), bench.FaaSOptions{
		Options: bench.Options{Trials: trials, ScaleDivisor: 4},
		Workloads: []string{
			"cpustress", "memstress", "iostress", "logging", "factors", "filesystem",
		},
	})
	if err != nil {
		return err
	}
	fmt.Print(bench.RenderHeatmap(res))

	// The paper's observation: heavyweight runtimes (Python, Node.js,
	// Ruby) apparently impose a heavier burden on TEE operation than
	// lightweight ones (Lua, LuaJIT, Go) — their boxed allocation and
	// GC traffic stress memory integrity checking. The effect lives in
	// the compute-bound cells (I/O cells are dominated by the shared
	// storage path and look alike across runtimes), so compare those.
	fmt.Println("\nper-runtime mean overhead over compute-bound cells:")
	for j, lang := range res.Languages {
		var sum float64
		var n int
		for i, w := range res.Workloads {
			if w == "cpustress" || w == "factors" {
				sum += res.Cells[i][j].Ratio
				n++
			}
		}
		fmt.Printf("  %-8s %.3f\n", lang, sum/float64(n))
	}
	return nil
}
