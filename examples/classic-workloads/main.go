// Classic workloads: run the paper's three non-FaaS experiments —
// confidential ML inference (MobileNet-style), the confidential DBMS
// stress test (speedtest1-style), and the UnixBench OS suite — on
// every deployed TEE, printing the Fig. 3 / §IV-C / Fig. 4 views.
//
//	go run ./examples/classic-workloads [-quick]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"confbench"
	"confbench/internal/bench"
)

func main() {
	quick := flag.Bool("quick", true, "CI-sized run")
	flag.Parse()
	if err := run(*quick); err != nil {
		log.Fatal(err)
	}
}

func run(quick bool) error {
	ctx := context.Background()
	cluster, err := confbench.New(confbench.WithGuestMemoryMB(16))
	if err != nil {
		return err
	}
	defer cluster.Close()

	images, dbSize, ubScale := 40, 100, 1.0
	if quick {
		images, dbSize, ubScale = 8, 20, 0.2
	}

	var mls []bench.MLResult
	var dbs []bench.DBMSResult
	var ubs []bench.UnixBenchResult
	for _, kind := range cluster.Kinds() {
		pair, err := cluster.Pair(kind)
		if err != nil {
			return err
		}
		ml, err := bench.ML(ctx, pair, bench.MLOptions{Images: images})
		if err != nil {
			return fmt.Errorf("ml on %s: %w", kind, err)
		}
		mls = append(mls, ml)

		db, err := bench.DBMS(ctx, pair, bench.DBMSOptions{Size: dbSize})
		if err != nil {
			return fmt.Errorf("dbms on %s: %w", kind, err)
		}
		dbs = append(dbs, db)

		ub, err := bench.UnixBench(ctx, pair, bench.UnixBenchOptions{Scale: ubScale})
		if err != nil {
			return fmt.Errorf("unixbench on %s: %w", kind, err)
		}
		ubs = append(ubs, ub)
	}

	fmt.Println(bench.RenderML(mls))
	fmt.Println(bench.RenderDBMS(dbs))
	fmt.Println(bench.RenderUnixBench(ubs))

	fmt.Println("headline (paper §IV-C):")
	for i, kind := range cluster.Kinds() {
		fmt.Printf("  %-8s ML ratio %.2f | DBMS avg %.2f (max %.2f) | UnixBench %.2f\n",
			kind, mls[i].Times.Ratio(), dbs[i].AvgRatio, dbs[i].MaxRatio, ubs[i].TimeRatio)
	}
	return nil
}
