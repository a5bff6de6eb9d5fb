package confbench_test

import (
	"context"
	"fmt"
	"log"

	"confbench"
	"confbench/internal/api"
	"confbench/internal/faas"
	"confbench/internal/tee"
)

// ExampleNew walks the paper's §III-C example run: upload a
// function to the gateway, request its execution in a TDX trusted
// domain, and receive the result back — here with the function's
// deterministic output.
func ExampleNew() {
	cluster, err := confbench.New(confbench.WithTEEs(tee.KindTDX), confbench.WithGuestMemoryMB(8))
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	client := cluster.Client()
	// Step 1: the user uploads their function to the gateway.
	err = client.Upload(context.Background(), faas.Function{Name: "fib", Language: "go", Workload: "fib"})
	if err != nil {
		log.Fatal(err)
	}
	// Steps 2–5: request execution in a confidential VM on TDX; the
	// gateway routes to the host, the host relays to the TD, and the
	// result comes back with perf metrics piggybacked.
	resp, err := client.Invoke(context.Background(), api.InvokeRequest{
		Function: "fib", Secure: true, TEE: tee.KindTDX, Scale: 12,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(resp.Output, resp.Secure, resp.Platform)
	// Output: fib(12)=144 true tdx
}
