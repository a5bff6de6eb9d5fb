package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"confbench/internal/api"
	"confbench/internal/faas"
	"confbench/internal/faas/langs"
	"confbench/internal/meter"
	"confbench/internal/tee"
	"confbench/internal/workloads"
)

// request is one generated invoke: the function it names (uploaded
// under Function), the arguments, and everything needed to check the
// reply. The program under test only ever sees generated requests.
type request struct {
	Function string   `json:"function"`
	Workload string   `json:"workload"`
	Language string   `json:"language"`
	Scale    int      `json:"scale"`
	TEE      tee.Kind `json:"tee"`
	Secure   bool     `json:"secure"`
	// Tenant stamps the request at the HTTP edge (tier-mixed only).
	Tenant string `json:"tenant,omitempty"`
}

// invoke is the wire form of the request.
func (r request) invoke(trace bool) api.InvokeRequest {
	return api.InvokeRequest{Function: r.Function, Scale: r.Scale, Secure: r.Secure, TEE: r.TEE, Trace: trace}
}

// function is the definition uploaded for the request.
func (r request) function() faas.Function {
	return faas.Function{
		Name:     r.Function,
		Language: r.Language,
		Workload: r.Workload,
		Source:   []byte("// " + r.Workload + " in " + r.Language),
	}
}

var allKinds = []tee.Kind{tee.KindTDX, tee.KindSEV, tee.KindCCA}

// benchScale is the scale the benchmark runs a workload at: a quarter
// of the paper's argument, so the full shape list cycles several times
// in one run.
func benchScale(w workloads.Workload) int {
	if s := w.DefaultScale / 4; s > 1 {
		return s
	}
	return 1
}

// relaySmallRequests is the relay-small list: the same tiny function
// every time, so the seed only reaches the cluster's pricing noise.
func relaySmallRequests() []request {
	return []request{{
		Function: "fib", Workload: "fib", Language: "go", Scale: 5, TEE: tee.KindSEV,
	}}
}

// tierMixedTenants are the eight tenants tier-mixed spreads load over.
var tierMixedTenants = []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}

// tierMixedListLen is the length of the tier-mixed request list, which
// clients walk cyclically.
const tierMixedListLen = 4096

// tierMixedFunctions are the 16 tiny functions of tier-mixed: four
// workloads whose Run costs a few microseconds, in four runtimes.
func tierMixedFunctions(catalog *workloads.Registry) ([]request, error) {
	var out []request
	for _, w := range []string{"fib", "ack", "queens", "fannkuch"} {
		wl, err := catalog.Lookup(w)
		if err != nil {
			return nil, err
		}
		for _, l := range []string{"go", "python", "lua", "wasm"} {
			out = append(out, request{Function: w + "-" + l, Workload: w, Language: l, Scale: benchScale(wl)})
		}
	}
	return out, nil
}

// tierMixedRequests draws the seeded tier-mixed list: function, tenant,
// TEE and VM type each uniform.
func tierMixedRequests(catalog *workloads.Registry, seed int64) ([]request, error) {
	fns, err := tierMixedFunctions(catalog)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]request, tierMixedListLen)
	for i := range out {
		r := fns[rng.Intn(len(fns))]
		r.Tenant = tierMixedTenants[rng.Intn(len(tierMixedTenants))]
		r.TEE = allKinds[rng.Intn(len(allKinds))]
		r.Secure = rng.Intn(2) == 0
		out[i] = r
	}
	return out, nil
}

// guestMixShapes lists all workload x language x TEE x {secure, normal}
// shapes in catalog order.
func guestMixShapes(catalog *workloads.Registry) ([]request, error) {
	var out []request
	for _, w := range catalog.Names() {
		wl, err := catalog.Lookup(w)
		if err != nil {
			return nil, err
		}
		for _, l := range langs.Names() {
			for _, k := range allKinds {
				for _, secure := range []bool{true, false} {
					out = append(out, request{
						Function: w + "-" + l, Workload: w, Language: l,
						Scale: benchScale(wl), TEE: k, Secure: secure,
					})
				}
			}
		}
	}
	return out, nil
}

// guestMixRequests is the seeded shuffle of every shape.
func guestMixRequests(catalog *workloads.Registry, seed int64) ([]request, error) {
	out, err := guestMixShapes(catalog)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// guestMixWarmup picks one request per (workload, language) pair out of
// the shuffled list, rotating TEE and VM type so all six VMs are
// touched: the same set of launcher paths whatever the seed, so set-up
// time does not depend on which heavy shapes a seed happens to draw.
func guestMixWarmup(list []request) []request {
	seen := make(map[string]bool)
	var out []request
	for _, r := range list {
		if seen[r.Function] {
			continue
		}
		seen[r.Function] = true
		r.TEE = allKinds[len(out)%len(allKinds)]
		r.Secure = (len(out)/len(allKinds))%2 == 0
		out = append(out, r)
	}
	return out
}

// functionsOf returns the distinct function definitions a list needs
// uploaded, in first-use order.
func functionsOf(list []request) []faas.Function {
	seen := make(map[string]bool)
	var out []faas.Function
	for _, r := range list {
		if !seen[r.Function] {
			seen[r.Function] = true
			out = append(out, r.function())
		}
	}
	return out
}

// expectations holds, per (workload, language, scale), the output the
// benchmark computed once by running the workload itself, outside the
// pipeline it then measures.
type expectations map[expectKey]string

type expectKey struct {
	workload, language string
	scale              int
}

func (k expectKey) String() string { return fmt.Sprintf("%s/%s@%d", k.workload, k.language, k.scale) }

// computeExpectations runs every distinct shape of list once, directly:
// Workload.Run for the interpreted runtimes, and the wasm launcher for
// workloads that ship bytecode (its output names the exported function
// and argument, which only the launcher knows).
func computeExpectations(catalog *workloads.Registry, list []request) (expectations, error) {
	wasm, err := langs.NewWasmLauncher(tee.KindTDX, catalog)
	if err != nil {
		return nil, err
	}
	exp := make(expectations)
	for _, r := range list {
		key := expectKey{r.Workload, r.Language, r.Scale}
		if _, done := exp[key]; done {
			continue
		}
		if r.Language == langs.LangWasm && wasm.HasBytecode(r.Workload) {
			res, err := wasm.Launch(context.Background(), r.function(), r.Scale)
			if err != nil {
				return nil, fmt.Errorf("expect %s: %w", key, err)
			}
			exp[key] = res.Output
			continue
		}
		wl, err := catalog.Lookup(r.Workload)
		if err != nil {
			return nil, err
		}
		out, err := wl.Run(meter.NewContext(), r.Scale)
		if err != nil {
			return nil, fmt.Errorf("expect %s: %w", key, err)
		}
		exp[key] = out
	}
	return exp, nil
}

// check verifies one reply against its request: the output is the one
// computed directly, the platform and VM type echo the request (a
// normal VM reports platform "none", so there the serving host's name
// must carry the requested TEE), and the guest priced a positive
// virtual time. It returns "" when the reply is right, else what was
// wrong.
func (e expectations) check(r request, resp *api.InvokeResponse) string {
	key := expectKey{r.Workload, r.Language, r.Scale}
	want, ok := e[key]
	platform := r.TEE
	if !r.Secure {
		platform = tee.KindNone
	}
	switch {
	case !ok:
		return "no expectation for " + key.String()
	case resp.Output != want:
		return fmt.Sprintf("%s: output %q, want %q", r.Function, resp.Output, want)
	case resp.Platform != platform:
		return fmt.Sprintf("%s: platform %q, want %q", r.Function, resp.Platform, platform)
	case !strings.HasPrefix(resp.Host, string(r.TEE)):
		return fmt.Sprintf("%s: served by host %q, want a %s host", r.Function, resp.Host, r.TEE)
	case resp.Secure != r.Secure:
		return fmt.Sprintf("%s: secure=%v, want %v", r.Function, resp.Secure, r.Secure)
	case resp.WallNs <= 0:
		return fmt.Sprintf("%s: wall_ns=%d", r.Function, resp.WallNs)
	}
	return ""
}
