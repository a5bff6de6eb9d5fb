package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"confbench/internal/api"
	"confbench/internal/tee"
	"confbench/internal/workloads"
)

func listBytes(t *testing.T, workload string, seed int64) []byte {
	t.Helper()
	catalog := workloads.Default()
	var list []request
	var err error
	switch workload {
	case wlRelaySmall:
		list = relaySmallRequests()
	case wlTierMixed:
		list, err = tierMixedRequests(catalog, seed)
	case wlGuestMix:
		list, err = guestMixRequests(catalog, seed)
	}
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(list)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestRequestListsFollowTheSeed(t *testing.T) {
	for _, w := range []string{wlRelaySmall, wlTierMixed, wlGuestMix} {
		if !bytes.Equal(listBytes(t, w, 7), listBytes(t, w, 7)) {
			t.Errorf("%s: same seed gave different request lists", w)
		}
	}
	for _, w := range []string{wlTierMixed, wlGuestMix} {
		if bytes.Equal(listBytes(t, w, 7), listBytes(t, w, 8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request list", w)
		}
	}
}

func TestGuestMixCoversEveryShapeOnce(t *testing.T) {
	catalog := workloads.Default()
	list, err := guestMixRequests(catalog, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := catalog.Len() * 7 * 3 * 2; len(list) != want {
		t.Fatalf("%d shapes, want %d", len(list), want)
	}
	seen := make(map[shapeKey]bool)
	for _, r := range list {
		k := shapeKey{r.Function, r.TEE, r.Secure}
		if seen[k] {
			t.Fatalf("shape %+v listed twice", k)
		}
		seen[k] = true
	}
	warm := guestMixWarmup(list)
	if len(warm) != catalog.Len()*7 {
		t.Errorf("warm-up has %d requests, want one per function (%d)", len(warm), catalog.Len()*7)
	}
	vms := make(map[shapeKey]bool)
	for _, r := range warm {
		vms[shapeKey{"", r.TEE, r.Secure}] = true
	}
	if len(vms) != 6 {
		t.Errorf("warm-up touches %d VMs, want all 6", len(vms))
	}
}

func TestCheckReply(t *testing.T) {
	r := request{Function: "fib-go", Workload: "fib", Language: "go", Scale: 5, TEE: tee.KindSEV, Secure: true}
	exp, err := computeExpectations(workloads.Default(), []request{r})
	if err != nil {
		t.Fatal(err)
	}
	good := api.InvokeResponse{Output: exp[expectKey{"fib", "go", 5}], WallNs: 1, Secure: true, Platform: tee.KindSEV, Host: "sev-snp-host-2"}
	if p := exp.check(r, &good); p != "" {
		t.Errorf("good reply rejected: %s", p)
	}
	for name, mutate := range map[string]func(*api.InvokeResponse){
		"output":   func(x *api.InvokeResponse) { x.Output += "!" },
		"platform": func(x *api.InvokeResponse) { x.Platform = tee.KindTDX },
		"secure":   func(x *api.InvokeResponse) { x.Secure = false },
		"wall":     func(x *api.InvokeResponse) { x.WallNs = 0 },
		"host":     func(x *api.InvokeResponse) { x.Host = "tdx-host" },
	} {
		bad := good
		mutate(&bad)
		if exp.check(r, &bad) == "" {
			t.Errorf("reply with wrong %s accepted", name)
		}
	}
	normal := r
	normal.Secure = false
	reply := good
	reply.Secure, reply.Platform = false, tee.KindNone
	if p := exp.check(normal, &reply); p != "" {
		t.Errorf("normal-VM reply rejected: %s", p)
	}
}
