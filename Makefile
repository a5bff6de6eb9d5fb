GO ?= go

# Concurrency-sensitive packages: the bench Runner worker pool and what
# it runs N at a time when -workers > 1 (launcher bodies, the Wasm
# launcher's one mutex-guarded instance, the catalog workloads), the
# gateway (TEE pools, circuit breakers, load balancer, forwarding),
# the front tier (admission queues, shard breakers, async completion
# goroutines), the front-door server all three sit behind, the
# retrying HTTP client, the fault plane, the sharded
# metrics registry, the warm guest pool's refill goroutine, the
# live-migration engine's chunk-resume path, the SLO engine
# (evaluated from federation sweeps while handlers read its status),
# what that refill goroutine drives while a drain exports beside
# it: the shared TEE guest lifecycle and the snapshot cache, the
# scenario runner, whose goroutine-leak check and restart step close and
# re-boot whole deployments, the meter Context that fan-out workloads
# share, the Wasm instance, whose frame stack is mutable state
# behind the launcher's mutex, and the attestation verifiers, whose
# collateral fetch shares the REST client's process-wide pool.
RACE_PKGS = ./internal/attest/... ./internal/meter/... ./internal/wasmvm/... ./internal/drill/... ./internal/tee/... ./internal/vm/... ./internal/bench/... ./internal/faas/... ./internal/workloads/... ./internal/gateway/... ./internal/fronttier/... ./internal/door/... ./internal/api/... ./internal/obs/... ./internal/faultplane/... ./internal/hostagent/... ./internal/wire/... ./internal/wal/... ./internal/migrate/... ./internal/slo/...

# Packages held to the coverage floor: the statistics toolkit every
# reported number flows through, the meter and machine model every
# price starts from, the gateway dispatch path, the
# sharded front tier, the front-door server, the warm-pool/snapshot-cache subsystem, the
# telemetry plane, the persistence plane's log, the live-migration
# engine, the SLO engine, the scenario runner every drill goes
# through, and the SQL engine behind the DBMS figures.
COVER_FLOOR ?= 70
COVER_PKGS = ./internal/drill ./internal/stats ./internal/meter ./internal/cpumodel ./internal/gateway ./internal/fronttier ./internal/door ./internal/hostagent ./internal/vm ./internal/obs ./internal/wire ./internal/wal ./internal/migrate ./internal/slo ./internal/minidb

.PHONY: build fmt test vet race cover cover-floor fuzz-smoke benchmark-check scenarios lint-metrics lint-routes examples bench-guest bench-ab verify

build:
	$(GO) build ./...

# Every Go file in the tree, the benchmark module's too, is gofmt-clean:
# `gofmt -l` lists the ones that are not, and the target fails on any.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The second line repeats the binary carrier's writer, worker, lifecycle,
# waiter and connection-pool tests, and the third the REST client's
# idle-connection pool tests: the most schedule-sensitive code in the
# tree, each well under a second. The fourth repeats the front tier's tests under a
# two-minute timeout, so a test that parks invokes in a fake shard and
# then fails cannot hang CI for the ten-minute default.
race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -count=5 -run 'TestWriter|TestWorker|TestLifecycle|TestWaiter|TestPool' ./internal/wire
	$(GO) test -race -count=5 -run 'TestPool' ./internal/api
	$(GO) test -run 'TestTier|TestResultStore' -count=20 -timeout 120s ./internal/fronttier

# Per-package coverage report over the whole module.
cover:
	$(GO) test -cover ./...

# Enforce the coverage floor on the load-bearing packages. Each
# package is checked individually so one over-covered package cannot
# mask an under-covered one.
cover-floor:
	@for pkg in $(COVER_PKGS); do \
		pct=$$($(GO) test -cover $$pkg | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "FAIL $$pkg: no coverage output"; exit 1; fi; \
		ok=$$(awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN { print (p >= f) ? 1 : 0 }'); \
		if [ "$$ok" != "1" ]; then echo "FAIL $$pkg: coverage $$pct% below floor $(COVER_FLOOR)%"; exit 1; fi; \
		echo "ok   $$pkg coverage $$pct% (floor $(COVER_FLOOR)%)"; \
	done

# Short fuzz pass over every harness, seeded by the committed corpora
# in testdata/fuzz. Go permits one -fuzz pattern per invocation, hence
# one run per target.
fuzz-smoke:
	$(GO) test -run xxx -fuzz 'FuzzParseSpec$$' -fuzztime 5s ./internal/faultplane
	$(GO) test -run xxx -fuzz 'FuzzParseSpecs$$' -fuzztime 5s ./internal/faultplane
	$(GO) test -run xxx -fuzz 'FuzzSplit$$' -fuzztime 5s ./internal/colonspec
	$(GO) test -run xxx -fuzz 'FuzzParseScenario$$' -fuzztime 5s ./internal/drill
	$(GO) test -run xxx -fuzz 'FuzzWireDecode$$' -fuzztime 5s ./internal/api
	$(GO) test -run xxx -fuzz 'FuzzEdgeJSON$$' -fuzztime 5s ./internal/api
	$(GO) test -run xxx -fuzz 'FuzzEdgeRequest$$' -fuzztime 5s ./internal/api
	$(GO) test -run xxx -fuzz 'FuzzWireFrame$$' -fuzztime 5s ./internal/wire
	$(GO) test -run xxx -fuzz 'FuzzRecovery$$' -fuzztime 5s ./internal/wal
	$(GO) test -run xxx -fuzz 'FuzzMigrationStream$$' -fuzztime 5s ./internal/migrate
	$(GO) test -run xxx -fuzz 'FuzzParse$$' -fuzztime 5s ./internal/minidb
	$(GO) test -run xxx -fuzz 'FuzzPrepare$$' -fuzztime 5s ./internal/minidb
	$(GO) test -run xxx -fuzz 'FuzzWasmModule$$' -fuzztime 5s ./internal/wasmvm

# Every cluster drill, as data: each scenarios/*.spec is driven by the
# one runner (internal/drill) through the table in scenarios_test.go —
# twice per carrier, the whole report compared byte for byte — with
# zero unmarked client-visible failures, the wanted SLO verdict, no
# goroutine outliving Close, and that scenario's own assertions (open
# breakers, retries = injected faults, the warn → firing → resolved →
# ok cycle on the sweep instants, the timeline surviving a restart, 503
# + Retry-After for the greedy tenant, single-gateway and two-shard
# plane readings equal). Under the race detector: the breaker/retry
# path, the tier's admission queues and the drain's quiesce all run
# while invokes are in flight. `confbench-bench -scenario FILE` runs one
# spec by hand.
scenarios:
	$(GO) test -race -run TestScenarios -count=1 .

# Static metric-naming lint: every literal metric family registered in
# the tree must start with confbench_, counters must end in _total,
# histograms must end in a unit suffix (_seconds/_ms/_bytes/_size),
# and gauges must not end in _total.
lint-metrics:
	$(GO) test -run TestLintMetricNames -count=1 ./internal/obs

# Static route-registration lint: outside tests, only the front-door
# server (internal/door/door.go) may build an http.ServeMux or register
# a handler on one, so every ConfBench route stays in the api route
# table.
lint-routes:
	$(GO) test -run TestLintOneMux -count=1 ./internal/door

# The repo's benchmark (BENCHMARK.json, benchmark/) is a module of its
# own that `go build ./... && go test ./...` does not see, yet it
# imports internal packages: vet and test it so a deleted or changed
# exported name it uses fails here, not in the next benchmark run.
benchmark-check:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# Every program under examples/ runs to a zero exit, its output
# discarded: the walkthroughs the README points at keep working.
examples:
	@for d in examples/*/; do echo "go run ./$$d"; $(GO) run ./$$d >/dev/null || exit 1; done

# What one guest body costs in wall time and allocations (DESIGN.md
# §16): every catalog workload at the guest-mix scale, the two shared
# fixtures, the meter, the Wasm call path, the speedtest suite, one
# MobileNet classification at inputs 64 and 96 and the ns/MAC of each
# kind of its layers; then what pricing and
# returning its result cost: VM.Price of a fib launch, one cost-model
# Apply, one invoke-response decode. A reading aid for body and
# per-invoke optimisations, not a gate and not part of verify; the
# gates are the allocation ceilings in the packages' own tests and
# `guest-mix` and `relay-small` in the repo's benchmark.
bench-guest:
	$(GO) test -run xxx -bench 'BenchmarkCatalog|BenchmarkFixtures|BenchmarkMeterAdd|BenchmarkWasmFib22|BenchmarkWasmExports|BenchmarkMiniDBSpeedtest|BenchmarkMLInference|BenchmarkLayer' -benchtime 20x ./internal/workloads ./internal/meter ./internal/wasmvm ./internal/minidb ./internal/mlinfer
	$(GO) test -run xxx -bench 'BenchmarkPrice$$|BenchmarkCostApply$$|BenchmarkDecodeInvokeResponse$$' -benchmem ./internal/vm ./internal/tee ./internal/wire

# A perf claim, by machine: PAIRS alternating runs of one benchmark
# workload on a `git clone` of PARENT and on this checkout, then for
# every gated metric the medians and quartiles, the change, the pairs
# won, the gap rule, the bound and the spread (cmd/bench-ab). One record
# per call is appended to BENCH_$(WORKLOAD).json. AA=1 runs PARENT
# against itself instead: nothing may read as moved. Not part of verify.
PARENT ?= HEAD~1
WORKLOAD ?= relay-small
PAIRS ?= 10
bench-ab:
	$(GO) run ./cmd/bench-ab -parent $(PARENT) -workload $(WORKLOAD) -pairs $(PAIRS) $(if $(filter 1,$(AA)),-aa)

# Full pre-merge check: compile, gofmt, vet, unit tests, the benchmark
# module's own vet and tests, the race detector over the
# concurrency-sensitive packages, the coverage floor, the metric-naming
# and route-registration lints, the scenarios and the examples.
# Performance is gated outside it, by the repo's benchmark
# (BENCHMARK.json, `bash benchmark/run.sh`).
verify: build fmt vet test benchmark-check race cover-floor lint-metrics lint-routes scenarios examples
