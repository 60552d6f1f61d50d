# Developer entry points. CI runs the same commands; see
# .github/workflows/ci.yml.

# The perf-trajectory file emitted by `make bench` (one per perf PR).
BENCH_PR ?= 10
BENCH_TIME ?= 300ms
# bench-compare reruns the baseline's benchmarks at this benchtime; short
# keeps the CI gate fast, the 25% threshold absorbs the extra noise.
COMPARE_TIME ?= 200ms

.PHONY: build test race bench bench-smoke bench-compare e2e-smoke scenarios daemon soak soak-durable

build:
	go build ./...

test:
	go test ./...

# The sharded store's stress/property tests and the live ingest pipeline are
# the main race surfaces; run them with real scheduler parallelism even on
# constrained runners.
race:
	GOMAXPROCS=4 go test -race . ./internal/live/... ./internal/gossip/... \
		./internal/engine/... ./internal/store/...

# bench runs the engine/store/wire/live hot-path benchmarks and writes the
# machine-readable trajectory file BENCH_$(BENCH_PR).json.
bench:
	go run ./cmd/benchjson -benchtime $(BENCH_TIME) -out BENCH_$(BENCH_PR).json

# bench-smoke is the CI guard: every benchmark compiles and runs once,
# race-enabled, so the perf baseline cannot rot.
bench-smoke:
	go test -race -run '^$$' -bench . -benchtime=1x \
		./internal/engine/ ./internal/store/ ./internal/wire/ ./internal/live/ \
		./internal/wal/ .

# bench-compare is the CI perf gate: rerun the committed baseline's
# benchmarks and fail if ns/op or allocs/op regress more than 25% anywhere.
bench-compare:
	go run ./cmd/benchjson compare -baseline BENCH_$(BENCH_PR).json \
		-benchtime $(COMPARE_TIME)

# e2e-smoke runs the repo benchmark's four workloads (bench/README.md) at
# 2 s each, through the public API, real TCP and the WAL, and fails when a
# workload's correctness gate does: the end-to-end path cannot rot between
# measured runs.
e2e-smoke:
	go run ./bench -smoke

# scenarios runs the deterministic fault-injection matrix across the CI
# seeds, failing on any invariant violation.
scenarios:
	go run ./cmd/scenarios -seeds 1,2,3 -out scenario-results

# daemon builds the serving binary (HTTP client edge + /metrics over one
# live replica) into ./bin.
daemon:
	go build -o bin/pushpulld ./cmd/pushpulld

# soak is the short multi-process chaos soak CI runs: 3 real pushpulld
# processes on loopback, sustained HTTP traffic, one SIGKILL +
# restart-from-snapshot, scraped-state invariants, race-enabled. Set
# SOAK_OUT=<file> to keep the final scraped states as JSON. Drop -short
# for the full version (5 processes, 2 kill cycles, a joining member).
soak:
	go test -race -short -v -run 'TestClusterSoak$$' ./internal/cluster/

# soak-durable is the durability chaos soak: every member runs with a
# write-ahead log, a victim is SIGKILLed while a write burst is in flight,
# its WAL tail is torn, and it must recover from disk alone holding every
# write it acknowledged. Drop -short for more members and kill cycles.
soak-durable:
	go test -race -short -v -run TestClusterSoakDurable ./internal/cluster/
