# Developer entry points. CI runs the same commands; see
# .github/workflows/ci.yml.

# scenarios-diff compares this tree's scenario results with those of BASE.
BASE ?= HEAD

.PHONY: build test race bench-smoke e2e-smoke scenarios scenarios-diff loc loc-check daemon soak soak-durable

build:
	go build ./...

# test and race run through scripts/gotest.sh: it keeps the `go test -json`
# stream in test-logs/ and, when a test fails, prints the failing tests' names
# and the tail of their output.
test:
	scripts/gotest.sh test-logs/test.json ./...

# The sharded store's stress/property tests, the live ingest pipeline and the
# write-ahead log's concurrent appends are the main race surfaces; run them
# with real scheduler parallelism even on constrained runners.
race:
	GOMAXPROCS=4 scripts/gotest.sh test-logs/race.json -race . ./internal/live/... ./internal/gossip/... \
		./internal/engine/... ./internal/store/... ./internal/wal/...

# bench-smoke is the CI guard: every hot-path benchmark compiles and runs
# once, race-enabled. Timing is judged only by the repo benchmark, on
# interleaved pairs against the parent commit (bench/README.md).
bench-smoke:
	go test -race -run '^$$' -bench . -benchtime=1x \
		./internal/engine/ ./internal/store/ ./internal/wire/ ./internal/live/ \
		./internal/wal/ .

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

# scenarios-diff is the determinism gate for changes that must not alter the
# simulated protocol: build cmd/scenarios and cmd/figures at BASE (from a
# throwaway `git archive` copy under $TMPDIR) and in this tree, run every
# catalog scenario on seeds 1-10 with both, and diff the JSON. The catalog
# builds complete views only, so the figures' simulated overlays — sampled
# views, the shuffle and its draws — are diffed too, for FIGURES_DIFF's flag
# sets. No output after the runs means byte-identical results.
FIGURES_DIFF := "-fig all -sim -seed 2" "-table -sim -seed 1" "-study bimodal"

scenarios-diff:
	@tmp=$$(mktemp -d) && trap 'rm -rf $$tmp' EXIT && mkdir $$tmp/base && \
	git archive $(BASE) | tar -x -C $$tmp/base && \
	(cd $$tmp/base && go build -o $$tmp/scenarios.base ./cmd/scenarios && \
		go build -o $$tmp/figures.base ./cmd/figures) && \
	go build -o $$tmp/scenarios.head ./cmd/scenarios && \
	go build -o $$tmp/figures.head ./cmd/figures && \
	$$tmp/scenarios.base -seeds 1,2,3,4,5,6,7,8,9,10 -out $$tmp/out.base >/dev/null && \
	$$tmp/scenarios.head -seeds 1,2,3,4,5,6,7,8,9,10 -out $$tmp/out.head >/dev/null && \
	diff -r $$tmp/out.base $$tmp/out.head && \
	for flags in $(FIGURES_DIFF); do \
		$$tmp/figures.base $$flags >$$tmp/fig.base && \
		$$tmp/figures.head $$flags >$$tmp/fig.head && \
		diff $$tmp/fig.base $$tmp/fig.head || { echo "figures $$flags differ" >&2; exit 1; }; \
	done && echo "scenarios-diff: identical to $(BASE)"

# loc prints the non-test Go lines per package and their total, bench/
# excluded — the number ROADMAP tracks and every CHANGES.md entry reports.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' \
		-exec wc -l {} + | awk '$$2 != "total" { sub(/\/[^\/]*$$/, "", $$2); n[$$2] += $$1; t += $$1 } \
		END { for (p in n) printf "%6d %s\n", n[p], p; printf "%6d total\n", t }' | sort -k2

# loc-check is the line budget CI enforces: it fails when loc's total
# exceeds LOC_CEILING, the total of the last PR that lowered it. A PR that
# deletes code lowers the ceiling to its own total; one that must add code
# raises it in the open, in the same diff.
LOC_CEILING := 17363

loc-check:
	@total=$$($(MAKE) -s loc | awk '$$2 == "total" { print $$1 }'); \
	if [ "$$total" -gt $(LOC_CEILING) ]; then \
		echo "loc-check: $$total non-test lines outside bench/ exceed the ceiling of $(LOC_CEILING)" >&2; exit 1; \
	fi; \
	echo "loc-check: $$total non-test lines outside bench/, ceiling $(LOC_CEILING)"

# daemon builds the serving binary (HTTP client edge + /metrics over one
# live replica) into ./bin.
daemon:
	go build -o bin/pushpulld ./cmd/pushpulld

# soak is the short multi-process chaos soak CI runs: 3 real pushpulld
# processes on loopback, sustained HTTP traffic, one SIGKILL + recovery
# from the member's write-ahead log (KillAndRecover), scraped-state
# invariants, race-enabled. Set SOAK_OUT=<file> to keep the final scraped
# states as JSON. Drop -short
# for the full version (5 processes, 2 kill cycles, a joining member).
soak:
	go test -race -short -v -run 'TestClusterSoak$$' ./internal/cluster/

# soak-durable is the durability chaos soak: every member runs with a
# write-ahead log, a victim is SIGKILLed while a write burst is in flight,
# its WAL tail is torn, and it must recover from disk alone holding every
# write it acknowledged. Drop -short for more members and kill cycles.
soak-durable:
	go test -race -short -v -run TestClusterSoakDurable ./internal/cluster/
