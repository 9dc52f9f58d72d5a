# Development workflow for the ATraPos reproduction.
#
#   make check        - everything CI runs: format, vet, static analysis, build,
#                       test, race, the benchmark module's own vet + tests,
#                       bench smoke, every experiment through the CLI, the
#                       examples, traced run, fault-scenario fuzz smoke
#   make race         - the code that runs goroutines, under the race detector
#   make bench-module - vet + short tests of the nested benchmark/ module
#   make bench        - full hot-path microbenchmarks with allocation stats
#   make experiments  - every registry experiment through the CLI, on the
#                       scale's own machine and on a pinned machine profile
#   make examples     - the four examples/ programs, end to end
#   make tables-diff  - -experiment all, the examples and the traced drift run
#                       on a parent commit (-parallel 1) and the working tree
#                       (-parallel 4) (PARENT=<ref> [SEED=42] [PROFILE=<name>]):
#                       empty output = every deterministic table, trace and
#                       metrics file identical, across schedulers too
#   make bench-trace  - traced adaptive-drift run: Perfetto trace + metrics CSV
#   make bench-pair   - the repo benchmark on a parent commit and the working
#                       tree in alternating pairs (PARENT=<ref> WORKLOAD=<name>
#                       PAIRS=10 SEED=42): per-pair values, medians, quartiles,
#                       wins — the protocol behind every performance claim
#   make fuzz-smoke   - the fault-scenario fuzz target for 40 s, on a fresh fuzz cache
#   make fuzz-targets - every other fuzz target for 20 s each, in turn, stopping
#                       at the first failure (CI runs it after make check)
#   make loc          - non-test Go lines outside benchmark/, in total and per
#                       package (the code-size count ROADMAP quotes)
#   make loc-diff     - the same count on a parent commit and the working tree,
#                       side by side with the change (PARENT=<ref>)
#
# The experiment targets run through the parallel point scheduler
# (atrapos-bench -parallel, default GOMAXPROCS); results are bit-identical at
# any concurrency, so only wall time varies across hosts.

GO ?= go
PAIRS ?= 10
SEED ?= 42
EXAMPLES = quickstart adaptive tatp tpcc

.PHONY: check fmt vet staticcheck build test race bench-module bench-smoke bench experiments examples tables-diff bench-trace bench-pair fuzz-smoke fuzz-targets loc loc-diff

check: fmt vet staticcheck build test race bench-module bench-smoke experiments examples bench-trace fuzz-smoke

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Deeper static analysis when the tools are installed (CI installs them);
# environments without them fall back to the vet pass above so `make check`
# works offline with a stock toolchain.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; go vet (above) is the fallback"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping vulnerability scan"; \
	fi

build:
	$(GO) build ./...

# The second pass repeats everything that starts executor goroutines on a
# single P: executors are plain goroutines, so they must make progress (and
# keep every count) however few processors the host gives them.
test:
	$(GO) test ./...
	GOMAXPROCS=1 $(GO) test -run 'Executed|Executor' ./internal/backend ./internal/engine ./internal/harness

# A priced run is one goroutine, so the race detector is pointed at the
# goroutines that remain: executed mode (one executor goroutine per island,
# shipping operations to each other over channels), engine.New's loader
# workers (up to GOMAXPROCS goroutines filling disjoint chunks of one
# storage.Load each, joined before its Finish) and the harness pool's
# concurrent sweep paths (point scheduling, measured experiments run after
# the pool has joined, parallel bit-identity). The counter-conservation oracle (its
# die-level mixed leg included) and the batch-protocol tests are repeated (the
# oracle at its -short size), and so are the ship that outwaits its bounded
# spin and parks, and the oversubscribed executed runs: a lost update, a ship
# deadlock or a wakeup lost between the spin and the park is a scheduling
# accident, and one clean run proves little. The harness pass filters to the
# pool tests so the race-slowed run stays bounded.
race:
	$(GO) test -race ./internal/backend
	$(GO) test -race -short -count=20 -run ExecutorBatch ./internal/backend
	$(GO) test -race -count=10 -run TestExecutorShipParksBehindSilentOwner ./internal/backend
	$(GO) test -race -run Executed ./internal/engine
	$(GO) test -race -short -count=20 -run ExecutedCountersConserved ./internal/engine
	$(GO) test -race -count=10 -run TestExecutedOversubscribed ./internal/engine
	$(GO) test -race -count=3 -run TestLoadDataMatchesSerialLoad ./internal/engine
	$(GO) test -race -run 'TestPool|TestMeasuredExperimentsRunAlone|TestParallelSweepBitIdentical' ./internal/harness

# benchmark/ is a nested module the root `go build ./... && go test ./...` does
# not reach, yet it compiles against the engine's API; vet and short-test it so
# an API change that breaks the repo benchmark fails here, not in the driver.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...

# A short benchmark pass so hot-path and load-path regressions (time or
# allocations) fail loudly in review; see DESIGN.md section 7 for the invariants.
bench-smoke:
	$(GO) test -run '^$$' -bench BenchmarkExecute -benchtime 100x -benchmem ./internal/engine
	$(GO) test -run '^$$' -bench BenchmarkLoad -benchtime 1x -benchmem ./internal/engine
	$(GO) test -run TestLoadAllocBudget -v ./internal/storage
	$(GO) test -run '^$$' -bench BenchmarkAcquireReleaseAll -benchtime 1000x -benchmem ./internal/lock
	$(GO) test -run '^$$' -bench BenchmarkCacheLine -benchtime 100000x -benchmem ./internal/numa
	$(GO) test -run '^$$' -bench BenchmarkRepartition -benchtime 100x -benchmem ./internal/btree
	$(GO) test -run '^$$' -bench BenchmarkTreeGet -benchtime 200000x -benchmem ./internal/btree
	$(GO) test -run '^$$' -bench 'BenchmarkExecutorShip|BenchmarkHashCommit' -benchtime 200x -benchmem ./internal/backend
	$(GO) test -run '^$$' -bench BenchmarkRunExecuted -benchtime 10000x -benchmem ./internal/engine
	$(GO) test -run '^$$' -bench BenchmarkZipfKey -benchtime 100000x -benchmem ./internal/workload

bench:
	$(GO) test -run '^$$' -bench BenchmarkExecute -benchmem ./internal/engine

# Every registry entry through its CLI path. The tier-1 tests assert the
# experiments' claims; this keeps `-experiment` itself exercised, and
# fig-executed errors here if priced and executed modes disagree on the
# crossover direction on chiplet-2s4d. The second pass pins a machine profile
# whose shape differs from the scale's own (two sockets, not four): an
# experiment that indexes the machine by the scale instead of by the topology
# it built fails there and nowhere else.
experiments:
	$(GO) run ./cmd/atrapos-bench -experiment all
	$(GO) run ./cmd/atrapos-bench -experiment all -profile chiplet-2s4d

# The example programs print fixed-seed virtual-time results, so their output
# is deterministic too; tables-diff compares it.
examples:
	@for ex in $(EXAMPLES); do echo "== examples/$$ex"; $(GO) run ./examples/$$ex || exit 1; done

# The acceptance check of a refactor that must keep every number: run
# -experiment all, the examples and the traced adaptive-drift run on PARENT and
# on the working tree and compare. PARENT's -experiment all runs one point at a
# time (-parallel 1), the tree's four at a time (-parallel 4), so an empty
# output also shows every deterministic table independent of the scheduler.
# The examples run on their own fixed machines
# and seeds. "completed in" lines (wall time) and the fig-executed block
# (measured wall clock) are stripped; anything printed is a changed table. The
# traced run's trace JSON is compared byte for byte with cmp, its metrics CSV
# by column name (scripts/csvdiff.awk: added and removed columns, then the
# first differing line and column of the shared ones; any difference fails).
# PROFILE pins a machine profile on both sides (empty: the scale's own
# machine); SEED feeds the tables and the traced run alike. A side that fails
# keeps its error lines in the comparison (a failed traced run leaves no
# documents, which cmp and awk report), so a table that stopped (or started)
# rendering shows up as a difference. The parent is unpacked under $$TMPDIR
# and removed afterwards.
tables-diff:
	@test -n "$(PARENT)" || { echo "usage: make tables-diff PARENT=<ref> [SEED=42] [PROFILE=<name>]"; exit 2; }
	@set -e; dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	git archive $(PARENT) | tar -x -C "$$dir"; \
	tables() { $(GO) run ./cmd/atrapos-bench -experiment all -parallel $$2 -seed $(SEED) -profile "$(PROFILE)" > "$$1.raw" 2>&1 || true; \
		for ex in $(EXAMPLES); do echo "== examples/$$ex"; $(GO) run ./examples/$$ex 2>&1 || true; done >> "$$1.raw"; \
		$(GO) run ./cmd/atrapos-bench -trace "$$1.json" -metrics "$$1.csv" -seed $(SEED) -profile "$(PROFILE)" 2>> "$$1.raw" > /dev/null || true; \
		awk '/^fig-executed /{skip=1} /^\(fig-executed completed/{skip=0} !skip && !/completed in/' "$$1.raw" > "$$1.txt"; }; \
	(cd "$$dir" && tables "$$dir/parent" 1); tables "$$dir/tree" 4; \
	st=0; diff "$$dir/parent.txt" "$$dir/tree.txt" || st=1; \
	cmp "$$dir/parent.json" "$$dir/tree.json" || st=1; \
	awk -F, -f scripts/csvdiff.awk "$$dir/parent.csv" "$$dir/tree.csv" || st=1; \
	exit $$st

# The tracing smoke: run the traced adaptive-drift scenario and write the
# Chrome-trace JSON (Perfetto-loadable) and metrics CSV. The command validates
# both documents itself (trace-event schema, CSV header and row shape, span
# ring drop accounting), so this target failing means the exporter regressed;
# it also fails unless the run dropped no span (the one ring holds the whole
# run). Outputs land in ./trace-out/ (gitignored; CI uploads them on failure).
bench-trace:
	@mkdir -p trace-out
	@out=$$($(GO) run ./cmd/atrapos-bench -trace trace-out/drift.json -metrics trace-out/drift.csv) || exit 1; \
		echo "$$out"; \
		echo "$$out" | grep -q ' dropped_spans=0 ' || { echo "bench-trace: the traced drift run dropped spans" >&2; exit 1; }

# Parent commit against working tree with the repo benchmark (BENCHMARK.json),
# ten alternating pairs by default; takes PAIRS x 2 x ~25 s. The parent is
# unpacked under $$TMPDIR and removed afterwards.
bench-pair:
	@test -n "$(PARENT)" -a -n "$(WORKLOAD)" || { echo "usage: make bench-pair PARENT=<ref> WORKLOAD=<name> [PAIRS=10] [SEED=42]"; exit 2; }
	$(GO) run ./cmd/bench-pair -parent $(PARENT) -workload $(WORKLOAD) -pairs $(PAIRS) -seed $(SEED)

# The fault-scenario fuzz target, explored past the seeds 42-47 tier-1
# replays, like the repo's other fuzz targets in CI: each input is one seed
# that composes a {workload, machine, device layout, fault schedule}
# scenario, every standing invariant checked on it. A failing input is
# written to internal/harness/testdata/fuzz/FuzzScenario/, where plain
# `go test` replays it. The test binary, built with the fuzzer's coverage
# instrumentation, runs on a fuzz cache of its own that is removed afterwards:
# `go test -fuzz` would start from the inputs earlier runs kept in the shared
# build cache, and on a warm cache it reported nothing new.
# On a 2-vCPU host 40 s ran about 170 scenarios.
fuzz-smoke:
	@set -e; dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) test -c -fuzz '^FuzzScenario$$' -o "$$dir/harness.test" ./internal/harness; \
	cd internal/harness && "$$dir/harness.test" -test.run '^$$' -test.fuzz '^FuzzScenario$$' \
		-test.fuzztime 40s -test.fuzzcachedir "$$dir/cache"

# The other fuzz targets, one (package, target) pair a line with what it
# holds the code to. Tier-1 replays each target's seeds; fuzz-targets explores
# past them for 20 s per pair, in this order, and stops at the first failure,
# naming it. A failing input is written to the package's testdata/fuzz/.
FUZZ_TARGETS  = internal/btree:FuzzSearch         # the interpolating in-node search to sort.Search
FUZZ_TARGETS += internal/btree:FuzzLeafRows       # packed leaf rows to a map through inserts, deletes, length-changing updates, splits, merges, re-boundings and bulk loads, leaf invariants checked after every step
FUZZ_TARGETS += internal/lock:FuzzTable           # the grant-list lock table to the scan-every-bucket reference
FUZZ_TARGETS += internal/workload:FuzzZipfPow     # the memoized Zipf sampler to math.Pow bit for bit
FUZZ_TARGETS += internal/workload:FuzzMix         # the compiled class mix to the sort-every-draw reference chooser
FUZZ_TARGETS += internal/fault:FuzzNewSchedule    # fault-schedule validation to the reference replay
FUZZ_TARGETS += internal/partition:FuzzPartitionFor # the placement's router to the multi-rooted tree's
FUZZ_TARGETS += internal/wal:FuzzRecover          # recovery from a coalescing log to the uncoalesced log's
FUZZ_TARGETS += internal/wal:FuzzCoalescer        # the slot-indexed accumulator to the map-based reference
FUZZ_TARGETS += internal/schema:FuzzRowLayout     # the flat row format to the boxed Row it replaced

fuzz-targets:
	@for t in $(FUZZ_TARGETS); do \
		pkg="$${t%%:*}"; fn="$${t#*:}"; \
		echo "== $$fn (./$$pkg)"; \
		$(GO) test -run '^$$' -fuzz "^$$fn\$$" -fuzztime 20s "./$$pkg" || \
			{ echo "fuzz-targets: $$fn in ./$$pkg failed"; exit 1; }; \
	done

# Non-test Go lines outside benchmark/: the total, then per package — a
# directory under internal/, cmd and examples as one each, and the root
# package's files by name.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -exec wc -l {} + | \
	awk '$$2 != "total" { n = split($$2, p, "/"); k = (p[2] == "internal") ? p[3] : p[2]; by[k] += $$1; all += $$1 } \
	END { printf "total %d\n", all; for (k in by) printf "%s %d\n", k, by[k] | "sort -k2,2nr" }'

# make loc on PARENT (unpacked under $$TMPDIR with git archive, as tables-diff
# does, and counted with this Makefile's rule) and on the working tree: one
# row per package with the parent's count, the tree's and the change, the
# total first and then the packages by the tree's count.
loc-diff:
	@test -n "$(PARENT)" || { echo "usage: make loc-diff PARENT=<ref>"; exit 2; }
	@set -e; dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	mkdir "$$dir/src"; git archive $(PARENT) | tar -x -C "$$dir/src"; \
	(cd "$$dir/src" && $(MAKE) -s --no-print-directory -f "$(CURDIR)/Makefile" loc) > "$$dir/parent"; \
	$(MAKE) -s --no-print-directory loc > "$$dir/tree"; \
	awk 'NR == FNR { p[$$1] = $$2; next } { t[$$1] = $$2 } \
		END { for (k in p) t[k] += 0; for (k in t) print k, p[k] + 0, t[k], t[k] - p[k] }' "$$dir/parent" "$$dir/tree" > "$$dir/rows"; \
	{ echo package parent tree delta; grep '^total ' "$$dir/rows"; grep -v '^total ' "$$dir/rows" | sort -k3,3nr -k1,1; } | \
		awk 'NR == 1 { printf "%-12s %7s %7s %7s\n", $$1, $$2, $$3, $$4; next } { printf "%-12s %7d %7d %+7d\n", $$1, $$2, $$3, $$4 }'
