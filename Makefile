# Build/verify targets for the cold boot scrambler reproduction.
#
#   make test           tier-1 gate: build everything, run every test
#   make race           vet + race-detector pass over every package (the
#                       staged pipeline, campaign pool, and keyfind pool
#                       all run goroutines), then the fleet's lease-board
#                       and long-poll tests 20 times more under the
#                       detector, so a lost-wakeup race fails here
#   make lint           project static-analysis suite (cmd/coldbootlint):
#                       hot-path XOR kernels, context threading, read-only
#                       KeyAt results, math/rand bans, silent-library and
#                       alloc-in-hot-loop checks, plus the PR 8 secret
#                       hygiene rules (keyflow taint, lockguard, goroleak)
#                       and stale-suppression reporting
#   make lint-json      same suite, machine-readable: writes lint.json
#                       (uploaded as a CI artifact)
#   make lint-fixtures  fast self-test of the lint suite against its
#                       positive/negative fixture trees (skips the
#                       whole-module self-scan)
#   make fmt            fail if any file needs gofmt
#   make perfbench-check  vet and test the benchmark module (perfbench/, its
#                       own Go module built against this tree), so a change
#                       to an exported API it uses fails here, not in the
#                       benchmark run
#   make check          umbrella gate: build + tests + vet + race + lint +
#                       fmt + perfbench-check, the whole pre-merge
#                       checklist in one target
#   make fuzz-smoke     run every fuzz target for 10s each (corpus seeds
#                       under */testdata/fuzz are always run by plain
#                       `go test` too)
#   make serve-smoke    smoke driver (cmd/servesmoke) scenario serve:
#                       build coldbootd, boot it on a random port, push a
#                       scrambled+decayed fixture dump through the HTTP
#                       API end to end, and require a clean SIGTERM drain
#   make crash-smoke    smoke driver scenarios kill-standalone,
#                       kill-coordinator and kill-worker: SIGKILL each
#                       process role mid-campaign and require every job to
#                       finish with its planted masters (a standalone or
#                       coordinator restarts on the same data dir and
#                       replays its WAL; a coordinator's workers re-attach
#                       unrestarted; a dead worker's leased shard comes
#                       back through lease expiry or a straggler steal)
#   make bench          run the paper-figure benchmarks once
#   make bench-hotpath  regenerate BENCH_hotpath.json (attack hot-path
#                       kernels, machine-readable; commit the result so the
#                       perf trajectory is tracked across PRs)
#   make bench-guard    run the instrumented-hot-path benchmarks 100 times
#                       and fail if any reports allocs/op > 0 — the Nop tracer
#                       fast path, window repair and master recovery must
#                       stay allocation-free —
#                       then re-run the end-to-end attack benchmark and fail
#                       if it regresses past the throughput floor / alloc
#                       ceiling recorded in BENCH_hotpath.json, then mine an
#                       8 MiB dump at 0.3 % flips once and fail if B/op
#                       exceeds 6x the dump size — the near-duplicate merge
#                       index must stay sized to the canonical keys, not to
#                       every decayed group

GO ?= go

.PHONY: test race lint lint-json lint-fixtures fmt perfbench-check check fuzz-smoke serve-smoke crash-smoke bench bench-hotpath bench-guard all

all: check

test:
	$(GO) build ./...
	$(GO) test ./...

race:
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -race -count=20 -run 'Board|Lease|Steal' ./internal/fleet

lint:
	$(GO) run ./cmd/coldbootlint ./...

# lint.json is the CI artifact: an empty array on a clean tree, one
# {file, line, rule, message} object per finding otherwise. The target
# fails exactly when plain lint would, but the artifact is written either
# way so a red run still ships its findings.
lint-json:
	@$(GO) run ./cmd/coldbootlint -json ./... > lint.json; \
	status=$$?; cat lint.json; exit $$status

lint-fixtures:
	$(GO) test -short ./internal/lint

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

check: test race lint fmt perfbench-check

fuzz-smoke:
	$(GO) test ./internal/dumpfile -run '^$$' -fuzz '^FuzzRead$$' -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzKeyLitmus$$' -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzAESLitmus$$' -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzMineKeys$$' -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzPlanFromWire$$' -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzRepairBound$$' -fuzztime 10s
	$(GO) test ./internal/fleet -run '^$$' -fuzz '^FuzzCompleteRequest$$' -fuzztime 10s
	$(GO) test ./internal/format/luks2 -run '^$$' -fuzz '^FuzzParseHeader$$' -fuzztime 10s
	$(GO) test ./internal/wal -run '^$$' -fuzz '^FuzzReplay$$' -fuzztime 10s

serve-smoke:
	$(GO) run ./cmd/servesmoke serve

crash-smoke:
	$(GO) run ./cmd/servesmoke kill-standalone kill-coordinator kill-worker

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

bench-hotpath:
	$(GO) run ./cmd/encbench -hotpath BENCH_hotpath.json

# The guarded benchmarks drive the full telemetry hook surface (spans,
# counters, histograms, progress) through the Nop tracer inside the scan
# hot loops, and the per-candidate repair and master-recovery kernels.
# They run 100 iterations: allocs/op is total allocations over the
# iteration count, rounded down, so a one-off runtime allocation (a map
# growth or timer inside the runtime) reads 0 while an allocation made on
# every operation still reads at least 1 and fails the gate. The mining ceiling sits well above the ~3.2x of the
# 8 MiB dump that mining allocates (each distinct content copied once per
# scan range, the merge index sized to the canonical keys).
bench-guard:
	@set -e; \
	for spec in \
		"./internal/obs ^BenchmarkNopOverhead$$|^BenchmarkCollectorObserve$$" \
		"./internal/keyfind ^BenchmarkScanChunkNop$$" \
		"./internal/core ^BenchmarkRepairWindow$$" \
		"./internal/aes ^BenchmarkRecoverMasterKey$$"; do \
		set -- $$spec; pkg=$$1; pat=$$2; \
		echo "bench-guard: $$pkg $$pat"; \
		out=$$($(GO) test "$$pkg" -run '^$$' -bench "$$pat" -benchtime 100x -benchmem) || { echo "$$out"; exit 1; }; \
		echo "$$out"; \
		echo "$$out" | grep -q '^Benchmark' || { echo "bench-guard: no benchmarks matched $$pat in $$pkg"; exit 1; }; \
		echo "$$out" | awk '/allocs\/op/ { for (i = 2; i <= NF; i++) if ($$i == "allocs/op" && $$(i-1) + 0 != 0) { print "bench-guard: " $$1 " allocates: " $$(i-1) " allocs/op"; bad = 1 } } END { exit bad }'; \
	done; \
	echo "bench-guard: all hot-path benchmarks allocation-free"
	$(GO) run ./cmd/encbench -guard BENCH_hotpath.json
	@set -e; \
	out=$$($(GO) test ./internal/core -run '^$$' -bench '^BenchmarkMineKeysDecayed$$' -benchtime 1x -benchmem) || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | awk -v ceil=6 ' \
		/^BenchmarkMineKeysDecayed/ { for (i = 2; i <= NF; i++) if ($$i == "B/op") bop = $$(i-1) + 0; seen = 1 } \
		END { \
			if (!seen) { print "bench-guard: BenchmarkMineKeysDecayed did not run"; exit 1 } \
			limit = ceil * 8 * 1024 * 1024; \
			if (bop > limit) { printf "bench-guard: mining allocates %d B/op, over %d (%gx the 8 MiB dump)\n", bop, limit, ceil; exit 1 } \
			printf "bench-guard: mining allocates %d B/op, within %gx the 8 MiB dump\n", bop, ceil }'
