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
#   make bench-guard    run the instrumented-hot-path benchmarks 100 times
#                       and fail if any reports allocs/op > 0 — the Nop tracer
#                       fast path, window repair and master recovery must
#                       stay allocation-free —
#                       then run core's BenchmarkAttackDump2MiB (the whole
#                       attack over a 2 MiB dump with every registered format
#                       on, as coldbootd serves it) and fail if it reads
#                       under ATTACK_MIN_MB_S or over ATTACK_MAX_ALLOCS, then
#                       mine an 8 MiB dump at 0.3 % flips once and fail if
#                       B/op exceeds 6x the dump size — the near-duplicate
#                       merge index must stay sized to the canonical keys,
#                       not to every decayed group

GO ?= go

# bench-guard's bounds on BenchmarkAttackDump2MiB.
ATTACK_MIN_MB_S = 60
ATTACK_MAX_ALLOCS = 1000

.PHONY: test race lint lint-json lint-fixtures fmt perfbench-check check fuzz-smoke serve-smoke crash-smoke bench bench-guard all

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

# The guarded benchmarks drive the full telemetry hook surface (spans,
# counters, histograms, progress) through the Nop tracer inside the scan
# hot loops, and the per-candidate repair and master-recovery kernels.
# They run 100 iterations: allocs/op is total allocations over the
# iteration count, rounded down, so a one-off runtime allocation (a map
# growth or timer inside the runtime) reads 0 while an allocation made on
# every operation still reads at least 1 and fails the gate. The attack
# bounds are loose against what the benchmark reads on a 2-CPU host
# (roughly 100-130 MB/s and about 700 allocs/op), so scheduler noise does
# not flake while a per-candidate allocation in any format's prober (a few
# thousand per op) still fails. The mining ceiling sits well above the
# ~3.2x of the 8 MiB dump that mining allocates (each distinct content
# copied once per scan range, the merge index sized to the canonical keys).
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
	@set -e; \
	out=$$($(GO) test ./internal/core -run '^$$' -bench '^BenchmarkAttackDump2MiB$$' -benchmem) || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | awk -v floor=$(ATTACK_MIN_MB_S) -v ceil=$(ATTACK_MAX_ALLOCS) ' \
		/^BenchmarkAttackDump2MiB/ { for (i = 2; i <= NF; i++) { if ($$i == "MB/s") mbs = $$(i-1) + 0; if ($$i == "allocs/op") allocs = $$(i-1) + 0 }; seen = 1 } \
		END { \
			if (!seen) { print "bench-guard: BenchmarkAttackDump2MiB did not run"; exit 1 } \
			if (mbs < floor) { printf "bench-guard: attack reads %.1f MB/s, under the %g MB/s floor\n", mbs, floor; exit 1 } \
			if (allocs > ceil) { printf "bench-guard: attack allocates %d allocs/op, over the %d ceiling\n", allocs, ceil; exit 1 } \
			printf "bench-guard: attack reads %.1f MB/s at %d allocs/op, within %g MB/s and %d allocs/op\n", mbs, allocs, floor, ceil }'
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
