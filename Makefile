# Developer entry points. `make check` is the pre-commit gate: the lint
# stack (gofmt + vet + the line-count ceiling) plus the suite under the
# race detector — the same gate CI runs.

GO ?= go

.PHONY: build vet fmt-check lint test race bench bench-smoke bench-check loc loc-check fuzz chaos chaos-shard figures check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The one pre-commit lint target: formatting, vet and the line-count
# ceiling, the same steps as CI's lint job. The determinism, clock,
# crash-safety, allocation and locking invariants are held by tests
# (DESIGN.md §8, §14 and §15), not by static checks: the mutexes are
# pinned by TestMutexInventory, and the ownership of the cycle state is
# held by the race detector over the concurrency tests §14 names.
lint: fmt-check vet loc-check

# -shuffle randomizes test order every run, dynamically flushing
# inter-test state dependence.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./...

# Every benchmark: one per paper figure, ablations, micro-benchmarks.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# One iteration of every benchmark in every package — the CI smoke pass
# that keeps benchmarks compiling and running without timing anything.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench/ is a Go module of its own (BENCHMARK.json's harness), so
# `go build ./...` and `go test ./...` never compile it. This does:
# vet plus the harness's short tests against the current tree.
bench-check:
	cd bench && $(GO) vet . && $(GO) test -short .

# Non-test Go lines per package, outside bench/ and testdata/ — the
# figure simplification PRs report before and after.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' ! -path './.bench_build/*' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

# The ceiling on that total. A PR that needs more lines raises it in its
# own diff, so growth is a decision somebody reviewed.
LOC_CEILING = 20798

loc-check:
	@t=$$($(MAKE) -s loc | awk '$$2 == "total" { print $$1 }'); \
	if [ "$$t" -gt $(LOC_CEILING) ]; then echo "make loc: $$t lines, over the ceiling of $(LOC_CEILING)"; exit 1; fi; \
	echo "make loc: $$t lines (ceiling $(LOC_CEILING))"

# Short fuzz passes over the dump validator, the pre-processor, the
# one-pass table scanner (its structural checks and its tables against
# the validator and the parser it fused), the k-way snapshot merge and
# the address scanners (each against the implementation it replaced:
# equal results, equal error text), the
# delta logger's sorted walk and counter column against the map-based
# diff it replaced (on well-formed tables its upserts are the identity
# upserts plus the moved counters; the tables, materialised and
# reconstructed — live, exported, through the WAL codec and a
# checkpoint — equal the input bit for bit always), the stability
# tracker a core folds from its delta-log records when read, across a
# move of the log into a fresh core, against one that observed every
# table, the segment log's frame scanner on
# arbitrary bytes under the WAL's and the mirror's magics (no panics;
# payloads are slices of the input within the frame cap; the prefix it
# calls intact rescans clean), the tsdb block decoder behind /graph,
# Materialize and range queries on arbitrary bytes (no panics; a block that decodes holds the
# point count its header states; the same points or the same error as
# the bit-at-a-time decoder it replaced), and the tier-10/100 range
# reads folded from the blocks at query time against the bucket arrays
# the store once kept (random series with gap runs, bounds anywhere,
# live, handed off and reopened from the mirror), and both halves of the
# checkpoint decoder on arbitrary bytes (no panics; ErrBadCheckpoint or
# a value that re-encodes to itself; no allocation for a count the bytes
# cannot hold) with, for the cycle half, a scripted history's recovered
# core writing the live core's checkpoint byte for byte, and the streamed
# capture: recorded sessions, faulty ones among them, replayed under any
# read chunking through the collector's scan sink and through a verbatim
# copy of the copy-then-scan session it replaced (equal results,
# snapshots, row errors and defects; with bytes after a prompt, which
# the old session misfiled by read size, one outcome at every chunking).
fuzz:
	$(GO) test ./internal/core/collect -fuzz FuzzValidateDump -fuzztime 30s
	$(GO) test ./internal/core/collect -fuzz FuzzPreprocess -fuzztime 30s
	$(GO) test ./internal/core/tables -fuzz FuzzBuildSnapshot -fuzztime 30s
	$(GO) test ./internal/core/tables -fuzz FuzzMergeSnapshots -fuzztime 30s
	$(GO) test ./internal/addr -fuzz FuzzParse -fuzztime 30s
	$(GO) test ./internal/core/logger -fuzz FuzzAppendMatchesMapDiff -fuzztime 30s
	$(GO) test ./internal/core/cycle -run '^$$' -fuzz '^FuzzStabilityFromRecords$$' -fuzztime 30s
	$(GO) test ./internal/core/seglog -fuzz FuzzScan -fuzztime 30s
	$(GO) test ./internal/core/tsdb -fuzz FuzzBlockDecode -fuzztime 30s
	$(GO) test ./internal/core/tsdb -fuzz FuzzTierRange -fuzztime 30s
	$(GO) test ./internal/core/logger -run '^$$' -fuzz '^FuzzCheckpointDecode$$' -fuzztime 30s
	$(GO) test ./internal/core/cycle -run '^$$' -fuzz '^FuzzCheckpointDecode$$' -fuzztime 30s
	$(GO) test ./internal/core/collect -run '^$$' -fuzz '^FuzzStreamedCapture$$' -fuzztime 30s

# The chaos suite under the race detector with shuffled test order: the
# 220-cycle fault-injection run, the breaker lifecycle, and the scripted
# incident library's detection-latency proofs (every scenario under
# clean and degraded collection, plus the serial-vs-pipelined anomaly
# byte-identity check). Then the Monitor's read-view membership test,
# three times: every response read mid-cycle must be one read between
# cycles, so a read that mixes two cycles is caught more than once.
chaos:
	$(GO) test -race -shuffle=on -run 'TestChaos' -v .
	$(GO) test -race -count=3 -run 'TestMonitorViewsUnderCycleWatchdog' -v .

# The shard-supervisor chaos proofs under the race detector: worker
# kills during active incidents (no lost detections, no duplicate or
# out-of-order WAL frames) and fleet-output byte-identity at 1/4/16
# shards. Then the fleet's read-view membership test, three times,
# through kills, wedges, handoffs and restarts.
chaos-shard:
	$(GO) test -race -shuffle=on -run 'TestChaosShard' -v .
	$(GO) test -race -count=3 -run 'TestViewsUnderChaosWatchdog' -v ./internal/core/shard

figures:
	$(GO) run ./cmd/figures -scale quick -out out

# lint + race: lint includes vet, so this is the full CI gate.
check: lint race
