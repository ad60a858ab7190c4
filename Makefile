# Developer entry points. `make check` is the pre-commit gate: the full
# lint stack (gofmt + vet + mantralint) plus the suite under the race
# detector — the same gate CI runs.

GO ?= go

.PHONY: build vet fmt-check mantralint lint lint-json lint-sarif test race bench bench-smoke bench-check loc loc-check fuzz chaos chaos-shard figures check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The project-specific analyzers: determinism (mapiter, floatsum,
# sertaint), clock injection (wallclock), crash safety (walerr),
# cross-function concurrency (lockheld, sharedmut, goleak), hot-path
# allocation budgets and their markers (hotalloc) and module-wide lock
# ordering (lockorder). See DESIGN.md §8–§9, §14 and §15 for the
# invariants, the suppression syntax and the evidence each check earns
# its place with. Exit codes: 0 clean, 1 findings,
# 2 internal/load error — CI distinguishes "fix the code" from "fix
# the invocation" on that split.
mantralint:
	$(GO) run ./cmd/mantralint ./...

# The one pre-commit lint target: formatting, vet, and the invariant
# analyzers.
lint: fmt-check vet mantralint

# Machine-readable lint: findings as a JSON array on stdout, for diffing
# runs or feeding dashboards.
lint-json:
	$(GO) run ./cmd/mantralint -json ./...

# SARIF 2.1.0 log for GitHub code-scanning upload (CI runs this; the
# file is valid — rules and all — even when the run is clean).
lint-sarif:
	$(GO) run ./cmd/mantralint -sarif mantralint.sarif ./...

# -shuffle randomizes test order every run, dynamically flushing
# inter-test state dependence (the runtime complement to mapiter).
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
LOC_CEILING = 25374

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
# tracker driven by the Log stage
# and the one replayed from delta-log records against one that observed
# every table (live = handed off), the lint fact-summary extractor
# (no panics; byte-identical summaries across independent parse/check
# passes), and the segment log's frame scanner on arbitrary bytes under
# the WAL's and the mirror's magics (no panics; payloads are slices of
# the input within the frame cap; the prefix it calls intact rescans
# clean).
fuzz:
	$(GO) test ./internal/core/collect -fuzz FuzzValidateDump -fuzztime 30s
	$(GO) test ./internal/core/collect -fuzz FuzzPreprocess -fuzztime 30s
	$(GO) test ./internal/core/tables -fuzz FuzzBuildSnapshot -fuzztime 30s
	$(GO) test ./internal/core/tables -fuzz FuzzMergeSnapshots -fuzztime 30s
	$(GO) test ./internal/addr -fuzz FuzzParse -fuzztime 30s
	$(GO) test ./internal/core/logger -fuzz FuzzAppendMatchesMapDiff -fuzztime 30s
	$(GO) test ./internal/core/cycle -fuzz FuzzStabilityFromRecords -fuzztime 30s
	$(GO) test ./internal/lint -fuzz FuzzSummaryExtract -fuzztime 30s
	$(GO) test ./internal/core/seglog -fuzz FuzzScan -fuzztime 30s

# The chaos suite under the race detector with shuffled test order: the
# 220-cycle fault-injection run, the breaker lifecycle, and the scripted
# incident library's detection-latency proofs (every scenario under
# clean and degraded collection, plus the serial-vs-pipelined anomaly
# byte-identity check).
chaos:
	$(GO) test -race -shuffle=on -run 'TestChaos' -v .

# The shard-supervisor chaos proofs under the race detector: worker
# kills during active incidents (no lost detections, no duplicate or
# out-of-order WAL frames) and fleet-output byte-identity at 1/4/16
# shards.
chaos-shard:
	$(GO) test -race -shuffle=on -run 'TestChaosShard' -v .

figures:
	$(GO) run ./cmd/figures -scale quick -out out

# vet + lint + race: lint subsumes vet, so this is the full CI gate.
check: lint race
