# Developer entry points. `make check` is the pre-commit gate: the full
# lint stack (gofmt + vet + mantralint) plus the suite under the race
# detector — the same gate CI runs.

GO ?= go

.PHONY: build vet fmt-check mantralint lint lint-json lint-sarif lint-baseline write-baseline test race bench bench-collect bench-archive bench-engine bench-detect bench-scale bench-store bench-smoke bench-check bench-json loc fuzz chaos chaos-shard figures check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The project-specific analyzers: determinism (mapiter, floatsum),
# clock injection (wallclock, globalrand), crash safety (walerr,
# waltaint), cross-function concurrency (lockheld, sharedmut, goleak),
# hot-path allocation budgets (hotalloc, hotpath) and module-wide lock
# ordering (lockorder). See DESIGN.md §8–§9 and §14 for the invariants
# and the suppression syntax. The cache directory makes warm runs
# re-analyze only packages whose content hash (self + dependency
# closure) moved; findings are byte-identical to a cold run, and
# deleting the directory forces one. Exit codes: 0 clean, 1 findings,
# 2 internal/load error — CI distinguishes "fix the code" from "fix
# the invocation" on that split.
mantralint:
	$(GO) run ./cmd/mantralint -cache .mantralint-cache ./...

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
	$(GO) run ./cmd/mantralint -cache .mantralint-cache -sarif mantralint.sarif ./...

# Baseline-diff mode: fail only on findings absent from the committed
# snapshot, so a legacy finding can be burned down incrementally while
# no fresh violation rides in under its cover. The tree is lint-clean
# today, so the committed baseline is empty and this is equivalent to
# plain `make mantralint` until someone baselines a legacy finding.
lint-baseline:
	$(GO) run ./cmd/mantralint -cache .mantralint-cache -baseline lint-baseline.json ./...

# Snapshot the current findings as the new baseline (exits zero).
write-baseline:
	$(GO) run ./cmd/mantralint -write-baseline lint-baseline.json ./...

# -shuffle randomizes test order every run, dynamically flushing
# inter-test state dependence (the runtime complement to mapiter).
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./...

# Every benchmark: one per paper figure, ablations, micro-benchmarks.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# The collector benchmarks: plain CLI scrape vs the resilient path.
# The delta between the two is the retry layer's happy-path overhead.
bench-collect:
	$(GO) test -run '^$$' -bench 'BenchmarkAblationCLIScrape|BenchmarkResilientCollectHappyPath' -benchtime 3s -count 3 .

# The archive benchmarks: WAL append throughput (buffered and fsync'd)
# and cold-start recovery of a 200-cycle archive.
bench-archive:
	$(GO) test -run '^$$' -bench 'BenchmarkArchive' -benchtime 3s -count 3 .

# The cycle-engine schedule comparison: 64 skewed targets, pipelined (a
# pool of 8) vs serial (a pool of one). Pipelined must win.
bench-engine:
	$(GO) test -run '^$$' -bench 'BenchmarkCycleEngine' -benchtime 10x -count 3 .

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

# The smoke pass plus the full-module lint benchmark, captured as
# timestamp-free JSON so runs can be diffed byte-for-byte.
bench-json:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./... | $(GO) run ./cmd/benchjson -out BENCH_lint.json
	@echo "wrote BENCH_lint.json"

# Short fuzz passes over the dump validator, the pre-processor, the
# one-pass table scanner and the address scanners (each against the
# implementation it replaced: equal results, equal error text), the
# stability tracker replayed from delta-log records against the one that
# observed every table (what a shard handoff relies on), and the lint
# fact-summary extractor (no panics; byte-identical summaries across
# independent parse/check passes).
fuzz:
	$(GO) test ./internal/core/collect -fuzz FuzzValidateDump -fuzztime 30s
	$(GO) test ./internal/core/collect -fuzz FuzzPreprocess -fuzztime 30s
	$(GO) test ./internal/core/tables -fuzz FuzzBuildSnapshot -fuzztime 30s
	$(GO) test ./internal/addr -fuzz FuzzParse -fuzztime 30s
	$(GO) test ./internal/core/cycle -fuzz FuzzStabilityFromRecords -fuzztime 30s
	$(GO) test ./internal/lint -fuzz FuzzSummaryExtract -fuzztime 30s

# The chaos suite under the race detector with shuffled test order: the
# 220-cycle fault-injection run, the breaker lifecycle, and the scripted
# incident library's detection-latency proofs (every scenario under
# clean and degraded collection, plus the serial-vs-pipelined anomaly
# byte-identity check).
chaos:
	$(GO) test -race -shuffle=on -run 'TestChaos' -v .

# The incident detection-latency benchmark, captured as timestamp-free
# JSON: cycles-to-detect per library scenario.
bench-detect:
	$(GO) test -run '^$$' -bench 'BenchmarkDetectLatency' -benchtime 1x . | $(GO) run ./cmd/benchjson -out BENCH_detect.json
	@echo "wrote BENCH_detect.json"

# The sharded-collection scale benchmark, captured as timestamp-free
# JSON: one supervised fleet cycle over a ~5k-router topology at 1, 4
# and 16 shards.
bench-scale:
	$(GO) test -run '^$$' -bench 'BenchmarkScaleCycle' -benchtime 1x . | $(GO) run ./cmd/benchjson -out BENCH_scale.json
	@echo "wrote BENCH_scale.json"

# The series-store benchmarks, captured as timestamp-free JSON: append
# throughput, compression ratio over ten years of cycles (floor: 5x vs
# raw CSV), and cold mirror query latency (floor: far under one
# 30-minute cycle).
bench-store:
	$(GO) test -run '^$$' -bench 'BenchmarkStore' -benchtime 1x . | $(GO) run ./cmd/benchjson -out BENCH_store.json
	@echo "wrote BENCH_store.json"

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
