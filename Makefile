# Developer entry points. `make check` is the pre-commit gate: the full
# lint stack (gofmt + vet + mantralint) plus the suite under the race
# detector — the same gate CI runs.

GO ?= go

.PHONY: build vet fmt-check mantralint lint lint-json lint-sarif lint-baseline write-baseline test race bench bench-collect bench-archive bench-engine bench-detect bench-scale bench-store bench-smoke bench-json fuzz chaos chaos-shard figures check

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

# The cycle-engine schedule comparison: 64 skewed targets, pipelined
# (8 workers) vs serial. Pipelined must win.
bench-engine:
	$(GO) test -run '^$$' -bench 'BenchmarkCycleEngine' -benchtime 10x -count 3 .

# One iteration of every benchmark in every package — the CI smoke pass
# that keeps benchmarks compiling and running without timing anything.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The smoke pass plus the full-module lint benchmark, captured as
# timestamp-free JSON so runs can be diffed byte-for-byte. One iteration
# each: a record of what ran and its allocs/op, not timings to compare
# (the repeated series live in BENCH_scale/store/detect.json).
bench-json:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./... | $(GO) run ./cmd/benchjson -out BENCH_smoke.json
	@echo "wrote BENCH_smoke.json"

# Short fuzz passes over the dump validator, the pre-processor, the lint
# fact-summary extractor (no panics; byte-identical summaries across
# independent parse/check passes), and the differential targets that hold
# the in-place dump cursor, BuildSnapshot and the address parsers to
# their split-based references (same results, same error text).
fuzz:
	$(GO) test ./internal/core/collect -run '^$$' -fuzz '^FuzzValidateDump$$' -fuzztime 30s
	$(GO) test ./internal/core/collect -run '^$$' -fuzz '^FuzzPreprocess$$' -fuzztime 30s
	$(GO) test ./internal/lint -run '^$$' -fuzz '^FuzzSummaryExtract$$' -fuzztime 30s
	$(GO) test ./internal/core/collect -run '^$$' -fuzz '^FuzzCursorMatchesReference$$' -fuzztime 30s
	$(GO) test ./internal/core/tables -run '^$$' -fuzz '^FuzzBuildSnapshotMatchesReference$$' -fuzztime 30s
	$(GO) test ./internal/addr -run '^$$' -fuzz '^FuzzParseMatchesReference$$' -fuzztime 30s

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
# and 16 shards, five runs each (the simulator step is not timed), plus
# a median/min/max summary row per shard count.
bench-scale:
	$(GO) test -run '^$$' -bench 'BenchmarkScaleCycle' -benchtime 1x -count 5 . | $(GO) run ./cmd/benchjson -out BENCH_scale.json
	@echo "wrote BENCH_scale.json"

# The series-store benchmarks, captured as timestamp-free JSON: append
# throughput, compression ratio over ten years of cycles (floor: 5x vs
# raw CSV), and cold mirror query latency (floor: far under one
# 30-minute cycle). Five runs each; benchjson adds a median/min/max
# summary row per benchmark.
bench-store:
	$(GO) test -run '^$$' -bench 'BenchmarkStore' -benchtime 1x -count 5 . | $(GO) run ./cmd/benchjson -out BENCH_store.json
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
