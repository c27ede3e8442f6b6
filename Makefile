# Local dev and CI run the exact same commands: the ci.yml jobs each invoke
# one of these targets.

GO ?= go

.PHONY: build test test-scalar race race-kernels chaos bench bench-module pairs loc microbench bench-codec bench-l0 bench-lp bench-query bench-serve bench-gate bench-baseline fuzz-codec serve-e2e profile lint lint-vet lint-fmt fmt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole suite on the portable scalar kernels. -count 1: the variant is
# read in a package init, which the test cache does not watch, so a cached
# run would re-report the default tier's results.
test-scalar:
	REPRO_KERNEL=scalar $(GO) test -count 1 ./...

# Race-detector run with coverage, the CI test job. Coverage lands in
# coverage.out (uploaded as a CI artifact).
race:
	$(GO) test -race -coverprofile=coverage.out -covermode=atomic ./...

# Race-detector sweep of the kernel-dispatched packages under each forced
# variant. REPRO_KERNEL names a variant the machine may not have (e.g. neon
# on amd64) — dispatch then falls back to scalar, so every leg is valid
# everywhere and the sweep additionally exercises that fallback under -race.
# -count 1: the variant is chosen in a package init, before the test cache
# starts watching the environment, so a cached result would stand in for a
# variant that never ran. Each leg first names, under -v, the tier it runs and
# whether its IFMA kernels are installed (TestActiveKernel): the tier name
# alone does not say whether the IFMA kernels ran on this machine.
race-kernels:
	for k in scalar avx2 avx512 neon; do \
		echo "== REPRO_KERNEL=$$k =="; \
		REPRO_KERNEL=$$k $(GO) test -count 1 -v -run '^TestActiveKernel$$' ./internal/kernel || exit 1; \
		REPRO_KERNEL=$$k $(GO) test -race -count 1 \
			./internal/kernel ./internal/field ./internal/hash \
			./internal/prng ./internal/sparse ./internal/countsketch \
			./internal/norm ./internal/core ./internal/duplicates ./internal/distinct \
			./internal/heavyhitters ./internal/moments \
			./internal/engine || exit 1; \
	done

# Chaos leg: the deterministic fault-injection property suites under -race.
# Each sweeps seeded fault schedules (torn checkpoint writes, fsync errors,
# bit flips, journal faults, worker panics, merge failures) and requires
# every run to end exact or with a typed error. A failing seed prints a
# REPRO_FAULTS=seed:rate one-liner that replays exactly that schedule.
chaos:
	$(GO) test -race -run 'TestChaosFaultSeeds|TestChaosWithoutStore|TestDurableKillRestartExactness|TestWorkerPanic' \
		-count 1 ./internal/engine
	$(GO) test -race -run 'TestKillRestartExactness|TestInjected' \
		-count 1 ./internal/checkpoint
	$(GO) test -race -run 'TestChaosServerFaultSeeds' \
		-count 1 ./internal/sketchd

# One iteration of every benchmark — a smoke test that the bench harness and
# the serial-vs-engine ingestion comparison still run, not a measurement.
bench:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# The repo's benchmark (bench/, BENCHMARK.json) is a module of its own that
# imports fifteen repro/internal packages, so `build` and `test` above never
# compile it. This vets it and runs its own tests (~25 s) against the
# working tree: a change that deletes or renames an internal symbol the
# benchmark uses fails here, not when the benchmark is next run.
bench-module:
	cd bench && $(GO) vet . && $(GO) test .

# Alternated parent/change pairs of one benchmark workload, with the verdict
# of the choosing-metrics guide's section 8 per end-to-end metric: each side's
# bench binary is built and run in its own tree (the parent's is unpacked from
# git into a temporary directory), which side goes first alternates.
#   make pairs PARENT=HEAD~1 WORKLOAD=l0_stream N=10
# Until the benchmark grows a -pairs mode of its own (ROADMAP item 10).
PARENT ?= HEAD
WORKLOAD ?= l0_stream
N ?= 10
pairs:
	scripts/pairs.sh $(PARENT) $(WORKLOAD) $(N)

# Non-test Go and assembly lines per package outside bench/, with the total;
# REF adds the net change against that ref (new files count once tracked).
#   make loc REF=HEAD~1
REF ?=
loc:
	scripts/loc.sh $(REF)

# Kernel micro-benchmarks (field multiply / exponentiation, scalar vs
# flat-batch hash kernels, count-sketch hot paths, the Nisan PRG's
# window-table block access and the transposed syndrome kernel) at a benchtime
# large enough to be meaningful in CI; the zero-allocation contract is
# enforced by the accompanying tests, the numbers land in the job log.
# BENCH_PR2.json / BENCH_PR3.json / BENCH_PR4.json hold the committed
# baseline-vs-after snapshots. bench-query (the PR-4 query-side suite) and
# bench-lp (the PR-14 Lp update path) are part of the umbrella.
microbench: bench-query bench-lp bench-codec bench-serve
	$(GO) test -run '^$$' -bench 'Mul$$|Pow|Eval|Scalar|Batch|Block' -benchtime 1000x \
		./internal/field ./internal/hash ./internal/countsketch \
		./internal/prng ./internal/sparse
	$(GO) test -run '^$$' -bench 'Kernel' -benchtime 1000x ./internal/kernel

# Wire-format microbenchmarks: raw codec framing throughput, per-kind
# marshal/unmarshal ns and wire bytes, and the full sharded
# export -> Load -> merge round (the distributed pattern's hot path).
bench-codec:
	$(GO) test -run '^$$' -bench 'Codec' -benchtime 2000x ./internal/codec
	$(GO) test -run '^$$' -bench 'MarshalSketch|UnmarshalSketch|ShardedExportMerge' -benchtime 20x .

# Serving-tier benchmarks: both sketchd ingest paths end-to-end through
# real HTTP — raw frames into the sharded engine, and pre-folded sketch
# uploads through the hierarchical merge tree. Also in the bench-gate set.
bench-serve:
	$(GO) test -run '^$$' -bench 'ServeIngest' -benchtime 20x .

# Short-budget fuzz smoke for the wire format, four targets: FuzzDecoder (the
# codec decoder surface), FuzzLoad (the public Load: header validation, config
# sanity bounds, payload framing), FuzzIngestFrame (sketchd's frame parser)
# and FuzzNegotiate (its version negotiator). CI runs this; locally raise
# -fuzztime for a real hunt.
fuzz-codec:
	$(GO) test -run '^$$' -fuzz FuzzDecoder -fuzztime 15s ./internal/codec
	$(GO) test -run '^$$' -fuzz FuzzLoad -fuzztime 15s .
	$(GO) test -run '^$$' -fuzz FuzzIngestFrame -fuzztime 15s ./internal/sketchd
	$(GO) test -run '^$$' -fuzz FuzzNegotiate -fuzztime 10s ./internal/sketchd

# Serving-tier end-to-end (the CI serve-e2e job): builds the real sketchd
# and sketchload binaries, then (1) drives 10k concurrent simulated
# exporters against a live server and requires the merged sketch to be
# byte-identical to serial ingestion, (2) SIGKILLs the server mid-ingest and
# requires the restart to serve exactly the last sealed generation plus the
# journal tail. SERVE_E2E_SMOKE=1 runs the same paths under a lighter load.
serve-e2e:
	$(GO) test -count 1 -run 'TestSketchd' ./integration

# The L0 fast-path benchmarks (the PR-3 and PR-24 headlines): the 1M-update
# serial and engine ingest through the Theorem 2 sampler and the sampler's
# own scalar and 2048-frame folds, plus the layers underneath — window-table
# block access in prng, the one-multiply syndrome kernel, the syndrome fold
# per tier at the sampler's 20 syndromes, the windowed rho^i and the
# recoverer's batch and scalar folds.
bench-l0:
	$(GO) test -run '^$$' -bench 'BenchmarkIngestL0' -benchtime 2x .
	$(GO) test -run '^$$' -bench 'L0SamplerProcess' -benchtime 2000x ./internal/core
	$(GO) test -run '^$$' -bench 'Block' -benchtime 100000x ./internal/prng
	$(GO) test -run '^$$' -bench 'KernelSyndromeAdd4' -benchtime 100000x ./internal/kernel
	$(GO) test -run '^$$' -bench 'KernelSyndromeFold' -benchtime 20000x ./internal/kernel
	$(GO) test -run '^$$' -bench 'PowCache|PowLadder' -benchtime 100000x ./internal/field
	$(GO) test -run '^$$' -bench 'ProcessBatchS10|ProcessScalarS10' -benchtime 2000x ./internal/sparse

# The Lp update path (the PR-14 headline): one k-wise row over a batch of keys
# (SIMD key lanes) beside the per-key scalar loop it replaced in hash, the
# kernel's one-row Horner at the degree of the Stable and scaling rows (k = 8)
# and its multi-row evaluation of a norm sketch's row group (k = 4 and 8), the
# Cauchy transform of the p = 1 stable sketch in kernel (2^20 distinct inputs
# per op: a short repeated slice lets the branch predictor learn math.tan),
# the AMS and p-stable sketches on top in norm, the whole sampler in core, and
# the end-to-end Theorem 1 batch ingest and Theorem 3 Observe (single letters
# buffered into the same fold) at the root.
bench-lp:
	$(GO) test -run '^$$' -bench 'SignBatchK4|ScalarSignK4|Float64BatchK8|ScalarFloat64K8' -benchtime 20000x ./internal/hash
	$(GO) test -run '^$$' -bench 'KernelPolyEvalBatchK8|KernelPolyEvalRowsK[48]' -benchtime 20000x ./internal/kernel
	$(GO) test -run '^$$' -bench 'KernelCauchy' -benchtime 20x ./internal/kernel
	$(GO) test -run '^$$' -bench 'StableAdd|AMSAdd' -benchtime 2000x ./internal/norm
	$(GO) test -run '^$$' -bench 'LpSamplerProcess' -benchtime 200x ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkIngestLpSerialBatched' -benchtime 5x .
	$(GO) test -run '^$$' -bench 'BenchmarkIngestDuplicateFinderObserve' -benchtime 20000x .

# Query-side benchmarks (the PR-4 and PR-13 headlines): memoized vs dirty L0
# and Lp sampling, the memoized and the dirty sparse-recovery decode (root
# finding at n = 2^12, 2^16 and 2^24), the blocked count-sketch decode and
# pruned top-m, and the end-to-end L0 sample (memoized, and dirty at
# n = 2^16 and 2^24), Lp sample and duplicates queries built on top (the
# root BenchmarkQuery* suite).
bench-query:
	$(GO) test -run '^$$' -bench 'L0SamplerSample|LpSamplerSample' -benchtime 200x ./internal/core
	$(GO) test -run '^$$' -bench 'RecoverDirty|RecoverS8N4096' -benchtime 200x ./internal/sparse
	$(GO) test -run '^$$' -bench 'BenchmarkDecode$$|BenchmarkTop$$' -benchtime 200x ./internal/countsketch
	$(GO) test -run '^$$' -bench 'BenchmarkQuery' -benchtime 20x .

# Benchmark regression gate (the CI bench-gate job): run the headline
# ingest/query suite (3 repetitions, best run wins) and compare against the
# committed BENCH_BASELINE.json, failing on a >10% geomean regression, any
# single benchmark >1.5x its baseline, or a missing benchmark. On PRs the
# CI job swaps the committed baseline for one the head's benchgate measures
# from the PR base on the same runner. See cmd/benchgate for -input /
# -threshold / -cap.
bench-gate:
	$(GO) run ./cmd/benchgate -baseline BENCH_BASELINE.json

# Refresh the committed baseline from the current machine. Run on a quiet
# machine of the same class as the gate runner, then commit the JSON
# alongside the change that moved the numbers.
bench-baseline:
	$(GO) run ./cmd/benchgate -baseline BENCH_BASELINE.json -update

# CPU profile of the 10M-update batched ingest (the headline workload):
# writes cpu.out for `go tool pprof cpu.out`.
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkIngestSerialBatched$$' -benchtime 2x \
		-cpuprofile cpu.out .

lint: lint-vet lint-fmt

# The arm64 pass is the one asmdecl check of kernel_arm64.s: the arm64 CI
# runners only build and test, and go test's vet subset has no asmdecl.
lint-vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

lint-fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

fmt:
	gofmt -w .
