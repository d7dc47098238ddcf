# Developer entry points. `make ci` is the gate every change must pass:
# vet, the invariant linters (the package-comment check included), the
# full test suite (the serve-smoke parity tests included), the
# Philly-scale streaming smoke benchmark, the test suite again under the race
# detector (the simulator is single-threaded, but the service runs its
# event loop, the standby follower and the HTTP handlers on separate
# goroutines around it), and vet plus tests of the end-to-end benchmark
# (perfbench/, its own module, which builds against this one's internal
# packages, so an API change here must keep it compiling). The focused
# targets below (docs, resume, serve-smoke, failover) are subsets of
# that gate, kept for running one surface alone.
# `make lint` runs cmd/mlfs-lint, the in-repo analyzer suite that
# mechanically enforces the determinism, epoch-cache and
# snapshot-completeness invariants of DESIGN.md §8, over the whole
# module in one pass (the snapstate/detflow analyzers need the
# cross-package call graph) with -stale-allows keeping the
# //mlfs:allow inventory honest (add `-json` by hand for
# machine-readable output); `make docs` fails if any package lacks a
# package comment.

GO ?= go

.PHONY: all build test vet lint docs race resume scale serve-smoke failover ci bench scalebench profile

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/mlfs-lint -stale-allows . ./internal/... ./cmd/... ./examples/...

# Documentation gate: every package (the library root included) must
# carry a package comment stating role, determinism contract and lint
# enrollment.
docs:
	$(GO) run ./cmd/mlfs-lint -checks pkgdoc . ./internal/... ./cmd/... ./examples/...

race:
	$(GO) test -race ./...

# Crash–replay pass: the snapshot codec/file-format tests plus the chaos
# harness (kill at random seeded ticks, resume from the latest snapshot,
# require bit-identical results) under the race detector on a small trace.
resume:
	$(GO) test -race ./internal/snapshot/... ./cmd/mlfs-sim/

# Philly-scale smoke: the streaming sparse core end to end —
# BenchmarkPhillyScale at its -short sizes ({200,400} jobs x 8 servers,
# the run and the backlogged round probe per cell) under the race
# detector (the real sweep is `make scalebench`).
scale:
	$(GO) test -race -short -run '^$$' -bench BenchmarkPhillyScale -benchtime 1x .

# Service smoke: boot the HTTP service in-process, drive 1000 seeded
# submissions through the API with the load generator, drain, and
# require /v1/result and /metrics to be bit-identical to a batch
# simulation over the journaled workload (DESIGN.md §14).
serve-smoke:
	$(GO) test ./internal/loadgen/ -run 'TestServeSmokeParity|TestOpenLoopAgainstLiveServer' -count=1 -v

# Failover chaos pass under the race detector: a hot standby tails the
# primary's replication stream, the primary is killed cold mid-run, the
# standby is promoted (explicitly and via -promote-on-loss) and takes
# the rest of the load; the promoted run must equal the batch oracle
# over its stitched journal; a promoted standby's DELETE of a job whose
# replicated cancel is not yet due journals and applies its own; every
# job's status is equal on each recovery rung (snapshot, journal-only,
# follower, old snapshot layout). Backpressure, oversized-submit and
# probe tests ride along — the full overload/failover surface in one
# target.
failover:
	$(GO) test -race ./internal/serve/ -run 'TestFailover|TestPromoteOnLoss|TestStatusParity|TestBackpressure|TestOversizedSubmit|TestReadyz' -count=1 -v

ci: vet lint test scale race
	cd perfbench && $(GO) vet . && $(GO) test .

# Micro-benchmarks of the simulator hot path (tick loop, iteration-cost
# cache, demand wobble), the NN engine (batched scoring, imitation
# updates, the in-situ MLF-RL scheduling round), the MLF-C
# learning-curve fit (grow-and-fit series, certified vs reference) and
# MLF-H's relief rounds on 550 servers (ns per migration, zero
# allocations), with allocation counts; then one pass of the end-to-end Figure-5 sweep
# (eight schedulers on the 550-server cluster at 1/1000 job counts, its
# mlfs avg JCT reported as a result fingerprint).
bench:
	$(GO) test ./internal/sim/ -run xxx -bench 'BenchmarkTick|BenchmarkIterationTime|BenchmarkWobbleDemands' -benchmem
	$(GO) test ./internal/learncurve/ -run xxx -bench BenchmarkPredictorFitSeries -benchmem
	$(GO) test ./internal/nn/ -run xxx -bench 'BenchmarkForwardBatch|BenchmarkImitationBatch' -benchmem
	$(GO) test ./internal/core/mlfrl/ -run xxx -bench BenchmarkMLFRLTick -benchtime 3x -benchmem
	$(GO) test ./internal/core/ -run xxx -bench BenchmarkMLFHRelieve -benchmem
	$(GO) test -run xxx -bench BenchmarkFig5_LargeScale -benchtime 1x .

# Philly-scale sweep: per-decision cost, peak heap, round telemetry and
# the backlogged round probe at {1k,10k,100k} jobs x {55,550} servers
# (about 5 min) -> results/bench_scale.txt: a commit line, then
# go test's output (goos/goarch/cpu lines, GOMAXPROCS as the name
# suffix), diffable between runs with benchstat.
scalebench:
	echo "commit: $$(git describe --always --dirty)" > results/bench_scale.txt
	$(GO) test -run '^$$' -bench BenchmarkPhillyScale -benchtime 1x -timeout 0 . >> results/bench_scale.txt
	cat results/bench_scale.txt

# CPU/heap pprof profiles of one BenchmarkPhillyScale cell (default:
# mlf-h at 100k jobs / 550 servers, the largest cell; override with
# PROFILE_JOBS / PROFILE_SERVERS / PROFILE_SCHED for a faster pass).
# Reading the profiles is documented in EXPERIMENTS.md. The cell runs
# the workload once and then the backlogged round probe, so the
# profile shows the production round path only. go test leaves its
# binary, mlfs.test, in the repository root (git-ignored).
PROFILE_JOBS ?= 100000
PROFILE_SERVERS ?= 550
PROFILE_SCHED ?= mlf-h
profile:
	mkdir -p results/pprof
	$(GO) test -run '^$$' -benchtime 1x -timeout 0 \
		-bench '^BenchmarkPhillyScale$$/^$(PROFILE_SCHED)$$/^servers=$(PROFILE_SERVERS)$$/^jobs=$(PROFILE_JOBS)$$' \
		-cpuprofile results/pprof/scalebench_cpu.prof \
		-memprofile results/pprof/scalebench_heap.prof .
