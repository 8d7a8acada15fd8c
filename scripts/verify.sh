#!/usr/bin/env bash
# verify.sh — the full correctness gate for this repository.
#
# Runs, in order:
#   1. go build ./...              compile everything
#   2. go vet ./...                the stock vet analyzers
#   3. go run ./cmd/divlint ./...  the project-invariant suite
#                                  (floatcmp, errcheck, lockcopy,
#                                  maporder, libprint, goleak, errwrap,
#                                  hotalloc, ctxflow, atomicmix, plus
#                                  the stale-suppression audit; see
#                                  DESIGN.md §8)
#   4. go test -race ./...         all tests under the race detector;
#                                  the Parallel-vs-FPGrowth stress test
#                                  is this tier's primary target
#   5. race tier                   the concurrent subsystems twice
#                                  more under -race, since extra runs
#                                  buy extra schedules: every test of
#                                  registry (sharded-registry property
#                                  tests), jobs (rehydration
#                                  single-flight, submit/cancel/shutdown
#                                  interleavings), server (the HTTP
#                                  surface of every tier), monitor
#                                  (ingest vs. window advance vs.
#                                  delete), lattice (navigation cache
#                                  churn), permtest (atomic permutation
#                                  claims, deterministic buffer merges),
#                                  cluster (ring, gossip, hedged
#                                  forwards, seeded chaos) and admission
#                                  (quotas, rate limits, fair queueing);
#                                  plus the anytime, top-K and
#                                  significance tests of fpm and core,
#                                  where the byte-identity and top-K
#                                  differentials must hold under the
#                                  race detector too
#   5b. telemetry-ordering tier    partial snapshots and progress
#                                  published from parallel mining and
#                                  permutation workers only move
#                                  forward, live and after recovery,
#                                  and an analysis's final snapshot is
#                                  its summary top: the ordering tests
#                                  200 times, and the permutation
#                                  progress test 20 times under -race
#   6. fault-injection tier        the disk-facing subsystems (faultfs
#                                  injector, registry spill tier, WAL
#                                  chaos tests, spill e2e) once more
#                                  under -race with the fault schedule
#                                  seeded via DIVEX_FAULT_SEED
#                                  (default 1; export a different
#                                  positive integer to explore other
#                                  deterministic schedules — the seed
#                                  is echoed so any failure reproduces)
#   7. fuzz smoke                  each native fuzz target for 10s of
#                                  fresh input generation on top of the
#                                  checked-in seed corpus (one target
#                                  per package per run, as go test
#                                  requires)
#   8. coverage summary            per-package statement coverage for
#                                  the durability layer (internal/jobs)
#                                  and the miners the differential
#                                  suite guards (internal/fpm) —
#                                  informational, printed not gated
#   9. benchmark smoke             every benchmark once, so a bench that
#                                  panics or no longer compiles fails
#                                  the gate, not the next perf session
#  10. perf snapshot (opt-in)      with DIVEX_BENCH=1, scripts/bench.sh
#                                  re-measures the mine / register /
#                                  disk-fallthrough benchmarks and
#                                  rewrites BENCH_<date>.json — the
#                                  perf-trajectory artifact. Off by
#                                  default: real measurements need a
#                                  quiet machine, not a CI neighbor
#
# Exits non-zero on the first failing step. CI runs exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> divlint ./..."
go run ./cmd/divlint ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> race tier (concurrent subsystems + anytime/top-K/significance differentials, -count=2)"
go test -race -count=2 ./internal/{registry,jobs,server,monitor,lattice,permtest,cluster,admission}/...
go test -race -count=2 -run 'Anytime|SampleRows|ExploreTopK|Permutation|WY|PermFDR|CoverIndex|MaxEnt|Significance' \
    ./internal/fpm ./internal/core

echo "==> telemetry-ordering tier (snapshot seq + progress monotone under parallel workers, final snapshot = summary top)"
go test -count=200 -run 'TestRecoverReattachesPartialSnapshot|TestPartialSeqMonotoneUnderParallelMining|TestFinalPartialEqualsSummaryTop' ./internal/jobs
go test -race -count=20 -run TestProgressReachesTotal ./internal/permtest

echo "==> fault-injection tier (seed ${DIVEX_FAULT_SEED:-1})"
DIVEX_FAULT_SEED="${DIVEX_FAULT_SEED:-1}" \
    go test -race -run 'Chaos|Spill|Fault|Injector|Retry|Transient|OSPassthrough|RemoveIsTotal|DeleteDatasetPurges' \
    ./internal/faultfs ./internal/registry ./internal/jobs ./internal/server

echo "==> fuzz smoke (10s per target)"
go test -run=NONE -fuzz='^FuzzParseCSV$' -fuzztime=10s ./internal/dataset
go test -run=NONE -fuzz='^FuzzDiscretize$' -fuzztime=10s ./internal/discretize
go test -run=NONE -fuzz='^FuzzParseEvent$' -fuzztime=10s ./internal/monitor
go test -run=NONE -fuzz='^FuzzExploreRequest$' -fuzztime=10s ./internal/server
go test -run=NONE -fuzz='^FuzzSignificanceRequest$' -fuzztime=10s ./internal/server

echo "==> coverage summary (jobs, fpm)"
go test -cover ./internal/jobs ./internal/fpm | awk '{print "    " $0}'

echo "==> benchmark smoke (one iteration each)"
go test -run=NONE -bench=. -benchtime=1x ./...

if [[ -n "${DIVEX_BENCH:-}" ]]; then
    echo "==> perf snapshot (DIVEX_BENCH set)"
    ./scripts/bench.sh
fi

echo "verify: all gates passed"
