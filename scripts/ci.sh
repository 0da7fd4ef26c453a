#!/bin/sh
# ci.sh — the full verification pipeline, runnable locally and in CI.
# Fails fast on the first broken step.
set -eu

cd "$(dirname "$0")/.."

echo "==> go vet"
go vet ./...

# Domain invariant checkers: determinism of the stochastic kernels,
# cancellation flow, float-comparison discipline, goroutine panic barriers,
# enum-switch exhaustiveness, hot-path allocations, lock discipline and
# rename durability. See docs/LINT.md.
echo "==> mmlint"
go run ./cmd/mmlint ./...

# Self-lint: the analyzer framework is held to its own rules.
echo "==> mmlint self-lint"
go run ./cmd/mmlint ./internal/lint/...

# Allocation pins: every //mm:noalloc function must prove
# testing.AllocsPerRun == 0 with 1:1 annotation/pin coverage
# (internal/allocpin, docs/LINT.md).
echo "==> bench-pins (//mm:noalloc AllocsPerRun pins)"
make bench-pins

echo "==> go build"
go build ./...

echo "==> go test -race"
go test -race ./...

# Fuzz smoke: short native-fuzzing bursts over the untrusted-input readers
# (spec files and checkpoints). The minimise time must be capped — the
# default 60s minimiser can dwarf the fuzz time itself on the ~30KB seed
# corpus entries.
echo "==> fuzz smoke (specio.FuzzRead)"
go test -run='^$' -fuzz=FuzzRead -fuzztime=5s -fuzzminimizetime=5s ./internal/specio

echo "==> fuzz smoke (specio.FuzzCanonical)"
go test -run='^$' -fuzz=FuzzCanonical -fuzztime=5s -fuzzminimizetime=5s ./internal/specio

echo "==> fuzz smoke (runctl.FuzzCheckpoint)"
go test -run='^$' -fuzz=FuzzCheckpoint -fuzztime=5s -fuzzminimizetime=5s ./internal/runctl

# Observability smoke: a traced synthesis and benchmark row, every JSONL
# event and the metrics snapshot schema-validated by mmtrace.
echo "==> trace smoke (mmsynth -trace/-metrics through mmtrace)"
./scripts/trace_smoke.sh

# Job-service smoke: boot mmserved over a copy of the legacy single-node
# fixture (converted jobs serve and finish), one job over HTTP to a
# certified result, clean SIGTERM drain (exit 0).
echo "==> serve smoke (mmserved job service)"
./scripts/serve_smoke.sh

# Fleet chaos smoke: two nodes over one shared data directory, four jobs,
# kill -9 one node mid-run; the survivor must steal the orphaned leases and
# finish every job exactly once with certified results.
echo "==> fleet chaos smoke (mmserved multi-node node-loss recovery)"
./scripts/fleet_chaos_smoke.sh

# Result-cache smoke: resubmission must hit the content-addressed cache,
# a corrupted entry must be evicted and re-run (never served), and a batch
# of 6 cells with 2 duplicates must run exactly 4 jobs.
echo "==> cache smoke (mmserved result cache + batch API)"
./scripts/cache_smoke.sh

# Performance-trajectory smoke: mmperf run + self-diff (exit 0) + a
# synthetic regression the gate must flag (exit 1), then one mmserved job
# with lifecycle tracing and the access log, validated by mmtrace.
echo "==> perf smoke (mmperf run/diff, mmserved -lifecycle-trace)"
./scripts/perf_smoke.sh

# Certification sweep: every benchmark spec through `mmsynth -certify` at
# a small GA budget, plus a fault-injection negative control (exit 4).
echo "==> certify (specs/ through mmsynth -certify)"
./scripts/certify.sh

echo "==> OK"
