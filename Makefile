# Developer entry points. `make ci` is what the CI workflow runs.

GO ?= go

.PHONY: all build test race vet lint bench-pins fuzz-smoke trace-smoke serve-smoke fleet-smoke cache-smoke perf-smoke certify bench ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Domain invariant checkers (determinism, cancellation, numeric safety,
# hot-path allocations, lock discipline, rename durability); see
# docs/LINT.md. Exit 1 means findings, exit 2 usage/load error. The first
# run covers the whole module including cmd/; the second names the
# analyzer framework explicitly so mmlint keeps linting itself even if
# the module-wide pattern is ever narrowed.
lint:
	$(GO) run ./cmd/mmlint ./...
	$(GO) run ./cmd/mmlint ./internal/lint/...

# Allocation pins: every //mm:noalloc function must run with
# testing.AllocsPerRun == 0, with 1:1 coverage between annotations and
# pins (see internal/allocpin and docs/LINT.md).
bench-pins:
	$(GO) test -run TestAllocPins -count=1 ./internal/sched ./internal/synth ./internal/dvs ./internal/ga ./internal/allocpin

# Short native-fuzzing bursts over the untrusted-input readers (spec files
# and checkpoints); the minimiser is capped so large seed-corpus entries
# cannot stall the run (see scripts/ci.sh).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzRead -fuzztime=5s -fuzzminimizetime=5s ./internal/specio
	$(GO) test -run='^$$' -fuzz=FuzzCanonical -fuzztime=5s -fuzzminimizetime=5s ./internal/specio
	$(GO) test -run='^$$' -fuzz=FuzzCheckpoint -fuzztime=5s -fuzzminimizetime=5s ./internal/runctl

# Observability smoke: a traced mmsynth run on a small spec, every JSONL
# event and the metrics snapshot validated by mmtrace. See
# docs/OBSERVABILITY.md.
trace-smoke:
	./scripts/trace_smoke.sh

# Job-service smoke: boot mmserved on a free port over a copy of the legacy
# single-node fixture, require the converted jobs to serve and finish,
# drive one synthesis job over HTTP to a certified result, then SIGTERM and
# require a clean drain. See docs/SERVER.md.
serve-smoke:
	./scripts/serve_smoke.sh

# Fleet chaos smoke: two mmserved nodes on a shared data directory, four
# jobs, kill -9 one node mid-run; the survivor must finish every job
# exactly once with certified results. See docs/FLEET.md.
fleet-smoke:
	./scripts/fleet_chaos_smoke.sh

# Result-cache smoke: submit, resubmit (must hit, terminal at birth),
# corrupt the entry (must miss and re-run, never serve bad bytes), then a
# batch of 6 cells with 2 duplicates (must run exactly 4 jobs). See
# docs/CACHE.md.
cache-smoke:
	./scripts/cache_smoke.sh

# Oracle-check the whole benchmark suite: every spec through
# `mmsynth -certify` at a small GA budget, plus a fault-injection negative
# control that must exit 4. See docs/VERIFY.md.
certify:
	./scripts/certify.sh

# Performance-trajectory smoke: mmperf measures a small spec, its artifact
# must self-diff clean and flag a synthetic 10x regression; then one
# mmserved job with -lifecycle-trace/-access-log, validated through
# mmtrace -lifecycle. See docs/PERF.md.
perf-smoke:
	./scripts/perf_smoke.sh

bench:
	$(GO) test -bench=. -benchmem ./...

ci:
	./scripts/ci.sh
