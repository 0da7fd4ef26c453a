#!/bin/sh
# perf_smoke.sh — end-to-end smoke test of the performance-trajectory
# pipeline: run mmperf on a small spec at a tiny GA budget, with and
# without voltage scaling, then diff each artifact against itself (which
# must be a clean exit 0) and the first against a synthetically slowed
# copy (which must flag a regression, exit 1). A schema or exit-code
# regression in the perf gate fails CI here even if no unit test covers
# it. Also exercises the lifecycle span stream: mmserved -lifecycle-trace
# through `mmtrace -lifecycle`. See docs/PERF.md.
set -eu

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT INT TERM

echo "==> build mmperf, mmtrace"
go build -o "$workdir" ./cmd/mmperf ./cmd/mmtrace

echo "==> measured run (mul1, 2 reps, tiny GA budget)"
"$workdir/mmperf" run -specs mul1 -reps 2 -warmups 0 \
    -pop 12 -gens 8 -stagnation 5 \
    -out "$workdir/bench.json"

echo "==> self-diff is clean (exit 0)"
"$workdir/mmperf" diff "$workdir/bench.json" "$workdir/bench.json"

echo "==> DVS run (mul1, voltage scaling on) and its self-diff (exit 0)"
"$workdir/mmperf" run -specs mul1 -dvs -reps 2 -warmups 0 \
    -pop 12 -gens 8 -stagnation 5 \
    -out "$workdir/bench_dvs.json"
"$workdir/mmperf" diff "$workdir/bench_dvs.json" "$workdir/bench_dvs.json"

echo "==> synthetic 10x wall-time regression is flagged (exit 1)"
# Multiply every wall_ns in the artifact by 10 (uniformly, so the change
# is far outside the rep-scatter noise gate); the diff gate must refuse.
awk '/"wall_ns":/ { n = $2 + 0; sub(/[0-9]+/, n * 10) } { print }' \
    "$workdir/bench.json" > "$workdir/slow.json"
if "$workdir/mmperf" diff "$workdir/bench.json" "$workdir/slow.json" > "$workdir/diff.txt" 2>&1; then
    echo "perf_smoke: diff accepted a 10x regression" >&2
    cat "$workdir/diff.txt" >&2
    exit 1
fi
grep -q 'REGRESSED' "$workdir/diff.txt"

echo "==> build mmserved (lifecycle span stream)"
go build -o "$workdir" ./cmd/mmserved

echo "==> boot mmserved with -lifecycle-trace and -access-log"
"$workdir/mmserved" -addr 127.0.0.1:0 -data "$workdir/data" -specs specs \
    -workers 1 -lifecycle-trace "$workdir/jobs.jsonl" \
    -access-log "$workdir/access.jsonl" \
    > "$workdir/stdout" 2> "$workdir/stderr" &
served_pid=$!
base=
for _ in $(seq 50); do
    base=$(sed -n 's/^mmserved listening on //p' "$workdir/stdout")
    [ -n "$base" ] && break
    kill -0 "$served_pid" 2>/dev/null || { cat "$workdir/stderr"; exit 1; }
    sleep 0.1
done
[ -n "$base" ] || { echo "mmserved never announced its address"; cat "$workdir/stderr"; exit 1; }

echo "==> run one job and drain"
job=$(curl -sfS -X POST "$base/v1/jobs" \
    -d '{"spec_name":"mul1","seed":1,"ga":{"pop_size":12,"max_generations":10,"stagnation":5}}')
id=$(printf '%s' "$job" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
[ -n "$id" ] || { echo "submission returned no job id: $job"; exit 1; }
state=queued
for _ in $(seq 600); do
    state=$(curl -sfS "$base/v1/jobs/$id" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
    [ "$state" = done ] && break
    sleep 0.1
done
[ "$state" = done ] || { echo "job stuck in state $state"; exit 1; }
kill -TERM "$served_pid"
wait "$served_pid" || { echo "mmserved exited non-zero"; cat "$workdir/stderr"; exit 1; }

echo "==> lifecycle span stream validates and renders a dwell table"
"$workdir/mmtrace" -lifecycle "$workdir/jobs.jsonl" | tee "$workdir/lifecycle.txt"
grep -q 'terminal: done 1' "$workdir/lifecycle.txt"

echo "==> access log has one JSON line per request, with the job id"
grep -q "\"job\":\"$id\"" "$workdir/access.jsonl"
grep -cq '"method":"POST"' "$workdir/access.jsonl"

echo "==> perf smoke OK"
