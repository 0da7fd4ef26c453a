#!/bin/sh
# serve_smoke.sh — end-to-end smoke test of the mmserved job service: boot
# the daemon on a free port over a copy of a data directory written in the
# single-node layout of earlier releases (internal/serve/testdata/
# legacy-data), require the converted done job to serve its old result
# document byte for byte and the converted queued job to finish certified,
# submit one new synthesis job over HTTP and poll it to certified
# completion, then SIGTERM the server and require a clean exit 0. A
# regression in the HTTP API, the job store migration, the worker pool or
# the drain path fails CI here even if no unit test covers it. See
# docs/SERVER.md.
set -eu

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT INT TERM

echo "==> build mmserved"
go build -o "$workdir" ./cmd/mmserved

legacy=internal/serve/testdata/legacy-data
cp -R "$legacy" "$workdir/data"

echo "==> boot mmserved on a legacy data dir (specs/ as the named-spec directory)"
"$workdir/mmserved" -addr 127.0.0.1:0 -data "$workdir/data" -specs specs \
    -workers 2 > "$workdir/stdout" 2> "$workdir/stderr" &
served_pid=$!
# The first stdout line announces the resolved listen address.
for _ in $(seq 50); do
    base=$(sed -n 's/^mmserved listening on //p' "$workdir/stdout")
    [ -n "$base" ] && break
    kill -0 "$served_pid" 2>/dev/null || { cat "$workdir/stderr"; exit 1; }
    sleep 0.1
done
[ -n "$base" ] || { echo "mmserved never announced its address"; cat "$workdir/stderr"; exit 1; }
echo "    $base"

# await_state <job> <state>: poll the job until it reaches the state.
await_state() {
    state=""
    for _ in $(seq 600); do
        state=$(curl -sfS "$base/v1/jobs/$1" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
        [ "$state" = "$2" ] && return 0
        case "$state" in
            done|failed|cancelled|quarantined) echo "job $1 ended $state, want $2"; curl -sfS "$base/v1/jobs/$1"; exit 1 ;;
        esac
        sleep 0.1
    done
    echo "job $1 stuck in state $state"; exit 1
}

echo "==> the converted done job serves its legacy result byte for byte"
curl -sfS "$base/v1/jobs/j000001/result" > "$workdir/j000001.json"
cmp "$workdir/j000001.json" "$legacy/jobs/j000001/result.json" || {
    echo "converted result differs from the legacy result.json"; exit 1; }

echo "==> the converted queued job finishes certified"
await_state j000007 done
curl -sfS "$base/v1/jobs/j000007/result" | grep -q '"certified": true' || {
    echo "converted queued job finished uncertified"; exit 1; }

echo "==> submit one job (named spec mul1, small GA budget)"
job=$(curl -sfS -X POST "$base/v1/jobs" \
    -d '{"spec_name":"mul1","dvs":true,"seed":1,"ga":{"pop_size":16,"max_generations":40,"stagnation":15}}')
id=$(printf '%s' "$job" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
[ -n "$id" ] || { echo "submission returned no job id: $job"; exit 1; }
echo "    job $id accepted"

echo "==> poll to completion"
await_state "$id" done

echo "==> fetch certified result"
result=$(curl -sfS "$base/v1/jobs/$id/result")
printf '%s' "$result" | grep -q '"certified": true' || {
    echo "result is not certified:"; printf '%s\n' "$result"; exit 1; }
printf '%s' "$result" | grep -q '"feasible": true' || {
    echo "result is not feasible:"; printf '%s\n' "$result"; exit 1; }

echo "==> metrics account for both jobs"
done_count=$(curl -sfS "$base/metrics" | sed -n 's/.*"serve.jobs_done": *\([0-9]*\).*/\1/p')
[ "${done_count:-0}" -ge 2 ] || { echo "serve.jobs_done = ${done_count:-0}, want >= 2"; exit 1; }

echo "==> SIGTERM drains cleanly (exit 0)"
kill -TERM "$served_pid"
if wait "$served_pid"; then :; else
    echo "mmserved exited non-zero after SIGTERM"; cat "$workdir/stderr"; exit 1
fi

echo "==> serve smoke OK"
