#!/bin/sh
# fleet_chaos_smoke.sh — node-loss smoke test of an mmserved fleet: boot
# two nodes over one shared data directory, submit four jobs, kill -9
# one node mid-run, and require that the survivor recovers the orphaned
# leases and drives every job to a certified terminal state — no job lost,
# no job committed twice. See docs/FLEET.md.
set -eu

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
node1_pid=""
node2_pid=""
cleanup() {
    [ -n "$node1_pid" ] && kill -9 "$node1_pid" 2>/dev/null || true
    [ -n "$node2_pid" ] && kill -9 "$node2_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

echo "==> build mmserved + mmgen"
go build -o "$workdir" ./cmd/mmserved ./cmd/mmgen

echo "==> generate a spec"
"$workdir/mmgen" -seed 5 -o "$workdir/inst.spec"
spec=$(cat "$workdir/inst.spec")

fleet="$workdir/fleet"

# boot_node <name> <stdout-file> [extra flags...]: start one fleet node in
# the background. Runs in the current shell (not a subshell) so the
# caller's `wait` can reap the process and read its exit status; pick up
# the pid via $!.
boot_node() {
    _name=$1; _out=$2; shift 2
    "$workdir/mmserved" -addr 127.0.0.1:0 -data "$fleet" -node-id "$_name" \
        -lease-ttl 1s -heartbeat 100ms -workers 2 -checkpoint-every 2 "$@" \
        > "$_out" 2> "$_out.err" &
}

await_base() { # await_base <stdout-file> <pid>
    base=""
    for _ in $(seq 50); do
        base=$(sed -n 's/^mmserved listening on //p' "$1")
        [ -n "$base" ] && break
        kill -0 "$2" 2>/dev/null || { cat "$1.err"; exit 1; }
        sleep 0.1
    done
    [ -n "$base" ] || { echo "mmserved never announced its address"; cat "$1.err"; exit 1; }
    echo "$base"
}

echo "==> boot two fleet nodes on a shared directory"
boot_node victim "$workdir/n1.out"
node1_pid=$!
boot_node survivor "$workdir/n2.out"
node2_pid=$!
base1=$(await_base "$workdir/n1.out" "$node1_pid")
base2=$(await_base "$workdir/n2.out" "$node2_pid")
echo "    victim   $base1"
echo "    survivor $base2"

echo "==> submit 4 jobs"
ids=""
for seed in 1 2 3 4; do
    job=$(curl -sfS -X POST "$base1/v1/jobs" \
        -d "$(printf '{"spec":%s,"seed":%d,"ga":{"pop_size":32,"max_generations":1500,"stagnation":1500}}' \
            "$(printf '%s' "$spec" | python3 -c 'import json,sys; print(json.dumps(sys.stdin.read()))')" "$seed")")
    id=$(printf '%s' "$job" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
    [ -n "$id" ] || { echo "submission returned no job id: $job"; exit 1; }
    ids="$ids $id"
done
echo "    accepted:$ids"

echo "==> wait for a job to run on the victim, then kill -9 it"
killed=no
for _ in $(seq 300); do
    for id in $ids; do
        st=$(curl -sfS "$base1/v1/jobs/$id")
        node=$(printf '%s' "$st" | sed -n 's/.*"node": *"\([^"]*\)".*/\1/p')
        state=$(printf '%s' "$st" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
        if [ "$state" = running ] && [ "$node" = victim ]; then
            kill -9 "$node1_pid"
            wait "$node1_pid" 2>/dev/null || true
            node1_pid=""
            killed=yes
            echo "    killed the victim while $id was running on it"
            break
        fi
    done
    [ "$killed" = yes ] && break
    sleep 0.1
done
[ "$killed" = yes ] || { echo "no job ever ran on the victim"; exit 1; }

echo "==> survivor recovers and finishes every job"
for id in $ids; do
    state=queued
    for _ in $(seq 1200); do
        state=$(curl -sfS "$base2/v1/jobs/$id" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
        case "$state" in
            done) break ;;
            failed|cancelled) echo "job $id ended $state"; curl -sfS "$base2/v1/jobs/$id"; exit 1 ;;
        esac
        sleep 0.1
    done
    [ "$state" = done ] || { echo "job $id stuck in state $state"; exit 1; }
    curl -sfS "$base2/v1/jobs/$id/result" | grep -q '"certified": true' || {
        echo "job $id finished uncertified"; exit 1; }
done

echo "==> exactly-once: one committed result per job"
for id in $ids; do
    n=$(ls "$fleet/jobs/$id"/result.e*.json 2>/dev/null | wc -l)
    [ "$n" -eq 1 ] || { echo "job $id has $n committed results, want 1"; exit 1; }
done

echo "==> the survivor stole at least one lease"
curl -sfS "$base2/metrics" | grep -q '"fleet.steals"' || {
    echo "no fleet.steals counter exported"; exit 1; }

echo "==> SIGTERM drains the survivor cleanly (exit 0)"
kill -TERM "$node2_pid"
if wait "$node2_pid"; then node2_pid=""; else
    echo "survivor exited non-zero after SIGTERM"; cat "$workdir/n2.out.err"; exit 1
fi

# ---------------------------------------------------------------------------
# Poison-job drill: a crash-looping job must exhaust its attempt budget and
# land in `quarantined` — while both nodes stay live and a healthy job
# submitted alongside it completes. Quarantined jobs commit no result
# document, so the exactly-once check above does not apply to them.
echo "==> poison-job drill: fresh two-node fleet with failpoints enabled"
fleet="$workdir/fleet-poison"
boot_node poison1 "$workdir/p1.out" -failpoints -max-attempts 2 -retry-backoff 200ms
node1_pid=$!
boot_node poison2 "$workdir/p2.out" -failpoints -max-attempts 2 -retry-backoff 200ms
node2_pid=$!
pbase1=$(await_base "$workdir/p1.out" "$node1_pid")
pbase2=$(await_base "$workdir/p2.out" "$node2_pid")
echo "    poison1 $pbase1"
echo "    poison2 $pbase2"

spec_json=$(printf '%s' "$spec" | python3 -c 'import json,sys; print(json.dumps(sys.stdin.read()))')
poison=$(curl -sfS -X POST "$pbase1/v1/jobs" \
    -d "$(printf '{"spec":%s,"seed":9,"failpoint":"panic","ga":{"pop_size":16,"max_generations":50,"stagnation":50}}' "$spec_json")")
poison_id=$(printf '%s' "$poison" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
good=$(curl -sfS -X POST "$pbase1/v1/jobs" \
    -d "$(printf '{"spec":%s,"seed":10,"ga":{"pop_size":16,"max_generations":50,"stagnation":50}}' "$spec_json")")
good_id=$(printf '%s' "$good" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
[ -n "$poison_id" ] && [ -n "$good_id" ] || { echo "poison drill submissions failed"; exit 1; }
echo "    poison $poison_id, healthy $good_id"

echo "==> the crash-looper reaches quarantined within its budget"
state=queued
for _ in $(seq 300); do
    state=$(curl -sfS "$pbase2/v1/jobs/$poison_id" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
    [ "$state" = quarantined ] && break
    case "$state" in done|failed|cancelled) echo "poison job ended $state, want quarantined"; exit 1 ;; esac
    sleep 0.1
done
[ "$state" = quarantined ] || { echo "poison job stuck in state $state"; exit 1; }
curl -sfS "$pbase2/v1/jobs/$poison_id" | grep -q '"attempts": *2' || {
    echo "quarantined job does not report the exhausted budget of 2"; exit 1; }

echo "==> both nodes survived the poison"
kill -0 "$node1_pid" || { echo "poison1 died"; cat "$workdir/p1.out.err"; exit 1; }
kill -0 "$node2_pid" || { echo "poison2 died"; cat "$workdir/p2.out.err"; exit 1; }

echo "==> the healthy job still completes, certified"
state=queued
for _ in $(seq 1200); do
    state=$(curl -sfS "$pbase1/v1/jobs/$good_id" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
    [ "$state" = done ] && break
    case "$state" in failed|cancelled|quarantined) echo "healthy job ended $state"; exit 1 ;; esac
    sleep 0.1
done
[ "$state" = done ] || { echo "healthy job stuck in state $state"; exit 1; }
curl -sfS "$pbase1/v1/jobs/$good_id/result" | grep -q '"certified": true' || {
    echo "healthy job finished uncertified"; exit 1; }

echo "==> quarantine is counted and degrades readiness on the node that decided"
q1=$(curl -sfS "$pbase1/metrics" | sed -n 's/.*"serve.jobs_quarantined": *\([0-9]*\).*/\1/p')
q2=$(curl -sfS "$pbase2/metrics" | sed -n 's/.*"serve.jobs_quarantined": *\([0-9]*\).*/\1/p')
[ $(( ${q1:-0} + ${q2:-0} )) -eq 1 ] || {
    echo "serve.jobs_quarantined across nodes = ${q1:-0}+${q2:-0}, want 1"; exit 1; }

echo "==> drain the poison fleet cleanly"
kill -TERM "$node1_pid" "$node2_pid"
if wait "$node1_pid"; then node1_pid=""; else
    echo "poison1 exited non-zero after SIGTERM"; cat "$workdir/p1.out.err"; exit 1
fi
if wait "$node2_pid"; then node2_pid=""; else
    echo "poison2 exited non-zero after SIGTERM"; cat "$workdir/p2.out.err"; exit 1
fi

echo "==> fleet chaos smoke OK"
