#!/usr/bin/env bash
# Paired perfbench regression gate: this tree against a parent revision.
#
#   bash ci/perfbench-paired.sh PARENT_REV > paired.jsonl
#
# Run from inside the repository. The script checks PARENT_REV out into
# a temporary git worktree and copies this tree's perfbench/ over it, so
# both sides run identical benchmark code against their own simulator.
# It then runs 3 pairs per workload (pointer-grid, stream-grid) of
#
#   bash perfbench/run.sh --workload W --seed i --seconds 10 --trace 0
#
# swapping which side runs first in each pair. Every run prints one JSON
# line on stdout in the shape of BENCH_trajectory.jsonl, with "side"
# naming the tree ("change" or "parent") and "pr" left null. The script
# exits 1 when a run is not `correct`, or when on either workload the
# change's median jobs_per_s or sim_minst_per_s is below 0.8x the
# parent's median. On stderr it also says, per workload, whether every
# change-side stats_digest equals every parent-side one (information
# only; it never fails the run). Needs git, jq and a Rust toolchain.
set -euo pipefail

parent_rev=${1:?usage: ci/perfbench-paired.sh PARENT_REV}
workloads=(pointer-grid stream-grid)
pairs=3
seconds=10
floor=0.8
metrics=(jobs_per_s sim_minst_per_s)

root=$(git rev-parse --show-toplevel)
cd "$root"
parent=$(git rev-parse --verify "$parent_rev^{commit}")
cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1)
host="nproc=$(nproc); ${cpu:-unknown CPU}"

tmp=$(mktemp -d)
wt="$tmp/parent"
cleanup() {
    git worktree remove --force "$wt" >/dev/null 2>&1 || true
    git worktree prune
    rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --detach --quiet "$wt" "$parent"
rm -rf "$wt/perfbench"
tar -cf - --exclude=perfbench/target perfbench | tar -xf - -C "$wt"

lines="$tmp/lines.jsonl"
failed=0

# run SIDE DIR WORKLOAD SEED: one perfbench run, printed and recorded.
run() {
    local side=$1 dir=$2 workload=$3 seed=$4
    local err="$tmp/$side-$workload-$seed.err" result digest line
    echo "[paired] $workload seed $seed: $side" >&2
    result=$(cd "$dir" && CARGO_TARGET_DIR="$dir/.bench_build" bash perfbench/run.sh \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        2>"$err" | tail -n 1) || true
    if ! jq -e '.correct == true' <<<"$result" >/dev/null 2>&1; then
        echo "[paired] $side $workload seed $seed is not correct; its stderr:" >&2
        cat "$err" >&2
        failed=1
        result=${result:-null}
        jq -e . <<<"$result" >/dev/null 2>&1 || result=null
    fi
    digest=$(sed -n 's/.*stats_digest \([0-9a-f]*\).*/\1/p' "$err" | tail -n 1)
    line=$(jq -cn --arg parent "$parent" --arg side "$side" --arg workload "$workload" \
        --argjson seed "$seed" --argjson seconds "$seconds" --arg host "$host" \
        --arg digest "$digest" --argjson result "$result" \
        '{pr: null, parent: $parent, side: $side, workload: $workload, seed: $seed,
          seconds: $seconds, host: $host, stats_digest: $digest, result: $result}')
    echo "$line" | tee -a "$lines"
}

for workload in "${workloads[@]}"; do
    for seed in $(seq 1 "$pairs"); do
        if ((seed % 2)); then
            run parent "$wt" "$workload" "$seed"
            run change "$root" "$workload" "$seed"
        else
            run change "$root" "$workload" "$seed"
            run parent "$wt" "$workload" "$seed"
        fi
    done
done

# median SIDE WORKLOAD METRIC over the recorded runs.
median() {
    jq -s --arg side "$1" --arg workload "$2" --arg metric "$3" \
        '[.[] | select(.side == $side and .workload == $workload)
              | .result.metrics[$metric].value // empty]
         | sort | if length == 0 then 0 else .[length / 2 | floor] end' "$lines"
}

# digests SIDE WORKLOAD: the distinct stats_digests of the recorded runs.
digests() {
    jq -rs --arg side "$1" --arg workload "$2" \
        '[.[] | select(.side == $side and .workload == $workload) | .stats_digest]
         | unique | join(",")' "$lines"
}

# Digest agreement is information only: a change that means to move
# simulated results moves its digests too, so a mismatch fails nothing.
for workload in "${workloads[@]}"; do
    change=$(digests change "$workload")
    parent_digests=$(digests parent "$workload")
    if [[ -n $change && $change != *,* && $change == "$parent_digests" ]]; then
        echo "[paired] $workload stats_digest: every change run equals every parent run ($change)" >&2
    else
        echo "[paired] $workload stats_digest: differ (change $change; parent $parent_digests)" >&2
    fi
done

for workload in "${workloads[@]}"; do
    for metric in "${metrics[@]}"; do
        change=$(median change "$workload" "$metric")
        parent_median=$(median parent "$workload" "$metric")
        verdict=$(awk -v c="$change" -v p="$parent_median" -v f="$floor" \
            'BEGIN { r = p > 0 ? c / p : 0; printf "%.3f %s", r, (r >= f ? "ok" : "REGRESSED") }')
        echo "[paired] $workload $metric: change $change / parent $parent_median = ${verdict% *}x (floor ${floor}x) ${verdict#* }" >&2
        [[ $verdict == *ok ]] || failed=1
    done
done
exit "$failed"
