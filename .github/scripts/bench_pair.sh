#!/usr/bin/env bash
# Same-runner speed and correctness check of a change against its base.
#
# Builds `mmtbench` (the crate under benchmark/) from a base commit and
# from HEAD, each exported with `git archive` into a temporary directory
# and built into its own target directory, then runs alternating pairs
# of one workload on this machine. The run order flips from pair to
# pair, so slow drift of the host hits both sides alike. The workload is
# `suite`, the fig5 grid at Base and MMT-FXR across the redundancy
# spectrum, so both the plain pipeline and the divergence paths (fetch
# sync, FHB, split, register merging) are timed; `lockstep` never
# diverges and misses a slowdown confined to those paths.
#
# The base is `git merge-base origin/$GITHUB_BASE_REF HEAD` on a pull
# request and `HEAD^` otherwise (a push). The check fails when
#   - any run exits non-zero or reports `"correct": false` (mmtbench
#     checks every job's digest against fast-forward and that repeated
#     passes agree bit for bit), or
#   - HEAD is slower in at least LOSSES_TO_FAIL of the PAIRS pairs AND
#     the median per-pair `wall_s` ratio HEAD/base exceeds 1 + the
#     `wall_s` bound that BENCHMARK.json declares.
# A per-pair table of every end-to-end metric BENCHMARK.json declares
# (base and head side by side; only `wall_s` decides) goes to stdout
# and, in CI, to the job summary, so allocator-sensitive metrics such as
# `setup_s` and `ffwd_minst_per_s` show their swings too. A metric one
# side does not report (say, one added since base) reads `n/a`.
#
# Usage (from anywhere in a checkout with history):
#   .github/scripts/bench_pair.sh
# Temporary trees go under $TMPDIR (default /tmp) and are removed on exit.
set -euo pipefail
shopt -s inherit_errexit

readonly WORKLOAD=suite
readonly PAIRS=6
readonly RUN_SECONDS=5
readonly LOSSES_TO_FAIL=5

root="$(git rev-parse --show-toplevel)"
cd "$root"

if [[ -n "${GITHUB_BASE_REF:-}" ]]; then
    base="$(git merge-base "origin/$GITHUB_BASE_REF" HEAD)"
else
    base="$(git rev-parse HEAD^)"
fi
head="$(git rev-parse HEAD)"
bound="$(jq -er '.end_to_end[] | select(.name == "wall_s") | .bound' BENCHMARK.json)"
# The other end-to-end metrics, shown beside wall_s but never judged.
mapfile -t others < <(jq -r '.end_to_end[].name | select(. != "wall_s")' BENCHMARK.json)

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# Export one commit and build its benchmark crate into a target
# directory of its own; prints the path of the binary.
build() {
    local side="$1" rev="$2"
    mkdir -p "$work/$side"
    git archive "$rev" | tar -x -C "$work/$side"
    cargo build --release --offline --quiet \
        --manifest-path "$work/$side/benchmark/Cargo.toml" \
        --target-dir "$work/$side-target" >&2
    echo "$work/$side-target/release/mmtbench"
}

echo "base ${base:0:12}, head ${head:0:12}: building mmtbench at both"
base_bin="$(build base "$base")"
head_bin="$(build head "$head")"

# Run one side once; prints its wall_s, then each of `others` ("n/a"
# where this side's mmtbench does not report it), one per line, or
# fails the check on a bad run.
run() {
    local side="$1" bin="$2" seed="$3"
    local log="$work/$side-$seed.log"
    if ! "$bin" --workload "$WORKLOAD" --seconds "$RUN_SECONDS" --seed "$seed" >"$log" 2>&1; then
        tail -n 20 "$log" >&2
        echo "FAIL: $side run at seed $seed exited non-zero" >&2
        return 1
    fi
    local result
    result="$(tail -n 1 "$log")"
    if [[ "$(jq -r '.correct' <<<"$result")" != true ]]; then
        tail -n 20 "$log" >&2
        echo "FAIL: $side run at seed $seed reported wrong output" >&2
        return 1
    fi
    jq -er '.metrics.wall_s.value' <<<"$result" | awk '{ printf "%.3f\n", $1 }'
    local m
    for m in "${others[@]}"; do
        jq -r --arg m "$m" '.metrics[$m].value // "n/a"' <<<"$result" |
            awk '$1 == "n/a" { print; next } { printf "%.4g\n", $1 }'
    done
}

table="| pair | first | base wall_s | head wall_s | head/base |"
rule="|---|---|---|---|---|"
for m in "${others[@]}"; do
    table+=" base $m | head $m |"
    rule+="---|---|"
done
table+=$'\n'"$rule"$'\n'
ratios=()
losses=0
for seed in $(seq 1 "$PAIRS"); do
    if ((seed % 2)); then
        first=base
        bs="$(run base "$base_bin" "$seed")"
        hs="$(run head "$head_bin" "$seed")"
    else
        first=head
        hs="$(run head "$head_bin" "$seed")"
        bs="$(run base "$base_bin" "$seed")"
    fi
    mapfile -t bs <<<"$bs"
    mapfile -t hs <<<"$hs"
    b="${bs[0]}" h="${hs[0]}"
    ratio="$(awk -v h="$h" -v b="$b" 'BEGIN { printf "%.3f", h / b }')"
    ratios+=("$ratio")
    if awk -v h="$h" -v b="$b" 'BEGIN { exit !(h > b) }'; then
        losses=$((losses + 1))
    fi
    row="| $seed | $first | $b | $h | $ratio |"
    line="pair $seed ($first first): base $b s, head $h s, ratio $ratio"
    for i in "${!others[@]}"; do
        row+=" ${bs[i + 1]} | ${hs[i + 1]} |"
        line+=", ${others[i]} ${bs[i + 1]} -> ${hs[i + 1]}"
    done
    table+="$row"$'\n'
    echo "$line"
done

median="$(printf '%s\n' "${ratios[@]}" | sort -g | awk '
    { r[NR] = $1 }
    END { printf "%.3f", NR % 2 ? r[(NR + 1) / 2] : (r[NR / 2] + r[NR / 2 + 1]) / 2 }')"
limit="$(awk -v b="$bound" 'BEGIN { printf "%.3f", 1 + b }')"
verdict=pass
if ((losses >= LOSSES_TO_FAIL)) && awk -v m="$median" -v l="$limit" 'BEGIN { exit !(m > l) }'; then
    verdict=FAIL
fi

summary="### mmtbench \`$WORKLOAD\` pairs: base \`${base:0:12}\` vs head \`${head:0:12}\`"$'\n\n'
summary+="$table"$'\n'
summary+="Head slower in $losses of $PAIRS pairs; median ratio $median"
summary+=" (fails at >= $LOSSES_TO_FAIL losses and median > $limit): **$verdict**"$'\n'
echo
echo "$summary"
if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
    echo "$summary" >>"$GITHUB_STEP_SUMMARY"
fi
[[ "$verdict" == pass ]]
