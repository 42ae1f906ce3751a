#!/usr/bin/env bash
# Paired wall-time comparison of one workspace binary at two revisions.
#
#   scripts/bench_pair.sh <rev> -- <bin> [args...]
#
# Builds <bin> at <rev> (the parent) with `cargo build --release
# --offline` in a temporary git worktree under $TMPDIR, and at the
# working tree (the change) in place. Then it runs `<bin> [args...]`
# from each build in 20 pairs, each side first in half of them, in a
# random order, and prints:
#   * each pair's wall times and change/parent ratio;
#   * "k of 20 faster", the pairs the change won (ties count for neither);
#   * both medians and the parent's interquartile range;
#   * a verdict: a side is faster only when it wins at least 9 in 10 of
#     the pairs and the medians differ by more than the parent's
#     interquartile range, otherwise "unresolved".
# The worktree is removed on exit. Run nothing else meanwhile.
set -euo pipefail

if [[ $# -lt 3 || $2 != "--" ]]; then
    echo "usage: scripts/bench_pair.sh <rev> -- <bin> [args...]" >&2
    exit 2
fi
rev=$1
bin=$3
shift 3
pairs=20

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
scratch=$(mktemp -d "${TMPDIR:-/tmp}/bench_pair.XXXXXX")
cleanup() {
    git -C "$root" worktree remove --force "$scratch/tree" >/dev/null 2>&1 || true
    git -C "$root" worktree prune
    rm -rf "$scratch"
}
trap cleanup EXIT

git worktree add --quiet --detach "$scratch/tree" "$rev"
echo "==> building $bin at $rev" >&2
(cd "$scratch/tree" && CARGO_TARGET_DIR="$scratch/target" \
    cargo build --release --offline --quiet --bin "$bin")
echo "==> building $bin in the working tree" >&2
CARGO_TARGET_DIR="$root/target" cargo build --release --offline --quiet --bin "$bin"
parent_bin="$scratch/target/release/$bin"
change_bin="$root/target/release/$bin"

# Runs one binary with the shared arguments; leaves its wall time, in
# nanoseconds, in $elapsed.
run() {
    local start
    start=$(date +%s%N)
    "$1" "${@:2}" >/dev/null 2>"$scratch/stderr" || {
        cat "$scratch/stderr" >&2
        exit 1
    }
    elapsed=$(($(date +%s%N) - start))
}

: >"$scratch/times"
# Which side runs first: parent in half of the pairs, shuffled, so a
# drift or a first-run edge cannot line up with one side.
mapfile -t parent_first < <(for ((pair = 1; pair <= pairs; pair++)); do
    echo $((pair % 2))
done | shuf)
for ((pair = 1; pair <= pairs; pair++)); do
    if ((parent_first[pair - 1])); then
        run "$parent_bin" "$@"; parent=$elapsed
        run "$change_bin" "$@"; change=$elapsed
    else
        run "$change_bin" "$@"; change=$elapsed
        run "$parent_bin" "$@"; parent=$elapsed
    fi
    echo "$parent $change" >>"$scratch/times"
    awk -v i="$pair" -v p="$parent" -v c="$change" 'BEGIN {
        printf "pair %2d  parent %.4f s  change %.4f s  ratio %.4f\n", i, p / 1e9, c / 1e9, c / p
    }'
done

cut -d' ' -f1 "$scratch/times" | sort -n >"$scratch/parent"
cut -d' ' -f2 "$scratch/times" | sort -n >"$scratch/change"
awk -v pairs="$pairs" '
    FILENAME == ARGV[1] { wins += ($2 < $1); losses += ($2 > $1); next }
    FILENAME == ARGV[2] { parent[++np] = $1 / 1e9; next }
    { change[++nc] = $1 / 1e9 }
    function median(v, n) { return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2 }
    # Quartiles as the medians of the lower and upper halves.
    function quartile(v, n, upper,    half, i, part) {
        half = int(n / 2)
        for (i = 1; i <= half; i++) part[i] = upper ? v[n - half + i] : v[i]
        return median(part, half)
    }
    END {
        mp = median(parent, np); mc = median(change, nc)
        iqr = quartile(parent, np, 1) - quartile(parent, np, 0)
        printf "%d of %d faster\n", wins, pairs
        printf "median parent %.4f s, change %.4f s; parent interquartile range %.4f s\n", mp, mc, iqr
        need = 0.9 * pairs
        if (wins >= need && mp - mc > iqr) verdict = "change faster"
        else if (losses >= need && mc - mp > iqr) verdict = "change slower"
        else verdict = "unresolved"
        print "verdict: " verdict
    }
' "$scratch/times" "$scratch/parent" "$scratch/change"
