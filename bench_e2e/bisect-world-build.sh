#!/usr/bin/env bash
# Same-machine bisect of the paper-scale world build: clones this
# repository into WORK_DIR, builds each commit's daas-lab, runs
# `daas-lab --scale 1.0 --exp table1` RUNS times and prints the median of
# the world time it reports — the timer paper-batch reads as setup_s.
#
# usage: bench_e2e/bisect-world-build.sh WORK_DIR [RUNS] [COMMIT...]
# default commits: every commit from d553e4f to HEAD that changed code.
set -euo pipefail

work=${1:?usage: $0 WORK_DIR [RUNS] [COMMIT...]}
runs=${2:-5}
shift $(( $# < 2 ? $# : 2 ))
repo=$(git rev-parse --show-toplevel)
if [ $# -gt 0 ]; then
    commits=("$@")
else
    mapfile -t commits < <(git -C "$repo" rev-list --reverse d553e4f^..HEAD -- crates src shims Cargo.toml Cargo.lock)
fi

mkdir -p "$work"
[ -d "$work/src" ] || git clone -q "$repo" "$work/src"
export CARGO_TARGET_DIR="$work/target"

printf '%-12s %-10s %s\n' commit median_s samples_s
for c in "${commits[@]}"; do
    git -C "$work/src" checkout -q "$c"
    cargo build --release --offline -q --manifest-path "$work/src/Cargo.toml" -p daas-cli --bin daas-lab
    samples=()
    for _ in $(seq "$runs"); do
        line=$("$CARGO_TARGET_DIR/release/daas-lab" --scale 1.0 --seed 42 --exp table1 2>&1 >/dev/null | grep '^world ')
        # `world 1.41s | …` or `world 987.65ms | …`
        samples+=("$(awk '{v=$2; if (v ~ /ms$/) {sub(/ms$/,"",v); v/=1000} else sub(/s$/,"",v); print v}' <<<"$line")")
    done
    median=$(printf '%s\n' "${samples[@]}" | sort -g | awk '{a[NR]=$1} END {print (NR%2 ? a[(NR+1)/2] : (a[NR/2]+a[NR/2+1])/2)}')
    printf '%-12s %-10s %s\n' "$(git -C "$work/src" rev-parse --short "$c")" "$median" "${samples[*]}"
done
