#!/usr/bin/env bash
# Perf-regression gate: runs perfbench from two source trees in alternating
# pairs and checks the change against the parent with `bench_diff`, within
# the end-to-end bounds of the change's BENCHMARK.json.
#
# Usage: ci/perf_gate.sh PARENT_DIR CHANGE_DIR
#
# Each tree (without its target/ and .git) is copied in turn to one fixed
# path, CHANGE_DIR/target/perf_gate/src, and its perfbench is built
# --offline from there into its own target directory under
# CHANGE_DIR/target/perf_gate, next to the two run logs (parent.txt,
# change.txt). Every workload runs PAIRS pairs of one parent and one change
# run; who goes first flips each pair, so a drift in host speed falls on
# both sides. perfbench checks every answer and exits 1 on a wrong one,
# which fails the gate. Exit status: bench_diff's (0 pass, 1 regression or
# missing metric, 2 unreadable input), or 1 when a build or a run fails.
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 PARENT_DIR CHANGE_DIR" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)

# The measured settings: 3 pairs of 2-second untraced runs per workload,
# about 80 s of runs in all. bench_diff fails on a workload of
# BENCHMARK.json that is missing here.
WORKLOADS="serve_exact serve_float ingest_update"
PAIRS=3
RUN_FLAGS=(--seed 1 --seconds 2 --trace 0)

work="$change/target/perf_gate"
mkdir -p "$work"
: > "$work/parent.txt"
: > "$work/change.txt"

# Both sides build from one fixed path, so their binaries differ only where
# their sources do: cargo hashes a path dependency's location into symbol
# names, and two checkout paths alone shift code layout (EXPERIMENTS.md
# §E-16). The copy gets fresh mtimes (--touch), so a cached target
# directory always rebuilds from the sources just copied.
src="$work/src"
for side in parent change; do
  dir=${!side}
  echo "perf_gate: building perfbench ($side: $dir, copied to $src)"
  rm -rf "$src"
  mkdir -p "$src"
  tar -C "$dir" --exclude=./target --exclude=./perfbench/target --exclude=./.git \
    --exclude=./.bench_build -cf - . | tar -C "$src" --touch -xf -
  CARGO_TARGET_DIR="$work/$side-target" \
    cargo build --release --offline --quiet --manifest-path "$src/perfbench/Cargo.toml"
done

run() {
  local side=$1 workload=$2
  if ! "$work/$side-target/release/treelineage-perfbench" \
      --workload "$workload" "${RUN_FLAGS[@]}" >> "$work/$side.txt"; then
    echo "perf_gate: $side run of $workload failed (see $work/$side.txt)" >&2
    exit 1
  fi
}

for workload in $WORKLOADS; do
  for ((pair = 0; pair < PAIRS; pair++)); do
    echo "perf_gate: $workload pair $((pair + 1))/$PAIRS"
    if ((pair % 2 == 0)); then
      run parent "$workload"
      run change "$workload"
    else
      run change "$workload"
      run parent "$workload"
    fi
  done
done

cargo run --release --offline --quiet --manifest-path "$change/Cargo.toml" \
  -p treelineage-bench --bin bench_diff -- \
  "$change/BENCHMARK.json" "$work/parent.txt" "$work/change.txt"
