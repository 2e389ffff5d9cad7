#!/usr/bin/env bash
# vRIO benchmark entry point.  Run from the repository root.
#
#   bash benchmark/run.sh --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
#       One workload in one process; the last stdout line is the JSON
#       result.  --trace 1 prints the per-layer metrics instead of the
#       end-to-end ones and writes benchmark/out/trace_<name>.json.
#   bash benchmark/run.sh --smoke
#       The correctness gate of every workload at short windows.
#   bash benchmark/run.sh --repeat <n> [--trace 0|1] [--seconds <s>] [--first-seed <k>] [--out <file>]
#       Every workload n times (seeds k..k+n-1), collected into one
#       results file for benchmark/compare.py.
#
# The harness is built first, from ../src, into
# ${CARGO_TARGET_DIR:-.bench_build}/benchmark; build output goes to
# stderr so stdout carries results only.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}/benchmark"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

{
    flock 9
    generator=()
    if command -v ninja >/dev/null 2>&1; then
        generator=(-G Ninja)
    fi
    if [ ! -f "$build/build.ninja" ] && [ ! -f "$build/Makefile" ]; then
        cmake -S "$here" -B "$build" "${generator[@]}" \
            -DCMAKE_BUILD_TYPE=Release >&2
    fi
    cmake --build "$build" -j "$(nproc 2>/dev/null || echo 2)" >&2
} 9>"$build/.lock"

bin="$build/vrio_bench"
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@"
    fi
done
exec python3 "$here/suite.py" --bin "$bin" "$@"
