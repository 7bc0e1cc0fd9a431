#!/usr/bin/env bash
# Build mccp_bench, then run workloads (see README.md).
#
#   benchmark/run.sh [--seed N] [--workloads a,b] [--trace] [--seconds S]
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# mccp_bench is built once per checkout into build-benchmark/, in the
# repository's default RelWithDebInfo configuration; later runs only check
# that it is up to date.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build-benchmark"
mkdir -p "$build/tmp"
# Compilers and the interpreter write scratch files; keep them in the checkout.
export TMPDIR="$build/tmp"
export PYTHONDONTWRITEBYTECODE=1

build_bench() {
  if [[ ! -f "$build/build.ninja" && ! -f "$build/Makefile" ]]; then
    local generator=()
    if command -v ninja >/dev/null; then generator=(-G Ninja); fi
    cmake -S "$root/benchmark" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo ||
      return
  fi
  cmake --build "$build" --target mccp_bench -j 3
}

# One build at a time per checkout, however many runs start together.
(
  flock 9
  if ! build_bench >"$build/build.log" 2>&1; then
    cat "$build/build.log" >&2
    echo "run.sh: build failed (log in $build/build.log)" >&2
    exit 1
  fi
) 9>"$build/build.lock"

exec python3 "$root/benchmark/run.py" "$@"
