#!/usr/bin/env bash
# Builds the gcr libraries, gcr_serve and the gcrbench harness from this
# source tree into .bench_build/, then runs one benchmark workload:
#
#   bash gcrbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the harness's last stdout line is the JSON
# result.  Exits non-zero without a result outside a gcr source tree.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "gcrbench: no gcr source tree around $here" >&2
  exit 2
fi

build="$root/.bench_build"
if [[ ! -f "$build/.configured" ]]; then
  rm -rf "$build"
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S "$here" -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release >&2
  touch "$build/.configured"
fi
cmake --build "$build" --target gcrbench example_gcr_serve \
  -j "$(nproc 2>/dev/null || echo 4)" >&2

exec "$build/gcrbench" --server "$build/gcr/example_gcr_serve" "$@"
