#!/usr/bin/env bash
# Build the benchmark program from source and run it with the given
# arguments: --workload NAME --seed N --seconds S --trace 0|1.
# Run from the repository root.
set -euo pipefail
[ -f perfbench/dune ] && [ -f dune-project ] || { echo "run.sh: no dune-project here; run from the repository root, the benchmark builds the library from source" >&2; exit 2; }
# its own build directory, so it never fights a dev-profile _build
dune build --root . --build-dir .bench_build --profile release --display quiet \
  ./perfbench/bench.exe 1>&2
exec ./.bench_build/default/perfbench/bench.exe "$@"
