#!/usr/bin/env bash
# Builds the benchmark and the rdfqa server from source, then runs it:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --self-test
# Run from the repository root.  Build output goes to .bench_build (or
# $CARGO_TARGET_DIR when set); the build log goes to stderr so the last
# stdout line stays the JSON result.
set -euo pipefail
build="${CARGO_TARGET_DIR:-.bench_build}"
DUNE_CACHE=disabled dune build --root . --build-dir "$build" --profile release \
  ./perfbench/perfbench.exe ./bin/rdfqa.exe 1>&2
exec "$build/default/perfbench/perfbench.exe" \
  --server "$build/default/bin/rdfqa.exe" "$@"
