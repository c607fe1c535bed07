#!/usr/bin/env bash
# Builds the benchmark from this source tree and runs it.
#
#   bash perfbench/run.sh --workload smt-cold|smt-session|qubo-coupled \
#     --seed N --seconds S --trace 0|1
#
# Run from the root of a source checkout. The build goes to dune's
# default _build directory (or DUNE_BUILD_DIR when set); the build log
# goes to stderr so stdout carries only the benchmark's report.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of a qsmt source checkout" >&2
  exit 2
fi

if ! command -v dune >/dev/null 2>&1; then
  if command -v opam >/dev/null 2>&1; then
    eval "$(opam env 2>/dev/null)" || true
  fi
fi
if ! command -v dune >/dev/null 2>&1; then
  echo "perfbench: dune not found" >&2
  exit 2
fi

dune build --root . --profile release ./perfbench/main.exe 1>&2
exec "${DUNE_BUILD_DIR:-_build}/default/perfbench/main.exe" "$@"
