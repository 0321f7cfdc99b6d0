#!/usr/bin/env bash
# Build the end-to-end benchmark from source and run it with the given
# arguments, from the root of a checkout:
#
#   bash bench/e2e/run.sh --workload fig7-ocl2cuda --seed 1 --seconds 15 --trace 0
#
# Exits non-zero without running anything when the checkout has no
# dune project or the build fails.
set -euo pipefail

if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi

if [ ! -f dune-project ]; then
  echo "bench/e2e/run.sh: run from the root of a checkout (no dune-project here)" >&2
  exit 1
fi

# Build progress and errors go to stderr; stdout carries only the
# benchmark's own report, ending with its JSON result line.  The shared
# dune cache stays off so the build reads and writes only the checkout.
DUNE_CACHE=disabled dune build --root . bench/e2e/main.exe 1>&2
exec ./_build/default/bench/e2e/main.exe "$@"
