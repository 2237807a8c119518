#!/usr/bin/env bash
# Build the benchmark from source, then run it (see perfbench/README.md):
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: $root holds no engine sources (dune-project and lib/ are missing)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1; then
  echo "perfbench: dune is not on PATH" >&2
  exit 2
fi
# The shared dune cache lives outside the checkout: keep the build inside it.
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
