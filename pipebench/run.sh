#!/usr/bin/env bash
# Build the benchmark from source, then run it:
#   bash pipebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of a checkout.  Dune's shared cache is disabled so
# the build reads and writes only inside the checkout (_build/).
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./pipebench/main.exe 1>&2
exec ./_build/default/pipebench/main.exe "$@"
