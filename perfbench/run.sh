#!/usr/bin/env bash
# Build simcov and the benchmark from this source tree, then run one
# benchmark run. From the root of the tree:
#
#   bash perfbench/run.sh --workload campaign|validate|service \
#        --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ] || [ ! -d examples ]; then
  echo "perfbench: run from the root of a simcov source tree" >&2
  exit 2
fi

# keep every build artifact and temporary file inside the tree
export DUNE_CACHE=disabled
export TMPDIR="$PWD/.perfbench/tmp/build"
mkdir -p "$TMPDIR"
dune build --root . ./bin/simcov.exe ./perfbench/perfbench.exe 1>&2

exec ./_build/default/perfbench/perfbench.exe "$@"
