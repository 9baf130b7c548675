#!/usr/bin/env bash
# Build asmsim and the benchmark from source, then run one workload:
#
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout. Build output goes to .bench_build,
# working files (corpora, journals, span files) to .bench_work.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
if [ ! -f dune-project ] || [ ! -f bin/asmsim.ml ]; then
  echo "perfbench: $root is not a checkout of the repository" >&2
  exit 2
fi

dune build --root . --build-dir .bench_build --profile release \
  ./bin/asmsim.exe ./perfbench/bench.exe >&2

exec .bench_build/default/perfbench/bench.exe \
  --asmsim .bench_build/default/bin/asmsim.exe "$@"
