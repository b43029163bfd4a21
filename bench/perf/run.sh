#!/usr/bin/env bash
# Build perf.exe from source and run one workload, from the repository root:
#
#   bash bench/perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The last line of standard output is the run's summary JSON.  Build output
# and temporary files stay inside the repository: _build/ and bench/perf/out/.
set -euo pipefail

workload="" seed="" seconds="" trace=""
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2" ;;
    --seed) seed="$2" ;;
    --seconds) seconds="$2" ;;
    --trace) trace="$2" ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
  shift 2
done
if [ -z "$workload" ] || [ -z "$seed" ] || [ -z "$seconds" ] || [ -z "$trace" ]; then
  echo "usage: run.sh --workload NAME --seed N --seconds S --trace 0|1" >&2
  exit 2
fi

out=bench/perf/out
mkdir -p "$out/tmp"
export TMPDIR="$PWD/$out/tmp" DUNE_CACHE=disabled
dune build --root . ./bench/perf/perf.exe >&2

args=(run -w "$workload" --seed "$seed" --seconds "$seconds")
if [ "$trace" = 1 ]; then
  args+=(--trace "$out/$workload.trace.json" -o "$out/$workload.traced.json")
else
  args+=(-o "$out/$workload.json")
fi
exec ./_build/default/bench/perf/perf.exe "${args[@]}"
