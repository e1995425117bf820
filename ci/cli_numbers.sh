#!/usr/bin/env bash
# Numeric flags are parsed strictly, as a tier-1 check (the ctest
# `cli_numbers`): a value that is not all number, or out of the flag's range
# (--until and --sample-interval > 0, --checkpoint-at >= 0), is refused with
# exit 1 and a first stderr line naming the flag (faucets_sweep's usage
# text, which follows, names every flag), before any simulation starts.
# Scenario INI values that would hang the run are refused the same way,
# naming "[section] key": a 1-cluster fcfs grid with `[workload] load = 0`
# (no job is ever submitted) or `[cluster] speed = 0` (no job ever
# finishes), each written to a temporary INI.
# Only refused values are tried, so no run and no sweep is ever started. A
# NaN --until that got through would hang the run loop (NaN fails every
# time comparison), and so would either INI value, so every call is bounded
# by a timeout.
#
# Usage: ci/cli_numbers.sh SCENARIO_SIM FAUCETS_SWEEP
set -uo pipefail
export LC_ALL=C

if [[ $# -ne 2 ]]; then
  echo "usage: $0 SCENARIO_SIM FAUCETS_SWEEP" >&2
  exit 2
fi

failed=0
refused() {  # refused <flag> <binary> [args...]
  local flag="$1" err status
  shift
  err="$(timeout 60 "$@" 2>&1 >/dev/null)"
  status=$?
  err="$(head -n 1 <<<"${err}")"
  if [[ ${status} -ne 1 ]]; then
    echo "FAIL: '${*:2}' exited ${status}, expected 1" >&2
    failed=1
  elif [[ "${err}" != *"${flag}"* ]]; then
    echo "FAIL: '${*:2}' did not name ${flag}: ${err}" >&2
    failed=1
  else
    echo "ok: ${*:2} -> ${err}"
  fi
}

refused --until "$1" --no-progress --until 100x
refused --until "$1" --no-progress --until abc
refused --until "$1" --no-progress --until nan
refused --until "$1" --no-progress --until -5
refused --until "$1" --no-progress --until 0
refused --sample-interval "$1" --no-progress --sample-interval -1
refused --sample-interval "$1" --no-progress --sample-interval 0
refused --checkpoint-at "$1" --no-progress --checkpoint-at -3
refused --threads "$2" --threads 2x
refused --threads "$2" --threads -1

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT
grid_ini() {  # grid_ini <file> <workload line> <cluster line>
  printf '[workload]\njobs = 4\n%s\n[cluster]\nname = only\nprocs = 16\nstrategy = fcfs\n%s\n' \
    "$2" "$3" >"$1"
}
grid_ini "${tmp}/load0.ini" "load = 0" "speed = 1"
grid_ini "${tmp}/speed0.ini" "load = 0.5" "speed = 0"
refused "[workload] load" "$1" --no-progress "${tmp}/load0.ini"
refused "[cluster] speed" "$1" --no-progress "${tmp}/speed0.ini"
exit "${failed}"
