#!/usr/bin/env bash
# Numeric flags are parsed strictly, as a tier-1 check (the ctest
# `cli_numbers`): a value that is not all number, or out of the flag's range
# (--until and --sample-interval > 0, --checkpoint-at >= 0), is refused with
# exit 1 and a first stderr line naming the flag (faucets_sweep's usage
# text, which follows, names every flag), before any simulation starts.
# Only refused values are tried, so no run and no sweep is ever started. A
# NaN --until that got through would hang the run loop (NaN fails every
# time comparison), so every call is bounded by a timeout.
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
exit "${failed}"
