#!/usr/bin/env bash
# Checkpoint/restore of a run with a horizon, as a tier-1 check (the ctest
# `checkpoint_restore`). It runs ci/run.sh's store golden grid (direct,
# barter, loss + jitter) to --until 8000 three ways and byte-compares their
# report JSON and trace JSONL:
#   full     uninterrupted
#   ckpt     with --checkpoint-at 40 (capturing must not perturb the run)
#   restore  --restore of that checkpoint, which re-applies the pinned
#            --until; a restore that dropped it would run to completion
# The horizon cuts the run mid-flight (the script checks that it does), so a
# lost --until cannot go unnoticed. Last, --restore given a --until of its
# own must exit non-zero: the checkpoint already pins one.
#
# Usage: ci/checkpoint_roundtrip.sh SCENARIO_SIM OUT
set -euo pipefail
export LC_ALL=C

if [[ $# -ne 2 ]]; then
  echo "usage: $0 SCENARIO_SIM OUT" >&2
  exit 2
fi
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
SIM="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
mkdir -p "$2"
OUT="$(cd "$2" && pwd)"
rm -f "${OUT}"/*.json "${OUT}"/*.jsonl "${OUT}"/*.ckpt

# The golden grid is the heredoc ci/run.sh writes, extracted the way
# ci/parity_scenarios.sh does it so the scripts cannot drift apart.
awk 'index($0, "golden.ini\" <<'"'"'INI'"'"'") {f=1; next}
     /^INI$/ {if (f) exit} f' "${ROOT}/ci/run.sh" >"${OUT}/golden.ini"
[[ -s "${OUT}/golden.ini" ]] || { echo "no golden.ini heredoc in ci/run.sh" >&2; exit 1; }

run() {  # run <name> [scenario_sim args...]
  local name="$1"
  shift
  "${SIM}" "$@" --no-progress --report-json "${OUT}/${name}.json" \
    --trace-jsonl "${OUT}/${name}.jsonl" >/dev/null
}

run full "${OUT}/golden.ini" --until 8000
run ckpt "${OUT}/golden.ini" --until 8000 --checkpoint-at 40 \
  --checkpoint "${OUT}/grid.ckpt"
run restore --restore "${OUT}/grid.ckpt"

read -r submitted completed unplaced < <(sed -E \
  's/^\{"jobs_submitted":([0-9]+),"jobs_completed":([0-9]+),"jobs_unplaced":([0-9]+),.*/\1 \2 \3/' \
  "${OUT}/full.json")
if (( completed + unplaced >= submitted )); then
  echo "--until 8000 no longer cuts the golden run (${completed} of" \
    "${submitted} complete); pick an earlier horizon" >&2
  exit 1
fi

for name in ckpt restore; do
  cmp "${OUT}/full.json" "${OUT}/${name}.json"
  cmp "${OUT}/full.jsonl" "${OUT}/${name}.jsonl"
done

if "${SIM}" --restore "${OUT}/grid.ckpt" --until 8000 --no-progress \
  >/dev/null 2>&1; then
  echo "--restore accepted a --until of its own" >&2
  exit 1
fi
echo "checkpoint_restore: cut at --until 8000 (${completed} of ${submitted}" \
  "complete); checkpoint and restore byte-identical"
