#!/usr/bin/env bash
# Behaviour parity against another revision: build scenario_sim from REV and
# from the working tree, run five scenarios through both, and byte-compare
# every artifact (report JSON, trace JSONL, Prometheus text, Chrome trace,
# phases CSV). Exits non-zero on the first difference.
#
# The scenarios cover both submission paths:
#   demo    the built-in demo grid (brokered)
#   chaos   ci/run.sh's chaos.ini with --loss 0.1 --crash-at 0:2000:6000
#           --until 1000000 (brokered)
#   golden  ci/run.sh's store golden.ini (direct, barter, loss + jitter)
#   direct  a direct, fault-free grid
#   broadcast  200 direct servers (2 x 64-proc payoff, 198 x 4-proc fcfs)
#           and 150 jobs of 2-4 procs that fit every server, run to
#           --until 6000 (past the last arrival): every RFB reaches all 200
#           daemons, which share one contract, and most bids expire
#           unawarded
#
# REV is exported with `git archive` into build-parity/ (gitignored), so the
# script leaves the repository's git metadata alone. It needs a second build,
# which is why ci/run.sh does not call it.
#
# Usage: ci/parity.sh REV     e.g. ci/parity.sh HEAD~1
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 REV" >&2
  exit 2
fi
cd "$(dirname "$0")/.."
REV="$(git rev-parse --verify "$1^{commit}")"
JOBS="$(nproc 2>/dev/null || echo 4)"
OUT="build-parity"
REV_SRC="${OUT}/src-${REV:0:12}"
# One build tree per revision: a CMake cache is tied to its source tree.
REV_BUILD="${OUT}/build-${REV:0:12}"
ART="${OUT}/artifacts"

build() {  # build <source dir> <build dir>
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$2" -j "${JOBS}" --target scenario_sim >/dev/null
}

echo "==> export ${REV:0:12} and build both trees"
if [[ ! -d "${REV_SRC}" ]]; then
  mkdir -p "${REV_SRC}"
  git archive "${REV}" | tar -x -C "${REV_SRC}"
fi
build "${REV_SRC}" "${REV_BUILD}"
build . "${OUT}/build-work"

rm -rf "${ART}"
mkdir -p "${ART}/inputs"
# The chaos and golden grids are the heredocs ci/run.sh writes, extracted so
# the two scripts cannot drift apart.
heredoc() {  # heredoc <file name written by ci/run.sh>
  awk -v name="$1" 'index($0, name "\" <<'"'"'INI'"'"'") {f=1; next}
                    /^INI$/ {if (f) exit} f' ci/run.sh
}
heredoc chaos.ini >"${ART}/inputs/chaos.ini"
heredoc golden.ini >"${ART}/inputs/golden.ini"
for f in chaos.ini golden.ini; do
  [[ -s "${ART}/inputs/${f}" ]] || { echo "no ${f} heredoc in ci/run.sh" >&2; exit 1; }
done
cat >"${ART}/inputs/direct.ini" <<'INI'
[grid]
users = 6
evaluator = least-cost
seed = 4242

[cluster]
name = turing
procs = 128
cost = 0.0008
strategy = payoff
bidgen = utilization

[cluster]
name = hopper
procs = 64
cost = 0.0005
strategy = backfill
bidgen = baseline

[cluster]
name = lovelace
procs = 256
cost = 0.0012
strategy = equipartition
bidgen = baseline

[workload]
jobs = 200
load = 0.7
INI
{
  printf '[grid]\nbilling = dollars\nusers = 20\nevaluator = least-cost\n'
  printf 'brokered = false\nseed = 2004\n\n'
  for i in $(seq 0 199); do
    if (( i % 100 == 0 )); then procs=64 strategy=payoff; else procs=4 strategy=fcfs; fi
    printf '[cluster]\nname = b%d\nprocs = %d\ncost = 0.000%d\nstrategy = %s\n' \
      "${i}" "${procs}" $((5 + i % 5)) "${strategy}"
    printf 'bidgen = baseline\n\n'
  done
  printf '[workload]\njobs = 150\nload = 0.7\nmin_procs_lo = 2\nmin_procs_hi = 4\n'
} >"${ART}/inputs/broadcast.ini"

run() {  # run <side> <scenario> [scenario_sim args...]
  local side="$1" name="$2"
  shift 2
  local dir="${ART}/${side}/${name}" bin="${OUT}/build-work"
  [[ "${side}" == rev ]] && bin="${REV_BUILD}"
  mkdir -p "${dir}"
  "${bin}/examples/scenario_sim" "$@" --no-progress \
    --report-json "${dir}/report.json" --trace-jsonl "${dir}/trace.jsonl" \
    --metrics "${dir}/metrics.prom" --chrome-trace "${dir}/chrome.json" \
    --phases-csv "${dir}/phases.csv" >/dev/null
}

status=0
for side in rev work; do
  run "${side}" demo
  run "${side}" chaos "${ART}/inputs/chaos.ini" \
    --loss 0.1 --crash-at 0:2000:6000 --until 1000000
  run "${side}" golden "${ART}/inputs/golden.ini"
  run "${side}" direct "${ART}/inputs/direct.ini"
  run "${side}" broadcast "${ART}/inputs/broadcast.ini" --until 6000
done
echo "==> compare ${REV:0:12} vs working tree"
for name in demo chaos golden direct broadcast; do
  for f in report.json trace.jsonl metrics.prom chrome.json phases.csv; do
    if cmp -s "${ART}/rev/${name}/${f}" "${ART}/work/${name}/${f}"; then
      echo "same    ${name}/${f} ($(wc -c <"${ART}/work/${name}/${f}") bytes)"
    else
      echo "DIFFERS ${name}/${f}"
      status=1
    fi
  done
done
if [[ ${status} -eq 0 ]]; then
  echo "parity: all artifacts byte-identical"
else
  echo "parity: artifacts differ (see ${ART}/rev and ${ART}/work)" >&2
fi
exit ${status}
