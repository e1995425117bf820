#!/usr/bin/env bash
# The behaviour-pinning scenarios, defined once: ci/parity.sh runs them
# through two builds and byte-compares the artifacts, and the tier-1 ctest
# `parity_digests` runs them through the just-built scenario_sim and checks
# every artifact against the committed ci/parity.sha256.
#
# scenario_sim exits 2 when a run fails the grid's end-of-run audit
# (DESIGN.md §16), so every scenario here is audit-gated as well.
#
# Each scenario writes report JSON, trace JSONL, Prometheus text, Chrome
# trace and phases CSV into OUT/<scenario>/. Every scenario but broadcast
# also writes the sampled time series (series CSV, which turns sampling on
# every 5 s); broadcast's 804 series would be a 17 MB file:
#   demo       the built-in demo grid (brokered)
#   chaos      ci/run.sh's chaos.ini (brokered, 10% loss, cluster 0 crashes
#              at 2000 and restarts at 6000) with --until 1000000
#   golden     ci/run.sh's store golden.ini (direct, barter, loss + jitter)
#   direct     a direct, fault-free grid
#   broadcast  200 direct servers (2 x 64-proc payoff, 198 x 4-proc fcfs)
#              and 150 jobs of 2-4 procs that fit every server, run to
#              --until 6000 (past the last arrival): every RFB reaches all
#              200 daemons, which share one contract, and most bids expire
#              unawarded
#   deep       bench_e2e's replay_deep grid (16 x 512-proc servers cycling
#              payoff/backfill/equipartition/fcfs, utilization/baseline bid
#              generators, 64 users, grid seed 1) replaying
#              ci/replay_fixture.swf with replay_deep's [trace] settings,
#              trace seed 1, cut to 3000 jobs: deep queues on payoff and
#              backfill servers
#   weather    8 direct servers cycling the market/futures/utilization/
#              baseline bid generators, [grid] price_band = 3 and
#              watchdog = 600, 5% loss and 0.5 s jitter, a 900 s / 48-record
#              price history and 400 jobs at load 0.8: every market and
#              futures bid and every directory reply reads the grid-weather
#              average while settlements arrive out of time order and
#              window and capacity evictions churn the history
#
# Usage: ci/parity_scenarios.sh SCENARIO_SIM OUT [check|write]
#   check  verify the artifacts against ci/parity.sha256 (sha256sum -c)
#   write  rewrite ci/parity.sha256 from the artifacts; a change that moves
#          behaviour on purpose does this and says why in CHANGES.md
set -euo pipefail
export LC_ALL=C

if [[ $# -lt 2 || $# -gt 3 ]]; then
  echo "usage: $0 SCENARIO_SIM OUT [check|write]" >&2
  exit 2
fi
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
SIM="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
mkdir -p "$2"
OUT="$(cd "$2" && pwd)"
MODE="${3:-}"
DIGESTS="${ROOT}/ci/parity.sha256"
SCENARIOS=(demo chaos golden direct broadcast deep weather)

IN="${OUT}/inputs"
rm -rf "${IN}"
for name in "${SCENARIOS[@]}"; do rm -rf "${OUT:?}/${name}"; done
mkdir -p "${IN}"

# The chaos and golden grids are the heredocs ci/run.sh writes, extracted so
# the two scripts cannot drift apart.
heredoc() {  # heredoc <file name written by ci/run.sh>
  awk -v name="$1" 'index($0, name "\" <<'"'"'INI'"'"'") {f=1; next}
                    /^INI$/ {if (f) exit} f' "${ROOT}/ci/run.sh"
}
heredoc chaos.ini >"${IN}/chaos.ini"
heredoc golden.ini >"${IN}/golden.ini"
for f in chaos.ini golden.ini; do
  [[ -s "${IN}/${f}" ]] || { echo "no ${f} heredoc in ci/run.sh" >&2; exit 1; }
done
cat >"${IN}/direct.ini" <<'INI'
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
} >"${IN}/broadcast.ini"
{
  strategies=(payoff backfill equipartition fcfs)
  costs=(0.0005 0.0007 0.0009 0.0011)
  printf '[grid]\nusers = 64\nevaluator = least-cost\nseed = 1\n\n'
  for i in $(seq 0 15); do
    if (( i % 2 == 0 )); then bidgen=utilization; else bidgen=baseline; fi
    printf '[cluster]\nname = r%d\nprocs = 512\ncost = %s\nstrategy = %s\nbidgen = %s\n\n' \
      "${i}" "${costs[i % 4]}" "${strategies[i % 4]}" "${bidgen}"
  done
  printf '[trace]\nfile = %s/ci/replay_fixture.swf\n' "${ROOT}"
  printf 'time_compression = 0.05\nuser_multiplier = 416\njitter = 3600\n'
  printf 'max_jobs = 3000\nmalleability = 0.5\ndeadline_fraction = 0.5\nseed = 1\n'
} >"${IN}/deep.ini"
{
  bidgens=(market futures utilization baseline)
  strategies=(payoff backfill equipartition fcfs priority)
  procs=(64 128 256)
  printf '[grid]\nusers = 16\nevaluator = least-cost\nbrokered = false\n'
  printf 'price_band = 3\nwatchdog = 600\nseed = 19\n\n'
  printf '[faults]\nloss = 0.05\njitter = 0.5\nseed = 19\n\n'
  printf '[market]\nhistory_window = 900\nhistory_capacity = 48\n\n'
  for i in $(seq 0 7); do
    printf '[cluster]\nname = w%d\nprocs = %d\ncost = 0.000%d\nstrategy = %s\nbidgen = %s\n\n' \
      "${i}" "${procs[i % 3]}" $((5 + i % 5)) "${strategies[i % 5]}" "${bidgens[i % 4]}"
  done
  printf '[workload]\njobs = 400\nload = 0.8\n'
} >"${IN}/weather.ini"

run() {  # run <scenario> [scenario_sim args...]
  local dir="${OUT}/$1"
  shift
  mkdir -p "${dir}"
  "${SIM}" "$@" --no-progress \
    --report-json "${dir}/report.json" --trace-jsonl "${dir}/trace.jsonl" \
    --metrics "${dir}/metrics.prom" --chrome-trace "${dir}/chrome.json" \
    --phases-csv "${dir}/phases.csv" >/dev/null
}

sampled() {  # sampled <scenario> [scenario_sim args...]: run + series CSV
  local name="$1"
  shift
  run "${name}" "$@" --series-csv "${OUT}/${name}/series.csv"
}

sampled demo
sampled chaos "${IN}/chaos.ini" --until 1000000
sampled golden "${IN}/golden.ini"
sampled direct "${IN}/direct.ini"
run broadcast "${IN}/broadcast.ini" --until 6000
sampled deep "${IN}/deep.ini"
sampled weather "${IN}/weather.ini"

cd "${OUT}"
case "${MODE}" in
  check) sha256sum --check --strict "${DIGESTS}" ;;
  write) for name in "${SCENARIOS[@]}"; do sha256sum "${name}"/*; done >"${DIGESTS}" ;;
  "") ;;
  *) echo "unknown mode ${MODE} (expected check or write)" >&2; exit 2 ;;
esac
