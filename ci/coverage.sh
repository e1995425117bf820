#!/usr/bin/env bash
# Which src/ functions does some product path run? Builds build-cov/ at -O0
# with --coverage, drives every product path below, and prints each src/
# function that no run executed, read from `gcov --json-format` and counted
# once per definition site (file:line, so a template or an inline function
# emitted in many objects is one function). Not a tier-1 check: it takes
# about 7 minutes with 3 jobs on a 4-vCPU host, the build included.
#
# The product paths:
#   - the seven parity scenarios (ci/parity_scenarios.sh, no digest check);
#   - ci/run.sh's scenario_sim runs: the demo with every exporter, the chaos
#     grid with --profile/--report/--phases-csv/--series-csv, a --serve
#     scrape of /metrics /healthz /progress /traces/recent, the lossy grid
#     with and without --serve, the store golden grid with a checkpoint and
#     a restore, and the golden grid with --store-dir (a finished run: a
#     killed process writes no coverage data);
#   - ci/checkpoint_roundtrip.sh;
#   - both sweep gates (ci/sweep_gate.ini, ci/replay_gate.ini, each against
#     its baseline) and experiments/e2_sweep.ini;
#   - the seven examples and the seventeen bench/ binaries (google-benchmark
#     ones at --benchmark_min_time=0.001).
# bench_e2e has its own CMake project and is not driven.
#
# Usage: ci/coverage.sh [JOBS]
set -euo pipefail
export LC_ALL=C

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${1:-$(nproc 2>/dev/null || echo 4)}"
BUILD="${ROOT}/build-cov"
OUT="${BUILD}/runs"
EXAMPLES=(quickstart adaptive_cluster market_economy bartering_pool
          appspector_monitor intranet_pool grid_weather)
BENCHES=(bench_fragmentation bench_scheduler_util bench_payoff bench_bidding
         bench_market_selection bench_scalability bench_bartering
         bench_failover bench_intranet bench_replay bench_store)
GBENCHES=(bench_engine bench_allocator bench_trace bench_telemetry
          bench_profiler bench_live)

echo "==> build ${BUILD} (-O0 --coverage)" >&2
cmake -S "${ROOT}" -B "${BUILD}" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS_DEBUG="-O0 -g" -DCMAKE_CXX_FLAGS="--coverage" \
  -DCMAKE_EXE_LINKER_FLAGS="--coverage" >/dev/null
cmake --build "${BUILD}" -j "${JOBS}" --target scenario_sim faucets_sweep \
  "${EXAMPLES[@]}" "${BENCHES[@]}" "${GBENCHES[@]}" >/dev/null
find "${BUILD}" -name '*.gcda' -delete
rm -rf "${OUT}"
mkdir -p "${OUT}"
SIM="${BUILD}/examples/scenario_sim"
SWEEP="${BUILD}/examples/faucets_sweep"

echo "==> parity scenarios" >&2
bash "${ROOT}/ci/parity_scenarios.sh" "${SIM}" "${OUT}/parity"

echo "==> ci/run.sh's scenario_sim runs" >&2
heredoc() {  # heredoc <name>: the <name>.ini heredoc of ci/run.sh
  awk -v tag="$1.ini\" <<'INI'" 'index($0, tag) {f=1; next}
       /^INI$/ {if (f) exit} f' "${ROOT}/ci/run.sh"
}
heredoc chaos >"${OUT}/chaos.ini"
heredoc golden >"${OUT}/golden.ini"
[[ -s "${OUT}/chaos.ini" && -s "${OUT}/golden.ini" ]] || {
  echo "ci/run.sh lost its chaos.ini or golden.ini heredoc" >&2
  exit 1
}
"${SIM}" --trace-jsonl "${OUT}/trace.jsonl" --metrics "${OUT}/metrics.prom" \
  --chrome-trace="${OUT}/trace.json" >/dev/null
"${SIM}" "${OUT}/chaos.ini" --until 1000000 --metrics "${OUT}/chaos.prom" \
  --report "${OUT}/report.html" --phases-csv "${OUT}/phases.csv" \
  --series-csv "${OUT}/series.csv" --profile="${OUT}/profile.json" >/dev/null
sed '/^crash_/d' "${OUT}/chaos.ini" >"${OUT}/lossy.ini"
"${SIM}" "${OUT}/lossy.ini" --until 1000000 --no-progress \
  --report-json "${OUT}/off.json" >/dev/null
"${SIM}" "${OUT}/lossy.ini" --until 1000000 --no-progress --serve \
  --report-json "${OUT}/on.json" >/dev/null
# The scrape: a run long enough to outlive it, which then finishes on its
# own so that its coverage data is written.
sed -e 's/^jobs = 120$/jobs = 6000/' "${OUT}/lossy.ini" >"${OUT}/live.ini"
"${SIM}" "${OUT}/live.ini" --until 100000000 --serve --no-progress \
  >"${OUT}/live.txt" &
LIVE_PID=$!
python3 - "${OUT}/live.txt" <<'PY'
import re, sys, time, urllib.error, urllib.request
path, deadline, port = sys.argv[1], time.monotonic() + 60.0, None
while port is None and time.monotonic() < deadline:
    m = re.search(r"http://127\.0\.0\.1:(\d+)", open(path).read())
    port = int(m.group(1)) if m else time.sleep(0.05)
assert port, "scenario_sim never announced the monitoring port"
for endpoint in ("/progress", "/healthz", "/metrics", "/traces/recent", "/nope"):
    try:
        urllib.request.urlopen(f"http://127.0.0.1:{port}{endpoint}", timeout=10).read()
    except urllib.error.HTTPError:
        pass
PY
wait "${LIVE_PID}"
"${SIM}" "${OUT}/golden.ini" --no-progress --checkpoint-at 40 \
  --checkpoint "${OUT}/grid.ckpt" --report-json "${OUT}/ckpt.json" >/dev/null
"${SIM}" --restore "${OUT}/grid.ckpt" --no-progress \
  --report-json "${OUT}/res.json" >/dev/null
"${SIM}" "${OUT}/golden.ini" --no-progress --store-dir "${OUT}/store" \
  --report-json "${OUT}/store.json" >/dev/null
bash "${ROOT}/ci/checkpoint_roundtrip.sh" "${SIM}" "${OUT}/roundtrip" >/dev/null

echo "==> sweeps" >&2
"${SWEEP}" --grid "${ROOT}/ci/sweep_gate.ini" --threads "${JOBS}" --quiet \
  --out "${OUT}/gate.jsonl" --baseline "${ROOT}/ci/sweep_baseline.json" >&2
"${SWEEP}" --grid "${ROOT}/ci/replay_gate.ini" --threads "${JOBS}" --quiet \
  --out "${OUT}/replay.jsonl" --baseline "${ROOT}/ci/replay_baseline.json" >&2
"${SWEEP}" --grid "${ROOT}/experiments/e2_sweep.ini" --threads "${JOBS}" \
  --quiet --out "${OUT}/e2.jsonl"

echo "==> examples and benches" >&2
(
  cd "${OUT}"
  for name in "${EXAMPLES[@]}"; do "${BUILD}/examples/${name}" >/dev/null; done
  for name in "${BENCHES[@]}"; do "${BUILD}/bench/${name}" >/dev/null; done
  for name in "${GBENCHES[@]}"; do
    "${BUILD}/bench/${name}" --benchmark_min_time=0.001 >/dev/null 2>&1
  done
)

echo "==> unexecuted src/ functions" >&2
find "${BUILD}/src" -name '*.gcno' -print0 |
  (cd "${BUILD}" && xargs -0 gcov --json-format --stdout 2>/dev/null) |
  python3 -c '
import json, os, sys
root = os.path.realpath(sys.argv[1])
sites = {}  # (file, line) -> [name, executed]
decoder = json.JSONDecoder()
text = sys.stdin.read()
pos = 0
while pos < len(text):
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos >= len(text):
        break
    doc, pos = decoder.raw_decode(text, pos)
    for f in doc["files"]:
        path = os.path.realpath(os.path.join(doc.get("current_working_directory", ""),
                                             f["file"]))
        rel = os.path.relpath(path, root)
        if not rel.startswith("src/"):
            continue
        for fn in f["functions"]:
            site = sites.setdefault((rel, fn["start_line"]),
                                    [fn["demangled_name"], False])
            site[1] = site[1] or fn["execution_count"] > 0
missed = sorted(k for k, v in sites.items() if not v[1])
for rel, line in missed:
    print(f"{rel}:{line} {sites[(rel, line)][0]}")
print(f"{len(sites) - len(missed)} of {len(sites)} src/ functions executed, "
      f"{len(missed)} not", file=sys.stderr)
' "${ROOT}"
