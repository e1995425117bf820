#!/usr/bin/env bash
# CI entry point: build the sanitizer and release presets, run the full
# test suite under ASan/UBSan, run the sweep/concurrency tests under TSan,
# run scenario_sim with every observability exporter and validate the
# emitted JSONL/Prometheus/Chrome-trace files, run the regression-gated
# parameter sweep (ci/sweep_gate.ini vs ci/sweep_baseline.json) and record
# its serial-vs-parallel throughput in BENCH_sweep.json (with --skip-bench,
# in build-release-bench/BENCH_sweep.json instead, so a run leaves the
# tracked files as they were), run the streaming
# replay gate (ci/replay_gate.ini streams ci/replay_fixture.swf over the
# time-compression/user-multiplier axes vs ci/replay_baseline.json) and
# record stream-vs-preload replay memory/throughput (E15) in
# BENCH_replay.json, generate the chaos
# run's telemetry artifacts (self-contained HTML report + phase/series CSVs)
# and assert the grid-wide phase-balance invariant, exercise the live
# operations plane (DESIGN.md §15: scrape /metrics /healthz /progress
# /traces/recent mid-run and schema-check them, then prove the monitoring
# endpoint moves no bytes of the report/trace artifacts), check that
# checkpoint/restore reproduces a run byte for byte, then run the engine,
# trace, and telemetry benchmarks from the optimized build and record the
# headline figures in BENCH_engine.json / BENCH_trace.json /
# BENCH_telemetry.json (sampling overhead must stay under 5%), record the
# host-time profiler overhead (E14) in BENCH_profiler.json (must also
# stay under 5%), and record the live-plane overhead (E17) in
# BENCH_live.json (same 5% budget). The chaos run executes under --profile
# and its profile.json is schema-checked (schema 3, per-kind self time must
# sum to at most the run's wall clock, no negative self times).
#
# Usage: ci/run.sh [--skip-bench]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"
SKIP_BENCH=0
[[ "${1:-}" == "--skip-bench" ]] && SKIP_BENCH=1

echo "==> configure + build: asan"
cmake --preset asan >/dev/null
cmake --build --preset asan -j "${JOBS}"

echo "==> configure + build: release-bench"
cmake --preset release-bench >/dev/null
cmake --build --preset release-bench -j "${JOBS}"

echo "==> ctest under ASan/UBSan"
ctest --preset asan -j "${JOBS}"

echo "==> ctest (release)"
ctest --preset release-bench -j "${JOBS}"

echo "==> ThreadSanitizer: sweep + concurrency tests"
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "${JOBS}" --target test_sweep
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ./build-tsan/tests/test_sweep

echo "==> ThreadSanitizer: live plane (concurrent scrapes + stall watchdog)"
cmake --build --preset tsan -j "${JOBS}" --target test_obs
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ./build-tsan/tests/test_obs --gtest_filter='HttpServer.*:LivePlane.*'

echo "==> sweep regression gate + serial-vs-parallel throughput"
SWEEP_JSON="BENCH_sweep.json"
[[ "${SKIP_BENCH}" == "1" ]] && SWEEP_JSON="build-release-bench/BENCH_sweep.json"
python3 - "${SWEEP_JSON}" <<'PY'
import json, os, subprocess, sys, time

sweep = "./build-release-bench/examples/faucets_sweep"
art = "build-release-bench/sweep-artifacts"
os.makedirs(art, exist_ok=True)
hw = os.cpu_count() or 1
par_threads = max(hw, 8)  # 8 software threads still prove determinism

def run(threads, out, extra=()):
    cmd = [sweep, "--grid", "ci/sweep_gate.ini", "--threads", str(threads),
           "--quiet", "--out", out, *extra]
    start = time.monotonic()
    subprocess.run(cmd, check=True)  # gate violations exit 2 and fail CI
    return time.monotonic() - start

serial = f"{art}/gate_serial.jsonl"
parallel = f"{art}/gate_parallel.jsonl"
t_serial = run(1, serial)
t_parallel = run(par_threads, parallel,
                 ("--baseline", "ci/sweep_baseline.json"))

a, b = open(serial, "rb").read(), open(parallel, "rb").read()
assert a == b, "sweep artifact differs between 1 and %d threads" % par_threads
runs = a.count(b"\n")
assert runs == 16, f"gate sweep expected 16 runs, saw {runs}"

out = {
    "benchmark": "faucets_sweep ci/sweep_gate.ini (16 market simulations)",
    "workload": "2 schedulers x 2 loads x 4 seed replicates through the "
                "full grid market; byte-identical JSONL asserted between "
                "thread counts; gated against ci/sweep_baseline.json",
    "hardware_concurrency": hw,
    "serial_runs_per_sec": round(runs / t_serial, 2),
    "parallel_threads": par_threads,
    "parallel_runs_per_sec": round(runs / t_parallel, 2),
    "speedup": round(t_serial / t_parallel, 2),
    "build": "release-bench (-O3 -DNDEBUG)",
    "source": "ci/run.sh",
}
json.dump(out, open(sys.argv[1], "w"), indent=2)
print("%s: serial %.1f runs/s, %d threads %.1f runs/s "
      "(speedup %.2fx on %d hardware threads)"
      % (sys.argv[1], out["serial_runs_per_sec"], par_threads,
         out["parallel_runs_per_sec"], out["speedup"], hw))

# The >=4x scaling criterion only means something with real parallelism
# underneath; single-digit-core CI boxes still verify determinism above.
if hw >= 8:
    assert out["speedup"] >= 4.0, (
        "sweep speedup %.2fx < 4x on %d hardware threads" % (out["speedup"], hw))
PY

echo "==> streaming replay gate (SWF fixture through the trace axes)"
python3 - <<'PY'
import json, os, subprocess

sweep = "./build-release-bench/examples/faucets_sweep"
art = "build-release-bench/sweep-artifacts"
os.makedirs(art, exist_ok=True)
hw = os.cpu_count() or 1
par_threads = max(hw, 8)

def run(threads, out, extra=()):
    cmd = [sweep, "--grid", "ci/replay_gate.ini", "--threads", str(threads),
           "--quiet", "--out", out, *extra]
    subprocess.run(cmd, check=True)  # gate violations exit 2 and fail CI

serial = f"{art}/replay_serial.jsonl"
parallel = f"{art}/replay_parallel.jsonl"
run(1, serial)
run(par_threads, parallel, ("--baseline", "ci/replay_baseline.json"))

a, b = open(serial, "rb").read(), open(parallel, "rb").read()
assert a == b, \
    "replay artifact differs between 1 and %d threads" % par_threads
runs = a.count(b"\n")
assert runs == 16, f"replay gate expected 16 runs, saw {runs}"
# The trace axes must actually reach the records (key + per-run fields).
assert b'"time_compression":' in a and b'"user_multiplier":' in a, \
    "replay gate records are missing the trace axis fields"
print("replay gate: 16 streamed runs byte-identical across thread counts, "
      "gated against ci/replay_baseline.json")
PY

echo "==> scenario_sim exporters (JSONL + Prometheus + Chrome trace)"
OBS_DIR="build-release-bench/obs-artifacts"
mkdir -p "${OBS_DIR}"
./build-release-bench/examples/scenario_sim \
  --trace-jsonl "${OBS_DIR}/trace.jsonl" \
  --metrics "${OBS_DIR}/metrics.prom" \
  --chrome-trace="${OBS_DIR}/trace.json"

python3 - "${OBS_DIR}" <<'PY'
import json, sys
d = sys.argv[1]

# Every JSONL line must parse as an object with the typed envelope. A lossy
# ring prepends one meta line announcing the drop count.
n = 0
for i, line in enumerate(open(f"{d}/trace.jsonl")):
    ev = json.loads(line)
    if i == 0 and "meta" in ev:
        assert ev["dropped"] > 0 and ev["total_recorded"] > 0, ev
        continue
    assert isinstance(ev, dict) and "t" in ev and "kind" in ev, ev
    n += 1
assert n > 0, "trace.jsonl is empty"
print(f"trace.jsonl: {n} events, all parse")

# Prometheus text: the registry counters the report is built from exist.
prom = open(f"{d}/metrics.prom").read()
for needle in ("# TYPE faucets_grid_jobs_submitted_total counter",
               "faucets_job_wait_seconds_bucket",
               "faucets_net_messages_sent_total"):
    assert needle in prom, f"missing {needle!r} in metrics.prom"
print("metrics.prom: ok")

# Chrome trace: valid JSON, >= 1 process track per cluster in the demo
# scenario (turing/hopper/lovelace), and per-job slices on cluster tracks.
chrome = json.load(open(f"{d}/trace.json"))
events = chrome["traceEvents"]
procs = {e["args"]["name"] for e in events
         if e["ph"] == "M" and e["name"] == "process_name"}
for cluster in ("turing", "hopper", "lovelace"):
    assert f"cluster {cluster}" in procs, f"no track for {cluster}: {procs}"
job_threads = [e for e in events if e["ph"] == "M"
               and e["name"] == "thread_name"
               and e["args"]["name"].startswith("job ")]
assert job_threads, "no per-job threads on cluster tracks"
job_slices = [e for e in events
              if e["ph"] == "X" and e.get("cat") == "cluster"]
assert job_slices, "no per-job slices on cluster tracks"
print(f"trace.json: {len(events)} events, {len(procs)} process tracks, "
      f"{len(job_slices)} cluster slices")
PY

echo "==> scenario_sim chaos run (10% loss + mid-run cluster crash, fixed seed)"
CHAOS_DIR="build-release-bench/chaos-artifacts"
mkdir -p "${CHAOS_DIR}"
# The watchdog matters: without it, jobs running on the crashed cluster are
# lost silently and never reach a terminal state (tests/core/failover_test.cpp
# CrashWithoutWatchdogTimesOut documents that legacy behavior).
cat > "${CHAOS_DIR}/chaos.ini" <<'INI'
[grid]
users = 6
brokered = true
watchdog = 600
seed = 2004

[faults]
loss = 0.1
crash_cluster = 0
crash_at = 2000
crash_restart = 6000

[cluster]
name = turing
procs = 256
cost = 0.0008
strategy = payoff
bidgen = utilization

[cluster]
name = hopper
procs = 256
cost = 0.0005
strategy = equipartition
bidgen = baseline

[cluster]
name = lovelace
procs = 512
cost = 0.0012
strategy = payoff
bidgen = baseline

[workload]
jobs = 120
load = 0.6
INI
./build-release-bench/examples/scenario_sim "${CHAOS_DIR}/chaos.ini" \
  --until 1000000 \
  --metrics "${CHAOS_DIR}/metrics.prom" \
  --report "${CHAOS_DIR}/report.html" \
  --phases-csv "${CHAOS_DIR}/phases.csv" \
  --series-csv "${CHAOS_DIR}/series.csv" \
  --profile="${CHAOS_DIR}/profile.json"

# scenario_sim itself exits 2 when the grid's end-of-run audit fails (every
# scenario_sim run here is gated that way). The audit does not hold a run cut
# off by --until to termination, so the accounting below is the chaos run's
# termination check.
python3 - "${CHAOS_DIR}" <<'PY'
import sys
d = sys.argv[1]
counters = {}
for line in open(f"{d}/metrics.prom"):
    if line.startswith("#") or not line.strip():
        continue
    name, _, value = line.rpartition(" ")
    counters[name.strip()] = float(value)

submitted = counters["faucets_grid_jobs_submitted_total"]
completed = counters["faucets_grid_jobs_completed_total"]
unplaced = counters["faucets_grid_jobs_unplaced_total"]
assert submitted > 0, "chaos run submitted nothing"
assert completed + unplaced == submitted, (
    f"stranded jobs: {submitted} submitted, {completed} completed, "
    f"{unplaced} unplaced")
assert counters["faucets_retry_attempts_total"] > 0, (
    "10% loss must force visible retries")
print(f"chaos: {submitted:.0f} submitted = {completed:.0f} completed + "
      f"{unplaced:.0f} unplaced, "
      f"{counters['faucets_retry_attempts_total']:.0f} retries")
PY

echo "==> host-time profile artifact (profile.json schema)"
python3 - "${CHAOS_DIR}" <<'PY'
import json, sys
d = sys.argv[1]

# profile.json (DESIGN.md §12, schema 3): clock calibration sane, event
# totals populated, no phase split, and the per-kind self times (each event
# is timed inside the run) summing to at most the run's wall clock within
# tolerance (host clocks jitter; allow 5% of wall or 5 ms, whichever is
# larger).
prof = json.load(open(f"{d}/profile.json"))
assert prof["schema"] == 3, prof["schema"]
assert "phases" not in prof, sorted(prof)
assert prof["clock"]["source"] in ("tsc", "steady_clock"), prof["clock"]
assert prof["clock"]["ns_per_tick"] > 0, prof["clock"]
wall = prof["wall_seconds"]
assert wall > 0, "profiled run recorded no wall time"
assert prof["events_total"] > 0, "profiled run attributed no events"
for row in prof["kinds"] + prof["entities"]:
    assert row["count"] > 0 and row["seconds"] >= 0, row
    assert row["min_us"] - 1e-9 <= row["p50_us"] <= row["p99_us"] + 1e-9, row
    assert row["mean_us"] >= 0, row
self_time = sum(row["seconds"] for row in prof["kinds"])
tol = max(0.05 * wall, 0.005)
assert self_time <= wall + tol, f"per-kind self time {self_time} vs wall {wall}"
print(f"profile.json: {prof['events_total']} events, {len(prof['kinds'])} "
      f"kinds, self time {self_time:.3f} s of {wall:.3f} s wall, "
      f"clock {prof['clock']['source']}")
PY

echo "==> telemetry report artifacts + grid-wide phase-balance invariant"
python3 - "${CHAOS_DIR}" <<'PY'
import csv, sys
d = sys.argv[1]

# The HTML report is one self-contained document: inline CSS/SVG only, no
# scripts, no external fetches.
html = open(f"{d}/report.html").read()
assert html.startswith("<!doctype html>"), "report.html missing doctype"
assert "</html>" in html and "<svg" in html and "<style>" in html
for banned in ("<script", "http://", "https://", "<link"):
    assert banned not in html, f"report.html is not self-contained: {banned!r}"

# Grid-wide decomposition balance: for every submission row, the six
# exclusive phases must sum to the makespan within 1e-9 sim-seconds.
phase_cols = ("bid_wait", "award_wait", "queue_wait", "run", "reconfig", "other")
rows = list(csv.DictReader(open(f"{d}/phases.csv")))
assert rows, "phases.csv is empty"
worst = 0.0
for row in rows:
    makespan = float(row["makespan"])
    total = sum(float(row[c]) for c in phase_cols)
    worst = max(worst, abs(total - makespan))
assert worst <= 1e-9, f"phase decomposition unbalanced by {worst} sim-seconds"
completed = sum(1 for row in rows if row["outcome"] == "complete")
assert completed > 0, "chaos run completed nothing"

# Sampled series made it out with real coverage.
series = list(csv.DictReader(open(f"{d}/series.csv")))
names = {s["series"] for s in series}
assert any("faucets_cluster_utilization" in n for n in names), names
assert any("faucets_retry_attempts_total" in n for n in names), names
print(f"report.html: {len(html)} bytes self-contained; phases.csv: "
      f"{len(rows)} submissions, worst balance error {worst:.2e}; "
      f"series.csv: {len(names)} series")
PY

echo "==> live operations plane: mid-run endpoint scrape (DESIGN.md §15)"
LIVE_DIR="build-release-bench/live-artifacts"
rm -rf "${LIVE_DIR}"
mkdir -p "${LIVE_DIR}"
# The chaos grid without its crash (10% loss only), with the workload
# inflated so the run is still mid-flight while we scrape; the process is
# torn down after the checks. ConfigFile reads only the first [faults]
# section, so the crash is deleted from it rather than overridden.
sed -e 's/^jobs = 120$/jobs = 200000/' -e '/^crash_/d' "${CHAOS_DIR}/chaos.ini" \
  > "${LIVE_DIR}/live.ini"
./build-release-bench/examples/scenario_sim "${LIVE_DIR}/live.ini" \
  --until 100000000 --serve --no-progress \
  > "${LIVE_DIR}/stdout.txt" &
LIVE_PID=$!
python3 - "${LIVE_DIR}/stdout.txt" <<'PY'
import json, re, sys, time, urllib.error, urllib.request

# The port is ephemeral: parse it from the (eagerly flushed) stdout line.
path, deadline, port = sys.argv[1], time.monotonic() + 30.0, None
while time.monotonic() < deadline and port is None:
    m = re.search(r"live monitoring on http://127\.0\.0\.1:(\d+)",
                  open(path).read())
    if m:
        port = int(m.group(1))
    else:
        time.sleep(0.1)
assert port, "scenario_sim never announced the monitoring port"

def get(endpoint):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{endpoint}",
                                timeout=10) as res:
        return res.status, res.read().decode()

# Wait for the first snapshot publish, then schema-check every endpoint
# while the simulation keeps running underneath.
progress = None
while time.monotonic() < deadline:
    status, body = get("/progress")
    assert status == 200, (status, body)
    progress = json.loads(body)
    assert progress["schema"] == "faucets.live.progress.v3", progress
    if progress["publishes"] > 0 and progress["run_active"]:
        break
    time.sleep(0.1)
assert progress and progress["publishes"] > 0, progress
assert progress["jobs"]["submitted"] >= 0, progress
assert progress["events_executed"] > 0, progress

status, body = get("/healthz")
health = json.loads(body)
assert health["schema"] == "faucets.live.healthz.v2", health
assert "monitors_enabled" not in health, health  # the monitors always run
assert status == 200 and health["status"] == "ok", (status, health)
assert {m["monitor"] for m in health["monitors"]} == {
    "ledger_conservation", "lease_leak", "span_balance", "barrier_stall"}
assert health["alerts_total"] == 0, ("clean run raised alerts", health)

status, prom = get("/metrics")
assert status == 200, status
for needle in ("# TYPE faucets_grid_jobs_submitted_total counter",
               "faucets_live_publishes_total",
               'faucets_alerts_total{monitor="barrier_stall"} 0'):
    assert needle in prom, f"missing {needle!r} in live /metrics"

status, jsonl = get("/traces/recent")
assert status == 200, status
events = [json.loads(line) for line in jsonl.splitlines() if line]
assert events and all("t" in e and "kind" in e for e in events), \
    "live trace tail empty or malformed"

try:
    get("/nope")
    raise AssertionError("unknown path must return 404")
except urllib.error.HTTPError as e:
    assert e.code == 404, e.code
print(f"live plane on port {port}: /progress {progress['publishes']} "
      f"publishes, sim t={progress['sim_time']:.0f}; /healthz ok "
      f"(0 alerts); /metrics + /traces/recent ({len(events)} events) parse")
PY
kill "${LIVE_PID}" 2>/dev/null || true
wait "${LIVE_PID}" 2>/dev/null || true
rm -rf "${LIVE_DIR}/stdout.txt"

echo "==> live plane byte-identity: --serve on/off"
# The hard observability guarantee: serving the monitoring endpoints moves
# no bytes of the report JSON or trace JSONL
# (tests/core/live_plane_test.cpp pins the same property in-process). The
# grid is the chaos grid without its crash: 10% loss only.
sed '/^crash_/d' "${CHAOS_DIR}/chaos.ini" > "${LIVE_DIR}/lossy.ini"
./build-release-bench/examples/scenario_sim "${LIVE_DIR}/lossy.ini" \
  --until 1000000 --no-progress \
  --report-json "${LIVE_DIR}/off.json" \
  --trace-jsonl "${LIVE_DIR}/off.jsonl" >/dev/null
./build-release-bench/examples/scenario_sim "${LIVE_DIR}/lossy.ini" \
  --until 1000000 --no-progress --serve \
  --report-json "${LIVE_DIR}/on.json" \
  --trace-jsonl "${LIVE_DIR}/on.jsonl" >/dev/null
cmp "${LIVE_DIR}/off.json" "${LIVE_DIR}/on.json"
cmp "${LIVE_DIR}/off.jsonl" "${LIVE_DIR}/on.jsonl"
echo "live plane: artifacts byte-identical with --serve"

echo "==> durable store: kill-and-resume golden run (DESIGN.md §14)"
STORE_DIR="build-release-bench/store-artifacts"
rm -rf "${STORE_DIR}"
mkdir -p "${STORE_DIR}"
cat > "${STORE_DIR}/golden.ini" <<'INI'
[grid]
billing = barter
users = 6
seed = 1404
watchdog = 600

[faults]
loss = 0.05
jitter = 0.2
seed = 77

[cluster]
name = turing
procs = 64
cost = 0.0008
credits = 300
strategy = payoff
bidgen = utilization

[cluster]
name = hopper
procs = 64
cost = 0.0005
credits = 300
strategy = fcfs
bidgen = baseline

[cluster]
name = lovelace
procs = 128
cost = 0.0012
credits = 400
strategy = payoff
bidgen = baseline

[workload]
jobs = 150
load = 0.6
INI

# Reference artifacts: the uninterrupted run.
./build-release-bench/examples/scenario_sim "${STORE_DIR}/golden.ini" \
  --report-json "${STORE_DIR}/ref.json" \
  --trace-jsonl "${STORE_DIR}/ref.jsonl" >/dev/null

# Checkpoint mid-run (the hook must not perturb the run), then restore: the
# replay re-verifies the fingerprint at T and must finish byte-identical —
# report JSON and trace JSONL alike.
./build-release-bench/examples/scenario_sim "${STORE_DIR}/golden.ini" \
  --checkpoint-at 40 --checkpoint "${STORE_DIR}/grid.ckpt" \
  --report-json "${STORE_DIR}/ckpt.json" \
  --trace-jsonl "${STORE_DIR}/ckpt.jsonl" >/dev/null
cmp "${STORE_DIR}/ckpt.json" "${STORE_DIR}/ref.json"
cmp "${STORE_DIR}/ckpt.jsonl" "${STORE_DIR}/ref.jsonl"

./build-release-bench/examples/scenario_sim \
  --restore "${STORE_DIR}/grid.ckpt" \
  --report-json "${STORE_DIR}/res.json" \
  --trace-jsonl "${STORE_DIR}/res.jsonl" >/dev/null
cmp "${STORE_DIR}/res.json" "${STORE_DIR}/ref.json"
cmp "${STORE_DIR}/res.jsonl" "${STORE_DIR}/ref.jsonl"
echo "store: checkpoint + restore byte-identical"

# Credit conservation is part of the report contract: the ledger section's
# residual must stay within float rounding on every golden run.
python3 - "${STORE_DIR}" <<'PY'
import json, sys
d = sys.argv[1]
for name in ("ref", "res"):
    ledger = json.load(open(f"{d}/{name}.json"))["ledger"]
    assert ledger["barter"], f"{name}: barter grid expected"
    assert abs(ledger["conservation_residual"]) <= 1e-9, (
        f"{name}: credits not conserved: {ledger}")
    assert ledger["opening_credits"] == 1000.0, ledger
print("ledger: conservation residual <= 1e-9 on both golden runs")
PY

# SIGKILL the run mid-flight with a durable store attached, then prove the
# on-disk WAL replays to a conserved ledger: generation 1 holds the empty
# start-of-run image, so the salvageable frames alone must account for
# every credit (kills can tear the tail — that suffix is discarded, never
# half-applied). The kill scenario inflates the workload so the run is
# still mid-flight seconds in — a clean finish would roll the WAL into
# generation 2 and the assert below would (rightly) fail.
sed 's/^jobs = 150$/jobs = 200000/' "${STORE_DIR}/golden.ini" \
  > "${STORE_DIR}/killed.ini"
./build-release-bench/examples/scenario_sim "${STORE_DIR}/killed.ini" \
  --store-dir "${STORE_DIR}/killed-store" \
  --report-json "${STORE_DIR}/killed.json" >/dev/null &
SIM_PID=$!
sleep 1.5
kill -9 "${SIM_PID}" 2>/dev/null || true
wait "${SIM_PID}" 2>/dev/null || true
python3 - "${STORE_DIR}/killed-store" <<'PY'
import struct, sys, zlib
d = sys.argv[1]
snap = open(f"{d}/snapshot-1", "rb").read()
assert snap[:8] == b"FAUCSNP\x01", "generation-1 snapshot missing"
length, crc = struct.unpack("<II", snap[8:16])
body = snap[16:]
assert len(body) == length and zlib.crc32(body) == crc, "snapshot corrupt"
assert length == 0, "start-of-run image must be the empty state"

data = open(f"{d}/wal-1", "rb").read()
assert data[:8] == b"FAUCWAL\x01", "WAL magic missing"
pos, ops, torn = 8, [], False
while pos < len(data):
    if len(data) - pos < 8:
        torn = True
        break
    length, crc = struct.unpack_from("<II", data, pos)
    if length < 2 or len(data) - pos - 8 < length:
        torn = True
        break
    body = data[pos + 8 : pos + 8 + length]
    if zlib.crc32(body) != crc:
        torn = True
        break
    ops.append((struct.unpack_from("<H", body)[0], body[2:]))
    pos += 8 + length

total = 0.0
opens = transfers = 0
for op_type, payload in ops:
    if op_type == 0x0101:  # ledger open: u64 cluster, f64 credits
        total += struct.unpack_from("<d", payload, 8)[0]
        opens += 1
    elif op_type == 0x0102:  # transfer: conserves by construction
        transfers += 1
assert opens == 3, f"expected 3 ledger accounts, saw {opens}"
assert total == 1000.0, f"recovered ledger total {total}, expected 1000"
print(f"killed run: {len(ops)} intact WAL ops salvaged "
      f"({'torn tail discarded' if torn else 'no tear'}), "
      f"{transfers} transfers replay to a conserved 1000.0-credit ledger")
PY
rm -rf "${STORE_DIR}/killed-store" "${STORE_DIR}/killed.json"

if [[ "${SKIP_BENCH}" == "1" ]]; then
  echo "==> bench skipped (--skip-bench)"
  exit 0
fi

echo "==> bench_engine (1M-event schedule/cancel/run workload)"
BENCH_JSON="build-release-bench/bench_engine_raw.json"
./build-release-bench/bench/bench_engine \
  --benchmark_filter='EngineScheduleCancelRun/1000000' \
  --benchmark_repetitions=5 \
  --benchmark_report_aggregates_only=true \
  --benchmark_out="${BENCH_JSON}" \
  --benchmark_out_format=json

# Distill the headline figure: best items_per_second across repetitions.
python3 - "${BENCH_JSON}" <<'PY'
import json, os, sys
raw = json.load(open(sys.argv[1]))
rates = [b["items_per_second"] for b in raw["benchmarks"]
         if b.get("run_type") == "aggregate" and b["aggregate_name"] == "max"
         and "items_per_second" in b]
if not rates:  # fall back to any reported rate
    rates = [b["items_per_second"] for b in raw["benchmarks"]
             if "items_per_second" in b]
cpu = "unknown"
if os.path.exists("/proc/cpuinfo"):
    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), cpu)
out = {
    "benchmark": "BM_EngineScheduleCancelRun/1000000",
    "workload": "1M events: schedule at pseudo-random times (i % 1009), cancel every 3rd via EventHandle, run to drain",
    "events_per_sec": round(max(rates)),
    "hardware": {"cpu": cpu, "hardware_concurrency": os.cpu_count() or 1},
    "build": "release-bench (-O3 -DNDEBUG)",
    "source": "ci/run.sh",
    # One-time reference measurement against the pre-refactor engine
    # (std::priority_queue + std::function + shared-state tombstones):
    # identical standalone harness, 5 reps best-of, back-to-back on one
    # machine to cancel load noise.
    "seed_comparison": {
        "seed_engine_events_per_sec": 973547,
        "pooled_engine_events_per_sec": 2426021,
        "speedup": 2.49,
    },
}
json.dump(out, open("BENCH_engine.json", "w"), indent=2)
print("BENCH_engine.json: %.0f events/sec" % out["events_per_sec"])
PY

echo "==> bench_trace (typed trace record hot path)"
TRACE_JSON="build-release-bench/bench_trace_raw.json"
./build-release-bench/bench/bench_trace \
  --benchmark_filter='TraceRecord/65536' \
  --benchmark_repetitions=5 \
  --benchmark_report_aggregates_only=true \
  --benchmark_out="${TRACE_JSON}" \
  --benchmark_out_format=json

python3 - "${TRACE_JSON}" <<'PY'
import json, sys
raw = json.load(open(sys.argv[1]))
rates = [b["items_per_second"] for b in raw["benchmarks"]
         if b.get("run_type") == "aggregate" and b["aggregate_name"] == "max"
         and "items_per_second" in b]
if not rates:  # fall back to any reported rate
    rates = [b["items_per_second"] for b in raw["benchmarks"]
             if "items_per_second" in b]
out = {
    "benchmark": "BM_TraceRecord/65536",
    "workload": "record typed 64-byte job events into a warm 65536-slot ring, wrapping continuously (zero allocations; see tests/obs/trace_alloc_test.cpp)",
    "events_per_sec": round(max(rates)),
    "build": "release-bench (-O3 -DNDEBUG)",
    "source": "ci/run.sh",
}
json.dump(out, open("BENCH_trace.json", "w"), indent=2)
print("BENCH_trace.json: %.0f events/sec" % out["events_per_sec"])
PY

echo "==> bench_replay (E15: streaming vs preloaded SWF replay memory/throughput)"
# The binary itself asserts (exit 2) that streamed and preloaded replays
# admit identical job counts and that the drain-mode RSS delta stays flat
# while the preload delta grows with the trace.
./build-release-bench/bench/bench_replay --records 120000 --out BENCH_replay.json

python3 - <<'PY'
import json, os
out = json.load(open("BENCH_replay.json"))
hw = os.cpu_count() or 1
rows = {(r["mode"], r["max_jobs"]): r for r in out["runs"]}
print("BENCH_replay.json: drain-stream RSS delta %d KB vs drain-preload %d KB"
      % (out["stream_rss_delta_kb"], out["preload_rss_delta_kb"]))
for (mode, jobs), r in sorted(rows.items(), key=lambda kv: (kv[0][1], kv[0][0])):
    print("  %-13s %7d jobs: %6d ms, rss %8d KB, demux hw %d"
          % (mode, jobs, r["wall_ms"], r["max_rss_kb"],
             r.get("demux_high_water", 0)))

# Throughput parity between stream and preload only means something with a
# quiet, multi-core box; the memory-flatness and admitted-equality asserts
# already ran unconditionally inside the binary.
if hw >= 8:
    big = [r for r in out["runs"] if r["mode"] in ("stream", "preload")]
    by_jobs = {}
    for r in big:
        by_jobs.setdefault(r["max_jobs"], {})[r["mode"]] = r
    for jobs, pair in by_jobs.items():
        if "stream" in pair and "preload" in pair and pair["preload"]["wall_ms"]:
            ratio = pair["stream"]["wall_ms"] / pair["preload"]["wall_ms"]
            assert ratio < 1.5, (
                "streamed replay %.2fx slower than preload at %d jobs"
                % (ratio, jobs))
PY

echo "==> bench_store (E16: WAL throughput, snapshot latency)"
# The binary asserts (exit 2) that recovery replays every journaled
# transfer.
./build-release-bench/bench/bench_store --ops 50000 --out BENCH_store.json

python3 - <<'PY'
import json
out = json.load(open("BENCH_store.json"))
for r in out["wal"]:
    print("BENCH_store.json: wal %-8s %6d records, %8d rec/s, %5.1f MB/s, "
          "%d fsyncs" % (r["sync"], r["records"], r["records_per_sec"],
                         r["mb_per_sec"], r["fsyncs"]))
    assert r["records_per_sec"] > 0, r
none = next(r for r in out["wal"] if r["sync"] == "none")
batch = next(r for r in out["wal"] if r["sync"] == "batch-64")
always = next(r for r in out["wal"] if r["sync"] == "always")
assert none["fsyncs"] == 0, "sync=none must never fsync"
assert batch["records"] // 64 <= batch["fsyncs"] <= batch["records"] // 64 + 1, (
    "group commit must fsync once per 64 appends (plus the final flush)")
assert always["fsyncs"] == always["records"], (
    "sync=always must fsync every append")
snap = out["snapshot"]
print("  snapshot: %d ops, image %d B, write %.2f ms, recover replay "
      "%.2f ms vs snapshot %.2f ms"
      % (snap["ops"], snap["image_bytes"], snap["snapshot_ms"],
         snap["recover_replay_ms"], snap["recover_snapshot_ms"]))
PY

echo "==> bench_telemetry (sampling overhead on a full grid run)"
TELEMETRY_JSON="build-release-bench/bench_telemetry_raw.json"
./build-release-bench/bench/bench_telemetry \
  --benchmark_filter='GridRunTelemetry' \
  --benchmark_repetitions=7 \
  --benchmark_out="${TELEMETRY_JSON}" \
  --benchmark_out_format=json

python3 - "${TELEMETRY_JSON}" <<'PY'
import json, statistics, sys
raw = json.load(open(sys.argv[1]))

# BM_GridRunTelemetry times the sampling-off and sampling-on runs as a pair
# inside every iteration (alternating order), so clock drift cancels and its
# off/on counters are directly comparable. Take the median over repetitions
# to shed any rep that caught a scheduling hiccup.
reps = [b for b in raw["benchmarks"]
        if b.get("run_type") == "iteration" and "off_ms_per_run" in b]
assert reps, "no paired GridRunTelemetry rows in benchmark output"
t_off = statistics.median(b["off_ms_per_run"] for b in reps)
t_on = statistics.median(b["on_ms_per_run"] for b in reps)
overhead = statistics.median(b["overhead_pct"] for b in reps)
out = {
    "benchmark": "BM_GridRunTelemetry (48 jobs, 3 clusters, full market)",
    "workload": "end-to-end GridSystem::run with periodic telemetry sampling "
                "off vs on at the default 5 sim-second cadence, timed as an "
                "order-alternating pair per iteration "
                "(16 series, 4N + 4 for N = 3 clusters, into 512-point "
                "downsampling buffers, and none with sampling off; zero "
                "allocations per snapshot, see tests/obs/sampler_alloc_test.cpp)",
    "run_ms_sampling_off": round(t_off, 3),
    "run_ms_sampling_on": round(t_on, 3),
    "overhead_percent": round(overhead, 2),
    "build": "release-bench (-O3 -DNDEBUG)",
    "source": "ci/run.sh",
}
json.dump(out, open("BENCH_telemetry.json", "w"), indent=2)
print("BENCH_telemetry.json: %.3f ms off, %.3f ms on, %.2f%% overhead"
      % (t_off, t_on, overhead))
assert overhead < 5.0, (
    "telemetry sampling overhead %.2f%% >= 5%% budget" % overhead)
PY

echo "==> bench_profiler (E14: host-time profiler overhead on a full grid run)"
PROFILER_JSON="build-release-bench/bench_profiler_raw.json"
./build-release-bench/bench/bench_profiler \
  --benchmark_filter='GridRunProfiler' \
  --benchmark_repetitions=7 \
  --benchmark_out="${PROFILER_JSON}" \
  --benchmark_out_format=json

python3 - "${PROFILER_JSON}" <<'PY'
import json, statistics, sys
raw = json.load(open(sys.argv[1]))

# BM_GridRunProfiler times the profiler-off and profiler-on runs as a pair
# inside every iteration (alternating order, the E12 protocol), so clock
# drift cancels. Median over repetitions sheds scheduling hiccups.
reps = [b for b in raw["benchmarks"]
        if b.get("run_type") == "iteration" and "off_ms_per_run" in b]
assert reps, "no paired GridRunProfiler rows in benchmark output"
t_off = statistics.median(b["off_ms_per_run"] for b in reps)
t_on = statistics.median(b["on_ms_per_run"] for b in reps)
overhead = statistics.median(b["overhead_pct"] for b in reps)
out = {
    "benchmark": "BM_GridRunProfiler (48 jobs, 3 clusters, full market)",
    "workload": "end-to-end GridSystem::run with the host-time profiler "
                "(DESIGN.md §12) off vs on, timed as an "
                "order-alternating pair per iteration; per-event TSC "
                "bracketing + kind/entity attribution, "
                "zero allocations on the hot path "
                "(tests/obs/profiler_alloc_test.cpp)",
    "run_ms_profiler_off": round(t_off, 3),
    "run_ms_profiler_on": round(t_on, 3),
    "overhead_percent": round(overhead, 2),
    "build": "release-bench (-O3 -DNDEBUG)",
    "source": "ci/run.sh",
}
json.dump(out, open("BENCH_profiler.json", "w"), indent=2)
print("BENCH_profiler.json: %.3f ms off, %.3f ms on, %.2f%% overhead"
      % (t_off, t_on, overhead))
assert overhead < 5.0, (
    "profiler overhead %.2f%% >= 5%% budget" % overhead)
PY

echo "==> bench_live (E17: live operations plane overhead on a full grid run)"
LIVE_JSON="build-release-bench/bench_live_raw.json"
./build-release-bench/bench/bench_live \
  --benchmark_filter='GridRunLivePlane' \
  --benchmark_repetitions=7 \
  --benchmark_out="${LIVE_JSON}" \
  --benchmark_out_format=json

python3 - "${LIVE_JSON}" <<'PY'
import json, statistics, sys
raw = json.load(open(sys.argv[1]))

# BM_GridRunLivePlane times the plane-off and plane-on runs as a pair inside
# every iteration (alternating order, the E12/E14 protocol), so clock drift
# cancels. Median over repetitions sheds scheduling hiccups.
reps = [b for b in raw["benchmarks"]
        if b.get("run_type") == "iteration" and "off_ms_per_run" in b]
assert reps, "no paired GridRunLivePlane rows in benchmark output"
t_off = statistics.median(b["off_ms_per_run"] for b in reps)
t_on = statistics.median(b["on_ms_per_run"] for b in reps)
overhead = statistics.median(b["overhead_pct"] for b in reps)
out = {
    "benchmark": "BM_GridRunLivePlane (512 jobs, 3 clusters, full market)",
    "workload": "end-to-end GridSystem::run with the live operations plane "
                "(DESIGN.md §15) off vs on — HTTP server bound, monitors "
                "evaluating, snapshots publishing at the default 0.1s host "
                "pacing — timed as an order-alternating pair per iteration; "
                "steady-state publishes allocate nothing on the simulation "
                "thread (tests/obs/live_alloc_test.cpp)",
    "run_ms_live_off": round(t_off, 3),
    "run_ms_live_on": round(t_on, 3),
    "overhead_percent": round(overhead, 2),
    "build": "release-bench (-O3 -DNDEBUG)",
    "source": "ci/run.sh",
}
json.dump(out, open("BENCH_live.json", "w"), indent=2)
print("BENCH_live.json: %.3f ms off, %.3f ms on, %.2f%% overhead"
      % (t_off, t_on, overhead))
assert overhead < 5.0, (
    "live plane overhead %.2f%% >= 5%% budget" % overhead)
PY
