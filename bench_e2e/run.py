#!/usr/bin/env python3
"""Build bench_e2e from this checkout's sources, then run it.

    python3 bench_e2e/run.py --workload market_fanout --seed 7 --seconds 15 --trace 0
    python3 bench_e2e/run.py --workload all --reps 5 --trace 1 --out results.json
    python3 bench_e2e/run.py --smoke

Every argument except --binary is passed to the bench_e2e binary (README.md
lists them). The build lands in .bench_build/e2e at the checkout root and is
reused by later runs; its output goes to stderr, so the last line of stdout
is the benchmark's JSON result.

--smoke additionally checks that every metric BENCHMARK.json declares is
reported, finite, for every workload. --binary PATH runs an already-built
binary instead of building one (the smoke ctest uses it).
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2e")


def fail(message):
    print("bench_e2e: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no simulator sources in %s (missing %s)" % (ROOT, needed))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "bench_e2e", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(BUILD, "bench_e2e")


def check_smoke(out_path):
    """Every declared metric must be reported, in its declared unit and
    finite, for every declared workload."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    with open(out_path) as f:
        result = json.load(f)
    metrics = declared["end_to_end"] + declared["per_layer"]
    workloads = [w["name"] for w in declared["workloads"]]
    problems = []
    if sorted(result["workloads"]) != sorted(workloads):
        problems.append("workloads %s, BENCHMARK.json declares %s"
                        % (sorted(result["workloads"]), sorted(workloads)))
    for workload, data in result["workloads"].items():
        for m in metrics:
            metric = data["metrics"].get(m["name"])
            if metric is None or not metric["samples"]:
                problems.append("%s: %s missing" % (workload, m["name"]))
            elif metric["unit"] != m["unit"]:
                problems.append("%s: %s in %s, declared %s"
                                % (workload, m["name"], metric["unit"], m["unit"]))
            elif not all(math.isfinite(v) for v in metric["samples"]):
                problems.append("%s: %s not finite" % (workload, m["name"]))
    for p in problems:
        print("smoke: " + p, file=sys.stderr)
    return not problems


def main(argv):
    args = list(argv)
    binary = None
    if "--binary" in args:
        i = args.index("--binary")
        if i + 1 >= len(args):
            fail("--binary needs a path")
        binary = args[i + 1]
        del args[i:i + 2]
    if binary is None:
        binary = build()

    smoke = "--smoke" in args
    if smoke and "--out" not in args:
        args += ["--out", os.path.join(os.path.dirname(os.path.abspath(binary)),
                                       "smoke.json")]
    code = subprocess.run([binary] + args).returncode
    if code != 0:
        return code
    if smoke and not check_smoke(args[args.index("--out") + 1]):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
