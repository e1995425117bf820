#!/usr/bin/env bash
# Flat gprof profile of one bench_e2e workload, summed over its inputs.
#
# Configures bench_e2e's own CMake project (Release, built with -pg) into
# build-prof/ (gitignored), runs one untraced child simulation per input
# (`bench_e2e --child WORKLOAD --seed SEED --input i --result-fd 1`) with
# GMON_OUT_PREFIX set, sums the children's profiles with `gprof -s`, and
# prints the top entries of the summed flat profile. Nothing under bench_e2e/
# is edited.
#
# gprof sees only code built with -pg, so libc's malloc and memcmp do not
# show. Self times are sampled (10 ms ticks) and inflate under host load;
# call counts are exact and repeat from run to run.
#
# Usage: ci/profile.sh WORKLOAD [SEED] [INPUTS]
#   WORKLOAD  market_fanout | e13 | replay_deep | chaos_barter
#   SEED      input seed (default 9)
#   INPUTS    profile inputs 0 .. INPUTS-1 (default 8)
set -euo pipefail

if [[ $# -lt 1 || $# -gt 3 ]]; then
  echo "usage: $0 WORKLOAD [SEED] [INPUTS]" >&2
  exit 2
fi
WORKLOAD="$1"
SEED="${2:-9}"
INPUTS="${3:-8}"
TOP=25
if ! [[ "${SEED}" =~ ^[0-9]+$ && "${INPUTS}" =~ ^[1-9][0-9]*$ ]]; then
  echo "profile: SEED must be a number and INPUTS a positive number" >&2
  exit 2
fi
cd "$(dirname "$0")/.."
BUILD="build-prof"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "==> build bench_e2e with -pg into ${BUILD}/" >&2
cmake -S bench_e2e -B "${BUILD}" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg >/dev/null
cmake --build "${BUILD}" -j "${JOBS}" --target bench_e2e >/dev/null
BIN="$(pwd)/${BUILD}/bench_e2e"

GMON="${BUILD}/gmon/${WORKLOAD}"
rm -rf "${GMON}"
mkdir -p "${GMON}"
echo "==> ${WORKLOAD}, seed ${SEED}, inputs 0-$((INPUTS - 1))" >&2
for ((i = 0; i < INPUTS; ++i)); do
  GMON_OUT_PREFIX="${GMON}/gmon" "${BIN}" --child "${WORKLOAD}" \
    --seed "${SEED}" --input "${i}" --result-fd 1 >/dev/null
done

(cd "${GMON}" && gprof -s "${BIN}" gmon.*)
gprof -b -p "${BIN}" "${GMON}/gmon.sum" | head -n "$((TOP + 5))"
