#!/usr/bin/env bash
# Behaviour parity against another revision: build scenario_sim from REV and
# from the working tree, run the parity scenarios (ci/parity_scenarios.sh:
# demo, chaos, golden, direct, broadcast, deep, weather, earliest and
# surplus) through both, and byte-compare every artifact (report JSON, trace
# JSONL, Prometheus text, Chrome trace, phases CSV, and the series CSV of
# every scenario but broadcast: 53 in all). Exits non-zero if any artifact
# differs.
#
# REV is exported with `git archive` into build-parity/ (gitignored), so the
# script leaves the repository's git metadata alone. It needs a second build,
# which is why ci/run.sh does not call it. The tier-1 ctest `parity_digests`
# checks the working tree alone against the committed ci/parity.sha256.
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
ci/parity_scenarios.sh "${REV_BUILD}/examples/scenario_sim" "${ART}/rev"
ci/parity_scenarios.sh "${OUT}/build-work/examples/scenario_sim" "${ART}/work"

status=0
echo "==> compare ${REV:0:12} vs working tree"
for f in $(cd "${ART}/work" && find . -mindepth 2 -type f ! -path './inputs/*' | sort); do
  f="${f#./}"
  if cmp -s "${ART}/rev/${f}" "${ART}/work/${f}"; then
    echo "same    ${f} ($(wc -c <"${ART}/work/${f}") bytes)"
  else
    echo "DIFFERS ${f}"
    status=1
  fi
done
if [[ ${status} -eq 0 ]]; then
  echo "parity: all artifacts byte-identical"
else
  echo "parity: artifacts differ (see ${ART}/rev and ${ART}/work)" >&2
fi
exit ${status}
