#!/usr/bin/env bash
# Build and run the full ctest suite under ASan(+LSan), UBSan, and TSan.
#
# Usage:
#   tools/run_sanitizers.sh [preset ...]
#
#   preset   zero or more of: asan ubsan tsan (default: all three)
#
# Each preset configures into build-<preset>/ via CMakePresets.json, which
# sets SINET_SANITIZE so the whole tree (library, tests, benches, examples)
# is instrumented. The test presets export <SAN>_OPTIONS with
# halt_on_error=1 and a distinctive exit code, so ANY sanitizer report
# fails its test, fails ctest, and fails this script — CI-gate ready.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

presets=("$@")
if [[ ${#presets[@]} -eq 0 ]]; then
  presets=(asan ubsan tsan)
fi
for p in "${presets[@]}"; do
  case "$p" in
    asan|ubsan|tsan) ;;
    *) echo "error: unknown preset '$p' (expected asan, ubsan, tsan)" >&2
       exit 2 ;;
  esac
done

jobs="$(nproc 2>/dev/null || echo 2)"
failed=()

for p in "${presets[@]}"; do
  echo "==== [$p] configure"
  cmake --preset "$p"
  echo "==== [$p] build"
  cmake --build --preset "$p" -j "$jobs"
  echo "==== [$p] ctest"
  if ctest --preset "$p" -j "$jobs"; then
    echo "==== [$p] clean"
  else
    echo "==== [$p] FAILED" >&2
    failed+=("$p")
  fi
  if [[ "$p" == tsan ]]; then
    # The parallel DtS engine's dedicated race hunt: 10k nodes on four
    # co-located sites, four workers — the most footprint sharing the
    # conflict scheduler can be handed. Runs again outside ctest so the
    # stress case is never lost to a sharded/filtered ctest invocation.
    echo "==== [$p] parallel DtS stress"
    if ! "build-$p/tests/test_dts_parallel" \
        --gtest_filter='DtsParallelStress.*'; then
      echo "==== [$p] parallel DtS stress FAILED" >&2
      failed+=("$p-dts-stress")
    fi
    # Pass queries racing horizon advances: four query threads while a
    # fifth advances (and retires chunks) under the exclusive lock.
    echo "==== [$p] service queries during horizon advance"
    if ! "build-$p/tests/test_svc" \
        --gtest_filter='SvcServiceStress.*'; then
      echo "==== [$p] service stress FAILED" >&2
      failed+=("$p-svc-stress")
    fi
    # The passive campaign's per-site observe fan-out: all 8 sites at 1,
    # 2, 4 and all hardware threads, record for record against the serial
    # run.
    echo "==== [$p] parallel campaign invariance"
    if ! "build-$p/tests/test_passive_campaign" \
        --gtest_filter='PassiveCampaignParallel.*'; then
      echo "==== [$p] parallel campaign invariance FAILED" >&2
      failed+=("$p-campaign-invariance")
    fi
  fi
done

if [[ ${#failed[@]} -gt 0 ]]; then
  echo "sanitizer failures: ${failed[*]}" >&2
  exit 1
fi
echo "all sanitizer suites clean: ${presets[*]}"
