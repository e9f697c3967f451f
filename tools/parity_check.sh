#!/usr/bin/env bash
# Output parity of the working tree against another revision.
#
#   tools/parity_check.sh <rev> [work-dir=build-parity]
#
# Extracts <rev> with `git archive`, builds it and the working tree in
# Release, runs tools/parity_dump from each build on one corpus and `cmp`s
# every pair of dumps. Both builds compile the working tree's
# tools/parity_dump.cpp against their own library, through a wrapper
# project that adds the tree with add_subdirectory, so <rev> need not have
# the tool; it only has to have the public API the tool calls. Both use
# the same compiler, so no committed digest is involved.
#
# Corpus (parity_dump arguments):
#   dts 2000 1 {1,42} 0         the 2,000-node traced day
#   dts 2000 1 1 2              the same on two workers: fewer workers
#                               than ready shards, so the shard graph runs
#                               in orders the 4-thread dumps never take
#   dts 10000 1 {1,7} {1,4}     the 10,000-node aggregate day
#   dts-adr 2000 1 {3,11} {1,4} the traced day on slotted ALOHA with ADR,
#                               Doppler precompensation, 5/8-wave antenna
#   dts-adr 2000 1 3 2          the same on two workers
#   campaign 3 1 {1,0}          the 3-day campaign, 1 thread and all
#   campaign 30 1 0             the 30-day campaign of bench/e2e's
#                               campaign-30d
#   campaign 61 1 0             61 days: beacons after day 60 fall outside
#                               the lane certificate and take the scalar
#                               look
#
# Exits 0 when every dump matches, 1 when one differs (its first differing
# lines are printed), 2 on a usage, checkout or build error.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ $# -lt 1 || $# -gt 2 ]]; then
  sed -n '2,31p' "${BASH_SOURCE[0]}" >&2
  exit 2
fi
REV="$1"
WORK="$(mkdir -p "${2:-$ROOT/build-parity}" && cd "${2:-$ROOT/build-parity}" && pwd)"
JOBS="$(nproc)"

fail() {
  echo "parity_check: $*" >&2
  exit 2
}

git -C "$ROOT" rev-parse --verify --quiet "$REV^{commit}" > /dev/null ||
  fail "unknown revision '$REV'"

# Fresh build trees every run: `git archive` stamps files with the
# commit time, which an older build of another revision would outdate.
rm -rf "$WORK/rev-src" "$WORK/wrapper" "$WORK/build-rev" "$WORK/build-tree"
mkdir -p "$WORK/rev-src" "$WORK/wrapper"
git -C "$ROOT" archive "$REV" | tar -x -C "$WORK/rev-src" ||
  fail "git archive $REV failed"

cat > "$WORK/wrapper/CMakeLists.txt" <<'EOF'
cmake_minimum_required(VERSION 3.16)
project(sinet_parity LANGUAGES CXX)
set(CMAKE_CXX_STANDARD 20)
set(CMAKE_CXX_STANDARD_REQUIRED ON)
add_subdirectory(${SINET_TREE} sinet EXCLUDE_FROM_ALL)
add_executable(dump ${DUMP_SOURCE})
target_link_libraries(dump PRIVATE sinet::sinet)
EOF

build() {  # build <side> <source tree>
  local dir="$WORK/build-$1"
  local generator=()
  command -v ninja > /dev/null && generator=(-G Ninja)
  echo "parity_check: building $1 ($2)" >&2
  cmake -S "$WORK/wrapper" -B "$dir" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release -DSINET_TREE="$2" \
    -DDUMP_SOURCE="$ROOT/tools/parity_dump.cpp" > "$WORK/$1.configure.log" \
    2>&1 || { cat "$WORK/$1.configure.log" >&2; fail "configure $1 failed"; }
  cmake --build "$dir" --target dump -j "$JOBS" > "$WORK/$1.build.log" \
    2>&1 || { tail -40 "$WORK/$1.build.log" >&2; fail "build $1 failed"; }
}

build rev "$WORK/rev-src"
build tree "$ROOT"

CORPUS=(
  "dts 2000 1 1 0"
  "dts 2000 1 42 0"
  "dts 2000 1 1 2"
  "dts 10000 1 1 1"
  "dts 10000 1 1 4"
  "dts 10000 1 7 1"
  "dts 10000 1 7 4"
  "dts-adr 2000 1 3 1"
  "dts-adr 2000 1 3 4"
  "dts-adr 2000 1 3 2"
  "dts-adr 2000 1 11 1"
  "dts-adr 2000 1 11 4"
  "campaign 3 1 1"
  "campaign 3 1 0"
  "campaign 30 1 0"
  "campaign 61 1 0"
)

status=0
for args in "${CORPUS[@]}"; do
  name="${args// /_}"
  for side in rev tree; do
    # shellcheck disable=SC2086  # the arguments are meant to split
    "$WORK/build-$side/dump" $args > "$WORK/$name.$side" ||
      fail "dump $args failed on $side"
  done
  if cmp -s "$WORK/$name.rev" "$WORK/$name.tree"; then
    echo "same    $args ($(wc -l < "$WORK/$name.tree") lines)"
  else
    echo "DIFFERS $args"
    diff "$WORK/$name.rev" "$WORK/$name.tree" | head -8 || true
    status=1
  fi
done
if [[ $status -eq 0 ]]; then
  echo "parity_check: every dump matches $REV"
else
  echo "parity_check: dumps differ from $REV" >&2
fi
exit $status
