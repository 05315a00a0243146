#!/usr/bin/env bash
# xqcheck — one-command static-analysis and sanitizer driver for xqdb.
#
# Runs, in order:
#   analyze    clang -Werror=thread-safety capability-annotation build
#              (-DXQDB_ANALYZE=ON; skipped when clang is not installed),
#              then the semantic-analysis gate: ctest -L analysis (static
#              type/cardinality inference + the lint corpus sweep) and a
#              200-seed xqdiff smoke whose static-vs-unoptimized oracle
#              compares static folding against unoptimized execution
#   tidy       the clang-tidy sweep over src/ and tools/ (skipped when
#              clang-tidy is not installed)
#   undefined  UBSan build (-fno-sanitize-recover) + the FULL ctest suite
#   thread     TSan build + the `concurrency` and `deadlock` ctest labels
#              (thread pool, parallel exec, cache/metrics contention,
#              serving layer with live-socket DML), then the bench
#              driver's parallel and batch rows under TSan
#   address    ASan build + the 30s `fuzz-smoke` ctest label
#   deadlock   -DXQDB_DEADLOCK=ON build + the `deadlock` ctest label
#              (rank-table pins, detector death tests, the server-session
#              deadlock hammer), the xqinvariant sweep over src/ and
#              tools/ (XQI001-006 must report zero findings), and the
#              release no-op check: a detector-off build of xqdb_common
#              must contain no `lockorder` symbol (nm sweep)
#
# Each mode writes <out>/xqcheck-<mode>.json and the run ends with an
# aggregate <out>/xqcheck.json. Exit status 0 iff no mode failed (skips do
# not fail the run — CI provides the clang toolchain; a gcc-only dev box
# still gets the three sanitizer matrices).
#
# Usage: tools/xqcheck.sh [--out DIR] [--jobs N] [--modes a,b,...]
set -u

cd "$(dirname "$0")/.."
REPO="$(pwd)"
OUT="$REPO/build-check"
JOBS="$(nproc 2>/dev/null || echo 4)"
MODES="analyze,tidy,undefined,thread,address,deadlock"

while [ $# -gt 0 ]; do
  case "$1" in
    --out) OUT="$2"; shift 2 ;;
    --jobs) JOBS="$2"; shift 2 ;;
    --modes) MODES="$2"; shift 2 ;;
    -h|--help) sed -n '2,20p' "$0"; exit 0 ;;
    *) echo "xqcheck: unknown argument: $1" >&2; exit 2 ;;
  esac
done

mkdir -p "$OUT"
FAILED=0
SUMMARY_ROWS=""

# write_atomic <path>: publishes stdin at <path> via the atomic_write CLI
# (write-temp + fsync + rename — a CI artifact poller never reads a torn
# report). Falls back to a plain redirect before any build has produced the
# binary.
write_atomic() {
  local path="$1" aw
  aw="$(ls "$OUT"/*/tools/atomic_write 2>/dev/null | head -n 1)"
  if [ -n "$aw" ] && [ -x "$aw" ]; then
    "$aw" "$path"
  else
    cat > "$path"
  fi
}

# record <mode> <status> <seconds> <detail>
record() {
  local mode="$1" status="$2" seconds="$3" detail="$4"
  printf '{"mode": "%s", "status": "%s", "seconds": %s, "detail": "%s"}\n' \
    "$mode" "$status" "$seconds" "$detail" | write_atomic "$OUT/xqcheck-$mode.json"
  SUMMARY_ROWS="$SUMMARY_ROWS    {\"mode\": \"$mode\", \"status\": \"$status\", \"seconds\": $seconds, \"detail\": \"$detail\"},\n"
  case "$status" in
    passed)  echo "xqcheck: $mode PASSED (${seconds}s)" ;;
    skipped) echo "xqcheck: $mode SKIPPED ($detail)" ;;
    *)       echo "xqcheck: $mode FAILED ($detail) — log: $OUT/$mode.log" >&2
             FAILED=1 ;;
  esac
}

# run_mode <mode> <cmake-extra-args...> -- <post-build command...>
# Configures+builds into $OUT/<mode>; then runs the post-build command (if
# any) inside the build dir. Logs everything to $OUT/<mode>.log.
run_mode() {
  local mode="$1"; shift
  local cmake_args=()
  while [ $# -gt 0 ] && [ "$1" != "--" ]; do cmake_args+=("$1"); shift; done
  [ $# -gt 0 ] && shift  # drop --
  local bdir="$OUT/$mode" log="$OUT/$mode.log" t0 t1
  t0=$(date +%s)
  if ! cmake -B "$bdir" -S "$REPO" "${cmake_args[@]}" > "$log" 2>&1; then
    record "$mode" failed $(( $(date +%s) - t0 )) "cmake configure failed"
    return
  fi
  if ! cmake --build "$bdir" -j "$JOBS" >> "$log" 2>&1; then
    record "$mode" failed $(( $(date +%s) - t0 )) "build failed"
    return
  fi
  if [ $# -gt 0 ]; then
    if ! (cd "$bdir" && "$@") >> "$log" 2>&1; then
      record "$mode" failed $(( $(date +%s) - t0 )) "$* failed"
      return
    fi
  fi
  t1=$(date +%s)
  record "$mode" passed $((t1 - t0)) "clean"
}

for mode in $(echo "$MODES" | tr ',' ' '); do
  case "$mode" in
    analyze)
      CLANGXX="$(command -v clang++ || true)"
      if [ -z "$CLANGXX" ]; then
        record analyze skipped 0 "clang++ not on PATH"
      else
        # Post-build: the semantic-analysis suite (static type/cardinality
        # inference tests + the lint corpus gate), then a pinned-seed
        # xqdiff smoke — its static-vs-unoptimized oracle is the
        # end-to-end proof that no fold changes a result.
        run_mode analyze -DXQDB_ANALYZE=ON -DXQDB_TIDY=OFF \
          -DCMAKE_CXX_COMPILER="$CLANGXX" -- \
          bash -c "ctest --output-on-failure -L analysis -j $JOBS && \
            ./tools/xqdiff --seed 1..200 --queries 10"
      fi
      ;;
    tidy)
      if ! command -v clang-tidy > /dev/null; then
        record tidy skipped 0 "clang-tidy not on PATH"
      else
        # Build first so generated sources/compile DB exist, then sweep.
        run_mode tidy -DXQDB_TIDY=OFF -- \
          cmake --build . --target tidy
      fi
      ;;
    undefined)
      run_mode undefined -DXQDB_SANITIZE=undefined -DXQDB_TIDY=OFF -- \
        ctest --output-on-failure -j "$JOBS"
      ;;
    thread)
      # The concurrency label (which includes the batch-execution stats
      # merge pins in parallel_exec_test, and server_test's live-socket
      # readers racing DML — the cross-thread traffic TSan is best at).
      # The xqbench pass drives the thread ladder, the vectorized batch
      # kernels and the index-only aggregate across the pool's chunk
      # fan-out under TSan (its timing gates skip in a sanitizer build).
      run_mode thread -DXQDB_SANITIZE=thread -DXQDB_TIDY=OFF -- \
        bash -c "ctest --output-on-failure -L 'concurrency|deadlock' -j $JOBS && \
          ./tools/xqbench --smoke --only E-parallel,E-batch \
            --out xqbench_tsan.json"
      ;;
    address)
      run_mode address -DXQDB_SANITIZE=address -DXQDB_TIDY=OFF -- \
        ctest --output-on-failure -L fuzz-smoke
      ;;
    deadlock)
      # Three gates in one mode: (1) the `deadlock` ctest label under the
      # runtime detector — rank-table pins, inversion/upgrade death tests,
      # the server-session hammer whose observed acquires-after graph must
      # be a subgraph of the declared hierarchy; (2) the xqinvariant
      # source sweep — zero XQI findings on the shipped tree; (3) the
      # release no-op proof — a detector-off build of the common library
      # must strip every `lockorder` symbol (the wrappers compile down to
      # the bare std primitives).
      run_mode deadlock -DXQDB_DEADLOCK=ON -DXQDB_TIDY=OFF -- \
        bash -c "ctest --output-on-failure -L deadlock -j $JOBS && \
          ./tools/xqinvariant '$REPO/src' '$REPO/tools' && \
          cmake -B '$OUT/deadlock-nm' -S '$REPO' -DXQDB_DEADLOCK=OFF \
            -DXQDB_TIDY=OFF -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null && \
          cmake --build '$OUT/deadlock-nm' --target xqdb_common -j $JOBS \
            > /dev/null && \
          if nm -C '$OUT/deadlock-nm/src/libxqdb_common.a' 2>/dev/null \
            | grep -q lockorder; then \
            echo 'release build leaks lockorder symbols'; exit 1; \
          fi"
      ;;
    *)
      record "$mode" failed 0 "unknown mode"
      ;;
  esac
done

{
  echo '{'
  echo '  "tool": "xqcheck",'
  echo "  \"failed\": $FAILED,"
  echo '  "modes": ['
  printf '%b' "$SUMMARY_ROWS" | sed '$s/,$//'
  echo '  ]'
  echo '}'
} | write_atomic "$OUT/xqcheck.json"

echo "xqcheck: summary written to $OUT/xqcheck.json"

# Exit contract (pinned by tests/xqcheck_exit_test.sh): nonzero iff ANY
# selected mode failed. Belt-and-braces: besides the in-shell flag, re-read
# the per-mode reports — a `record failed` that ever ran in a subshell
# would update the JSON but not $FAILED, and must still fail the run.
for report in "$OUT"/xqcheck-*.json; do
  [ -f "$report" ] || continue
  if grep -q '"status": "failed"' "$report"; then FAILED=1; fi
done
exit $FAILED
