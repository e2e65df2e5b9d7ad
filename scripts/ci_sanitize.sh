#!/bin/bash
# Sanitizer CI tier: the full suite under AddressSanitizer + UBSan, the
# fault/crash matrices under the same, then the concurrency-heavy suites
# under ThreadSanitizer. Each family uses its own build tree so the regular
# build/ stays fast and the trees never mix instrumentation.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=build-asan
cmake -B "$BUILD" -S . -DTCIO_SANITIZE=ON >/dev/null
cmake --build "$BUILD" -j "$(nproc)"
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)" "$@"

# The fault and crash matrices exercise the error-recovery paths (retry
# loops, chunk remapping, collective agreement, liveness detection,
# communicator shrink, journal replay) that the healthy tier-1 run never
# enters; run them explicitly so a leak or UB in a catch block or an
# unwound (crashed) rank cannot hide behind the happy path. The crash
# seed is pinned so the sanitized run covers a known-interesting schedule.
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
TCIO_FAULT_SEED=7 \
  ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)" \
  -R 'TcioFault|FaultPlan|TcioCrash|CrashPlan|Journal|Liveness'

# -- ThreadSanitizer ----------------------------------------------------------
# Every rank is an M:1 fiber on the thread that runs the job, with a strict
# one-active-rank handoff, and the delegate server core multiplexes 10k+
# client queues over it. The engine annotates each fiber switch for TSan
# (and for ASan above), so TSan on the delegate and chaos suites checks that
# discipline where it is busiest: every handoff is a happens-before edge, and
# anything racing outside it is reported. Clean with no suppressions, and it
# must stay that way.
TSAN_BUILD=build-tsan
cmake -B "$TSAN_BUILD" -S . -DTCIO_SANITIZE=thread >/dev/null
cmake --build "$TSAN_BUILD" -j "$(nproc)" --target test_delegate test_chaos
echo "== delegate + chaos suites under TSan =="
TSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir "$TSAN_BUILD" --output-on-failure -j "$(nproc)" \
  -R 'Delegate|Chaos'
