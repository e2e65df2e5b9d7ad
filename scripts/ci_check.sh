#!/bin/bash
# Correctness-checking CI tier: clang-tidy static analysis over src/ plus the
# full test suite with the runtime checker attached (TCIO_CHECK=1, see
# src/check/ and DESIGN.md §9), with the integrity pipeline forced on
# (TCIO_INTEGRITY=1, alone and with TCIO_DELEGATES=2), with the chaos soak's
# integrity faults armed (TCIO_CHAOS_INTEGRITY=1), and on a Release build,
# plus the fast delegate, node-aggregation, integrity, fault-degradation and
# lazy-read benches, whose acceptance lines are gates.
# The clang-tidy pass is STRICT — findings fail the job — when the pinned
# major version (TCIO_TIDY_VERSION) is what runs: check sets drift
# across majors, so only the pinned toolchain's verdict is authoritative. A
# runner with a different clang-tidy runs it advisory; a runner with none
# skips the pass (the runtime tier below is always the gate).
# TCIO_TIDY_STRICT=0/1 force-overrides the version-derived default.
#
#   TCIO_CHECK_BUILD    build directory (default build-check)
#   TCIO_TIDY_VERSION   pinned clang-tidy major version (default 18)
#   TCIO_TIDY_STRICT    0/1 = force advisory/strict (default: auto by pin)
#   TCIO_TIDY_JOBS      parallel tidy processes (default nproc)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${TCIO_CHECK_BUILD:-build-check}
TIDY_PIN=${TCIO_TIDY_VERSION:-18}
STRICT=${TCIO_TIDY_STRICT:-auto}
JOBS=${TCIO_TIDY_JOBS:-$(nproc)}

# -- Source size gate ---------------------------------------------------------
# No file under src/ may exceed 1,000 lines: core::File was split along its
# seams (file.cc, file_exchange.cc, file_recovery.cc, file_integrity.cc),
# and this keeps any unit from quietly regrowing past the limit.
echo "== source size (<= 1000 lines per file under src/) =="
oversize=$(find src -type f -exec wc -l {} + |
  awk '$2 != "total" && $1 > 1000 {print "  " $2 ": " $1 " lines"}')
if [ -n "$oversize" ]; then
  echo "error: files under src/ over 1000 lines:" >&2
  echo "$oversize" >&2
  exit 1
fi

# Compile commands for clang-tidy + a checker-default build for the tests.
cmake -B "$BUILD" -S . \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
  -DTCIO_CHECK=ON >/dev/null
cmake --build "$BUILD" -j "$(nproc)"

# -- Project static analysis (tcio-lint) --------------------------------------
# Unlike clang-tidy below, tcio-lint has no toolchain pin — it is built from
# this tree and its verdict is authoritative on every runner. The src sweep
# must be clean and the fixture corpus must match its annotations exactly.
echo "== tcio-lint (project invariants) =="
cmake --build "$BUILD" -j "$(nproc)" --target tcio-lint >/dev/null
"$BUILD/src/lint/tcio-lint" --root . src
"$BUILD/src/lint/tcio-lint" --root . --expect tests/lint/fixtures

# -- Static analysis ----------------------------------------------------------
if [ ! -f "$BUILD/compile_commands.json" ]; then
  echo "error: $BUILD/compile_commands.json missing — the configure step" \
    "above must run with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON for clang-tidy" \
    "to resolve includes; refusing to continue with a silently skipped pass" >&2
  exit 2
fi

TIDY_BIN=""
if command -v "clang-tidy-$TIDY_PIN" >/dev/null 2>&1; then
  TIDY_BIN="clang-tidy-$TIDY_PIN"
elif command -v clang-tidy >/dev/null 2>&1; then
  TIDY_BIN=clang-tidy
fi

tidy_rc=0
if [ -n "$TIDY_BIN" ]; then
  tidy_major=$("$TIDY_BIN" --version | sed -n 's/.*version \([0-9]*\).*/\1/p' |
    head -n1)
  strict=$STRICT
  if [ "$strict" = "auto" ]; then
    if [ "$tidy_major" = "$TIDY_PIN" ]; then
      strict=1
    else
      strict=0
      echo "clang-tidy major $tidy_major != pinned $TIDY_PIN — advisory run"
    fi
  fi
  echo "== clang-tidy $tidy_major (profile: .clang-tidy, strict=$strict) =="
  mapfile -t sources < <(find src -name '*.cc' | sort)
  printf '%s\n' "${sources[@]}" |
    xargs -P "$JOBS" -I{} "$TIDY_BIN" -quiet -p "$BUILD" {} || tidy_rc=$?
  if [ "$tidy_rc" -ne 0 ]; then
    echo "clang-tidy reported findings (rc=$tidy_rc)"
    [ "$strict" = "1" ] && exit "$tidy_rc"
  fi

  # Tests and benches: always advisory. They use test-local idioms (fixtures,
  # macros, intentional misuse) that the src/ profile over-flags, but the
  # output is still worth a scan in the CI log.
  echo "== clang-tidy over tests/ and bench/ (advisory) =="
  tests_rc=0
  find tests bench -name '*.cc' | sort |
    xargs -P "$JOBS" -I{} "$TIDY_BIN" -quiet -p "$BUILD" {} || tests_rc=$?
  [ "$tests_rc" -ne 0 ] &&
    echo "clang-tidy (tests/bench, advisory) reported findings (rc=$tests_rc)"
else
  echo "clang-tidy not found — skipping the static-analysis pass"
fi

# -- Runtime verification tier ------------------------------------------------
# The whole suite must stay green with every verifier attached: collective
# matching, RMA epochs, segment ownership, and wait-for-graph detection.
echo "== test suite under TCIO_CHECK=1 =="
TCIO_CHECK=1 ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)"

# The exchange and collective I/O suites with glibc filling fresh heap
# memory with a nonzero pattern: exchange send/receive buffers and the
# aggregator region buffer are not zero-filled, so a path that reads a byte
# it never wrote changes a pinned CRC or makespan here instead of reading
# the zeros a fresh page happens to hold. The TCIO suites that run the
# two-sided path are here too: its staged [BlockMeta][payload] record stream
# and its fetch replies arrive in buffers that are not zero-filled either.
# So is the lazy-read record's suite: its walks land pieces in destinations
# that are not zero-filled, so a piece a walk drops or misroutes leaves the
# pattern in a checked byte.
echo "== exchange and collective I/O suites under MALLOC_PERTURB_=165 =="
MALLOC_PERTURB_=165 ctest --test-dir "$BUILD" --output-on-failure \
  -j "$(nproc)" -R \
  'SizedExchange|PackedSend|Collectives|Mpiio|TwoPhase|ViewBased|CollectiveBuffering|IntegrityOracle|'\
'TcioFile|TcioSweep|TcioFaultMatrix|TcioCrashMatrix|PendingReads'

# The delegate, liveness and point-to-point suites the same way: a delegate
# receives every descriptor into one arrival buffer and a client every reply
# into one reply buffer, neither zero-filled, so a length field that reads
# past the bytes a message carried sees the pattern or the previous
# message instead of zeros.
echo "== delegate, liveness and p2p suites under MALLOC_PERTURB_=165 =="
MALLOC_PERTURB_=165 ctest --test-dir "$BUILD" --output-on-failure \
  -j "$(nproc)" -R 'Delegate|Liveness|P2p'

# The node-aggregation, window-lifetime, journal, store and checkpoint
# suites the same way: a leader's arrival buffer, each drained stream, the
# rewritten (coalesced) write streams, a journal frame and a fresh store
# page written in full are not zero-filled, so a record or length walker
# that reads a byte the exchange never wrote changes a pinned figure here.
# A released staging window must come back zero-filled, and a stage is
# freed as soon as the next hop has consumed it, so a re-touched window
# that skips its fill, or a blob view left pointing into a freed stage,
# reads the pattern here instead of zeros by luck. The checkpoint restart's
# tree blobs are not zero-filled either: a piece the gather drops leaves
# the pattern and fails the table CRC check. The read-only TCIO tests ride
# along: a read-only fetch runs no write exchange, so every byte it reads
# back comes from the one-sided gather alone. RMA window host bytes are
# allocated uninitialised and zeroed lazily, a chunk at a time, and a store
# page holds bytes only up to its highest written one: the RMA suite and
# the store tests read around partial puts and writes, so a byte the lazy
# zeroing skips reads the pattern here. The FTT suite rides along: its
# parser is what reads the restart's tree blobs, which are not zero-filled.
# So do the integrity matrix and the CRC-32 suite: the staging log's chunks,
# the coalesced streams and the journal batch start uninitialised, and each
# hop's CRC is taken inside the copy that fills them (crc32Copy), so a copy
# that skips a byte leaves the pattern under a pinned counter or a CRC-32
# guard byte check.
echo "== node-aggregation, window-lifetime, RMA, journal, store, FTT," \
  "checkpoint, integrity-matrix and CRC-32 suites under MALLOC_PERTURB_=165 =="
MALLOC_PERTURB_=165 ctest --test-dir "$BUILD" --output-on-failure \
  -j "$(nproc)" -R "NodeMap|NodeAggregator|WindowLifetime|Rma|Journal|"\
"Store|Ftt|Checkpoint|IntegrityOracle|ArtCheckpointOracle|ReadOnly|"\
"TcioIntegrityMatrix|Crc32"

# The open/write/close churn workload again, but with delegates resolved
# from the environment: ownership verification must hold when the level-2
# map is sharded across delegate ranks (DESIGN.md §10).
echo "== delegate churn under TCIO_CHECK=1, TCIO_DELEGATES=2 =="
TCIO_CHECK=1 TCIO_DELEGATES=2 ctest --test-dir "$BUILD" \
  --output-on-failure -R 'DelegateChurnTest|DelegateQueueTest'

# The delegate ablation's own acceptance as a gate: file CRC parity across
# delegate counts, FS clients == delegate ranks {0..D-1}, crash recovery,
# and churn rejections absorbed by busy retries. It exits 1 on FAIL.
echo "== delegate ablation (TCIO_BENCH_FAST=1) =="
TCIO_BENCH_FAST=1 "$BUILD/bench/bench_ablation_delegates"

# Four more self-checking benches as gates, each exiting 1 on FAIL: node
# aggregation sends strictly fewer NIC payload messages at 12 ranks per
# node, the integrity pipeline costs at most 5% on every phase, faulted
# runs stay byte-identical with no retry give-ups and a journal under 10%,
# and lazy reads beat eager ones at every P with every byte verified.
for bench in bench_ablation_node_agg bench_ablation_integrity \
    bench_fault_degradation bench_ablation_lazy_read; do
  echo "== $bench (TCIO_BENCH_FAST=1) =="
  TCIO_BENCH_FAST=1 "$BUILD/bench/$bench"
done

# The whole suite again with the end-to-end integrity pipeline forced on, by
# itself and with delegates resolved from the environment: the one owner-side
# ledger (src/tcio/ledger.h) sits on every File and delegate integrity path.
echo "== test suite under TCIO_INTEGRITY=1 =="
TCIO_INTEGRITY=1 ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)"
echo "== test suite under TCIO_INTEGRITY=1, TCIO_DELEGATES=2 =="
TCIO_INTEGRITY=1 TCIO_DELEGATES=2 ctest --test-dir "$BUILD" \
  --output-on-failure -j "$(nproc)"

# The seeded chaos soak with the integrity pipeline armed: its drawn plans
# cascade crashes under silent bit-flips, the one place the crash-mode digest
# exchange meets takeovers. The full-suite legs above run it disarmed.
echo "== chaos suite under TCIO_CHAOS_INTEGRITY=1 =="
TCIO_CHAOS_INTEGRITY=1 ctest --test-dir "$BUILD" --output-on-failure -R Chaos

# -- Release build ------------------------------------------------------------
# The optimized build warns differently from the default RelWithDebInfo one
# (GCC's -O3 flow warnings), and warnings are errors: build it and run the
# suite on it so it cannot silently go red again.
echo "== Release build + suite =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j "$(nproc)"
ctest --test-dir build-release --output-on-failure -j "$(nproc)"

echo "ci_check: OK (tidy rc=$tidy_rc, checker-enabled, integrity and" \
  "Release suites green)"
