// tcio-lint: an always-on, dependency-free static analyzer for the
// TCIO-specific invariants that the runtime checker (src/check/) and the
// chaos harness (src/chaos/) can only catch when a workload happens to
// execute them. See DESIGN.md §12 for the rule rationale; every rule is
// grounded in a real past bug or a standing project discipline.
//
// Rules (names are stable — suppressions and fixtures key on them):
//   rma-source-lifetime    a block-local buffer's address escapes into an
//                          asynchronous sink (Rma put/putIndexed, isend) or
//                          a longer-lived object, and the scope closes
//                          before the epoch does (the PR 5
//                          ensureLoadedIndependent bug; the PR 8 ~File
//                          teardown bug is the member-order variant)
//   collective-divergence  a collective call inside a rank-conditional
//                          branch without a matching call on the other path
//   raii-temporary         an unbound RAII temporary (ScopedUserTag,
//                          lock_guard, ...) that destructs immediately
//   journal-batch-pairing  Journal::batchBegin without batchEnd on every
//                          exit path of the function
//   crash-unwind-swallow   a broad catch ((...) / std::exception / Error)
//                          that can swallow RankCrashedError without
//                          rethrowing or capturing it
//   banned-api             wall-clock time, raw std::mutex / threads /
//                          sleeps anywhere; ucontext switches outside
//                          src/sim; raw MPI_* outside src/mpi (the
//                          simulation runs on virtual time, and its ranks
//                          are fibers switched in exactly one place); ISA
//                          intrinsics headers and __builtin_cpu_* probes
//                          outside src/common/crc32.cc
//
// Suppression: `// NOLINT-TCIO(rule): reason` on the finding's line or the
// line directly above. The reason is mandatory — a bare suppression is
// itself a finding (rule `lint-suppression`), so every waiver in the tree
// carries its justification.
//
// Fixtures: `// LINT-EXPECT[rule]` marks the line a red fixture expects a
// finding on. checkExpectations() passes iff findings and expectations
// match exactly, so a fixture pins both that a rule fires and *where*.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "lint/lexer.h"

namespace tcio::lint {

struct Finding {
  std::string path;
  int line = 0;
  std::string rule;
  std::string message;

  /// Machine-readable one-liner: "path:line: rule: message".
  std::string str() const;
};

/// All rule names, in reporting order.
std::vector<std::string> ruleNames();

/// Lints one file's contents. `path` should be repo-relative with forward
/// slashes — the banned-api rule's src/sim and src/mpi carve-outs key on
/// it. NOLINT-TCIO suppressions are applied; malformed ones are reported.
std::vector<Finding> lintText(const std::string& path,
                              std::string_view content);

/// Reads and lints a file on disk. `display_path` is what findings carry
/// (pass the repo-relative form); the file is read from `fs_path`.
std::vector<Finding> lintFile(const std::string& fs_path,
                              const std::string& display_path);

/// Fixture verdict: every LINT-EXPECT[rule] line produced that finding and
/// no unexpected finding appeared. `problems` lists each mismatch.
struct ExpectResult {
  bool ok = true;
  std::vector<std::string> problems;
};
ExpectResult checkExpectations(const std::string& path,
                               std::string_view content);

namespace detail {

// One rule pass: appends raw (pre-suppression) findings.
using RuleFn = void (*)(const LexedFile&, const std::string& path,
                        std::vector<Finding>*);

void ruleRmaSourceLifetime(const LexedFile&, const std::string&,
                           std::vector<Finding>*);
void ruleCollectiveDivergence(const LexedFile&, const std::string&,
                              std::vector<Finding>*);
void ruleRaiiTemporary(const LexedFile&, const std::string&,
                       std::vector<Finding>*);
void ruleJournalBatchPairing(const LexedFile&, const std::string&,
                             std::vector<Finding>*);
void ruleCrashUnwindSwallow(const LexedFile&, const std::string&,
                            std::vector<Finding>*);
void ruleBannedApi(const LexedFile&, const std::string&,
                   std::vector<Finding>*);

}  // namespace detail

}  // namespace tcio::lint
