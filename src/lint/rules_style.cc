// Statement- and token-local rules: raii-temporary, crash-unwind-swallow,
// banned-api. These need no scope model — only the token stream and, for
// banned-api, the file's repo-relative path.
#include <array>
#include <string_view>

#include "lint/lint.h"
#include "lint/token_cursor.h"

namespace tcio::lint::detail {

namespace {

bool pathUnder(const std::string& path, std::string_view prefix) {
  return path.rfind(prefix, 0) == 0;
}

/// RAII types whose whole point is their destructor running *later*. An
/// unbound temporary of one of these destructs at the end of the full
/// expression — the tag/lock covers nothing (the PR 8 satellite's
/// `check::ScopedUserTag{...};` hazard).
constexpr std::array<std::string_view, 6> kRaiiTypes = {
    "ScopedUserTag", "lock_guard", "unique_lock",
    "scoped_lock",   "shared_lock", "ScopedTimeline",
};

bool isRaiiType(const std::string& name) {
  for (std::string_view t : kRaiiTypes) {
    if (name == t) return true;
  }
  return false;
}

/// Skips a balanced `<...>` template-argument span starting at `i` (which
/// points at `<`). Returns the index one past the closing `>`, or `i` when
/// the span does not look like template arguments (comparison operator).
std::size_t skipAngles(const std::vector<Token>& t, std::size_t i) {
  int depth = 0;
  for (std::size_t k = i; k < t.size(); ++k) {
    if (is(t[k], "<")) ++depth;
    if (is(t[k], ">") && --depth == 0) return k + 1;
    if (is(t[k], ";") || is(t[k], "{")) break;  // not template args
  }
  return i;
}

}  // namespace

void ruleRaiiTemporary(const LexedFile& lf, const std::string& path,
                       std::vector<Finding>* out) {
  (void)path;
  const std::vector<Token>& t = lf.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    // Statement starts only: an expression-statement beginning with a RAII
    // type name is a construction, not a call.
    if (i != 0 && !is(t[i - 1], ";") && !is(t[i - 1], "{") &&
        !is(t[i - 1], "}")) {
      continue;
    }
    // Qualified-id: [::] ident (:: ident)*.
    std::size_t j = i;
    if (is(t[j], "::")) ++j;
    if (j >= t.size() || t[j].kind != Tok::kIdent) continue;
    std::string last = t[j].text;
    ++j;
    while (j + 1 < t.size() && is(t[j], "::") &&
           t[j + 1].kind == Tok::kIdent) {
      last = t[j + 1].text;
      j += 2;
    }
    if (!isRaiiType(last) || j >= t.size()) continue;
    const int line = t[j - 1].line;
    if (is(t[j], "<")) j = skipAngles(t, j);
    if (j >= t.size()) continue;
    if (t[j].kind == Tok::kIdent) continue;  // bound: `ScopedUserTag tag(...)`
    if (!is(t[j], "(") && !is(t[j], "{")) continue;
    const std::size_t close = matchDelim(t, j);
    if (close + 1 < t.size() && is(t[close + 1], ";")) {
      out->push_back({std::string(), line, "raii-temporary",
                      "unbound " + last +
                          " temporary destructs immediately at the end of "
                          "this statement; bind it to a named local"});
    }
  }
}

void ruleCrashUnwindSwallow(const LexedFile& lf, const std::string& path,
                            std::vector<Finding>* out) {
  (void)path;
  const std::vector<Token>& t = lf.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!isIdent(t[i], "catch") || !is(t[i + 1], "(")) continue;
    // Walk the whole catch chain of this try so an earlier
    // `catch (const RankCrashedError&)` clause legitimizes a later broad
    // clause — the crash is already routed before the broad arm runs.
    bool crash_handled_earlier = false;
    std::size_t k = i;
    while (k + 1 < t.size() && isIdent(t[k], "catch") && is(t[k + 1], "(")) {
      const std::size_t popen = k + 1;
      const std::size_t pclose = matchDelim(t, popen);
      bool broad = false;
      bool crash_typed = false;
      for (std::size_t p = popen + 1; p < pclose && p < t.size(); ++p) {
        if (is(t[p], "...") || isIdent(t[p], "exception") ||
            isIdent(t[p], "runtime_error") || isIdent(t[p], "Error")) {
          broad = true;
        }
        if (isIdent(t[p], "RankCrashedError")) crash_typed = true;
      }
      std::size_t bopen = pclose + 1;
      if (bopen >= t.size() || !is(t[bopen], "{")) break;
      const std::size_t bclose = matchDelim(t, bopen);
      if (crash_typed) {
        crash_handled_earlier = true;  // typed arm precedes any broad arm
      } else if (broad && !crash_handled_earlier) {
        // The body must visibly route the exception onward: a rethrow, a
        // current_exception/rethrow_exception capture, or the collective
        // `CapturedError::capture` idiom (which preserves kRankCrashed for
        // agreement).
        bool routed = false;
        for (std::size_t p = bopen + 1; p < bclose && p < t.size(); ++p) {
          if (isIdent(t[p], "throw") || isIdent(t[p], "capture") ||
              isIdent(t[p], "current_exception") ||
              isIdent(t[p], "rethrow_exception")) {
            routed = true;
            break;
          }
        }
        if (!routed) {
          out->push_back(
              {std::string(), t[k].line, "crash-unwind-swallow",
               "broad catch can swallow RankCrashedError without rethrow "
               "or capture; a crashed rank must keep unwinding (rethrow, "
               "capture into CapturedError, or catch RankCrashedError "
               "first)"});
        }
      }
      // Advance to the token after this clause's body; stop unless the
      // next token begins another catch of the same try.
      k = bclose + 1;
      if (k >= t.size() || !isIdent(t[k], "catch")) break;
    }
    // Skip past the chain we just processed (the outer loop would
    // otherwise re-enter at each sibling clause).
    i = k > i ? k - 1 : i;
  }
}

void ruleBannedApi(const LexedFile& lf, const std::string& path,
                   std::vector<Finding>* out) {
  const std::vector<Token>& t = lf.tokens;
  const bool in_sim = pathUnder(path, "src/sim/");
  const bool in_mpi = pathUnder(path, "src/mpi/");
  // ISA-specific code lives in one file, so a port to another architecture
  // touches exactly one place.
  const bool in_isa_kernel = path == "src/common/crc32.cc";
  const auto flag = [&](int line, const std::string& msg) {
    out->push_back({std::string(), line, "banned-api", msg});
  };
  for (const Include& inc : lf.includes) {
    const std::string_view h = inc.header;
    if (!in_isa_kernel && (h.ends_with("intrin.h") || h == "cpuid.h" ||
                           h == "arm_acle.h" || h == "arm_neon.h")) {
      flag(inc.line, "ISA header <" + inc.header +
                         "> outside src/common/crc32.cc — keep "
                         "architecture-specific code in that one file");
    }
  }
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Tok::kIdent) continue;
    const std::string& s = t[i].text;
    // Wall-clock time is banned everywhere: the simulation is virtual-time
    // and a single wall-clock read silently breaks replay determinism.
    if (s == "system_clock" || s == "steady_clock" ||
        s == "high_resolution_clock" || s == "gettimeofday" ||
        s == "clock_gettime" || s == "timespec_get") {
      flag(t[i].line, "wall-clock time source '" + s +
                          "' — use the simulated clock (sim::Engine::now)");
      continue;
    }
    // Raw MPI: everything outside src/mpi goes through the simulated
    // tcio::mpi layer, or faults/crashes/liveness cannot be injected.
    if (!in_mpi && s.size() > 4 && s.rfind("MPI_", 0) == 0) {
      flag(t[i].line,
           "raw MPI call '" + s + "' outside src/mpi — use tcio::mpi");
      continue;
    }
    // Variable-size all-to-alls outside src/mpi go through
    // mpi::sizedAlltoallv / mpi::alltoallvCounted, which derive counts and
    // displacements from one PackedSend and read records by memcpy.
    if (!in_mpi && s == "alltoallv" && i + 1 < t.size() && is(t[i + 1], "(")) {
      flag(t[i].line, "direct alltoallv call outside src/mpi — use "
                      "mpi::sizedAlltoallv or mpi::alltoallvCounted");
      continue;
    }
    // Raw threading/sleep primitives are banned everywhere, src/sim
    // included: every rank is a fiber on the one thread that runs the job,
    // so a real lock, thread or sleep bypasses virtual time and the
    // engine's one-active-rank discipline.
    const bool std_qualified =
        i >= 2 && is(t[i - 1], "::") && isIdent(t[i - 2], "std");
    if (std_qualified &&
        (s == "mutex" || s == "recursive_mutex" || s == "shared_mutex" ||
         s == "timed_mutex" || s == "condition_variable" || s == "thread" ||
         s == "jthread")) {
      flag(t[i].line, "raw std::" + s +
                          " — ranks are fibers on one thread; scheduling "
                          "and blocking belong to the engine");
      continue;
    }
    if (s == "sleep_for" || s == "sleep_until" || s == "usleep" ||
        s == "nanosleep" ||
        (s == "sleep" && i + 1 < t.size() && is(t[i + 1], "("))) {
      flag(t[i].line, "real sleep '" + s +
                          "' — advance simulated time instead "
                          "(sim::Engine::advance)");
      continue;
    }
    // Context switching: src/sim owns the only one (the rank fibers). A
    // switch anywhere else would run a rank outside the engine's schedule.
    if (!in_sim && (s == "swapcontext" || s == "makecontext" ||
                    s == "setcontext" || s == "getcontext")) {
      flag(t[i].line, "raw context switch '" + s +
                          "' outside src/sim — rank fibers belong to the "
                          "engine");
      continue;
    }
    if (!in_isa_kernel && s.rfind("__builtin_cpu_", 0) == 0) {
      flag(t[i].line, "CPU feature probe '" + s +
                          "' outside src/common/crc32.cc — keep "
                          "architecture-specific code in that one file");
    }
  }
}

}  // namespace tcio::lint::detail
