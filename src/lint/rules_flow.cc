// Flow rules that need a scope/call model: rma-source-lifetime,
// collective-divergence, journal-batch-pairing.
#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <string_view>

#include "lint/lint.h"
#include "lint/token_cursor.h"

namespace tcio::lint::detail {

namespace {

bool isKeyword(const std::string& s) {
  static const std::set<std::string_view> kKw = {
      "return", "throw",  "delete", "new",      "if",     "while",
      "for",    "switch", "case",   "break",    "continue", "goto",
      "else",   "do",     "using",  "typedef",  "sizeof", "static_assert",
      "public", "private", "protected", "template", "typename", "operator",
      "co_return", "co_await", "co_yield", "default", "try", "catch",
  };
  return kKw.count(s) > 0;
}

/// Skips a balanced `<...>` span starting at `<`; returns the index one
/// past `>`, or `i` unchanged when it does not close before `;`/`{`.
std::size_t skipAngles(const std::vector<Token>& t, std::size_t i) {
  int depth = 0;
  for (std::size_t k = i; k < t.size(); ++k) {
    if (is(t[k], "<")) ++depth;
    if (is(t[k], ">") && --depth == 0) return k + 1;
    if (is(t[k], ">>") && (depth -= 2) <= 0) return k + 1;
    if (is(t[k], ";") || is(t[k], "{")) break;
  }
  return i;
}

/// Tries to parse a local-variable declaration at statement-start `i`:
/// `[const|static] Type[::Type]*[<...>][*&]* NAME (;|=|(|{)`. On success
/// sets *name/*name_idx (and *is_ref for reference bindings) and returns
/// true.
bool parseDecl(const std::vector<Token>& t, std::size_t i, std::string* name,
               std::size_t* name_idx, bool* is_ref) {
  *is_ref = false;
  std::size_t j = i;
  while (j < t.size() && t[j].kind == Tok::kIdent &&
         (t[j].text == "const" || t[j].text == "static" ||
          t[j].text == "constexpr")) {
    ++j;
  }
  if (j >= t.size() || t[j].kind != Tok::kIdent || isKeyword(t[j].text)) {
    return false;
  }
  ++j;  // first type token
  while (j + 1 < t.size() && is(t[j], "::") && t[j + 1].kind == Tok::kIdent) {
    j += 2;
  }
  if (j < t.size() && is(t[j], "<")) j = skipAngles(t, j);
  while (j < t.size() &&
         (is(t[j], "*") || is(t[j], "&") || is(t[j], "&&") ||
          isIdent(t[j], "const"))) {
    if (is(t[j], "&") || is(t[j], "&&")) *is_ref = true;
    ++j;
  }
  if (j + 1 >= t.size() || t[j].kind != Tok::kIdent || isKeyword(t[j].text)) {
    return false;
  }
  const std::string& delim = t[j + 1].text;
  if (delim != ";" && delim != "=" && delim != "(" && delim != "{" &&
      delim != "[") {
    return false;
  }
  *name = t[j].text;
  *name_idx = j;
  return true;
}

// ---------------------------------------------------------------------------
// rma-source-lifetime
// ---------------------------------------------------------------------------

/// Sinks whose source buffer must stay alive until the epoch closes: the
/// transfer is asynchronous, so the call returning proves nothing.
bool isAsyncSink(const std::string& callee) {
  return callee == "put" || callee == "putIndexed" || callee == "isend";
}

/// Tokens that close the epoch the sink queued into: passive-target unlock
/// or request completion.
bool isEpochClose(const std::string& s) {
  return s == "unlock" || s == "waitAll" || s == "wait";
}

/// Calls that copy an element into a container (the `blocks.push_back({...,
/// scratch.data(), ...})` idiom): the container inherits the source's
/// lifetime obligation.
bool isContainerInsert(const std::string& callee) {
  return callee == "push_back" || callee == "emplace_back" ||
         callee == "insert" || callee == "assign" || callee == "push";
}

/// Calls that visibly end a receiver's interest in what was handed to it
/// (the teardown-shape release: `agg.reset()` before the comm dies).
bool isReceiverRelease(const std::string& callee) {
  return callee == "reset" || callee == "clear" || callee == "close" ||
         callee == "detach" || callee == "release";
}

/// Method names that suggest the receiver *retains* the pointer beyond the
/// call (the PR 8 teardown shape needs retention; synchronous verbs like
/// send/writeAt/allreduce consume their arguments before returning and are
/// not lifetime hazards).
bool isRetainingCallee(const std::string& callee) {
  static constexpr std::array<std::string_view, 10> kPrefixes = {
      "set",    "attach", "bind",  "adopt",   "install",
      "observe", "register", "connect", "retain", "track",
  };
  for (std::string_view p : kPrefixes) {
    if (callee.rfind(p, 0) == 0) return true;
  }
  return false;
}

struct Local {
  std::string name;
  int depth = 0;        // scope depth at declaration (function body = 1)
  int line = 0;
};

/// A pending lifetime obligation: the address of `local` escaped at
/// `token_idx` and something must happen before the local's scope closes.
struct Obligation {
  std::string local;
  int local_depth = 0;
  std::size_t token_idx = 0;  // index of the escaping call's `(`
  int line = 0;
  // Either an epoch close (async sink) or a release on `receiver`
  // (longer-lived receiver).
  bool wants_epoch_close = false;
  std::string receiver;
};

void scanRmaInFunction(const std::vector<Token>& t, const FnBody& fn,
                       std::vector<Finding>* out) {
  // Scope stack of locals; the function body `{` pushes the first entry.
  std::vector<std::vector<Local>> scopes;
  std::vector<Obligation> pending;
  // Container locals -> source locals whose address they hold.
  std::map<std::string, std::set<std::string>> taint;

  const auto findLocal = [&](const std::string& name) -> const Local* {
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
      for (const Local& l : *it) {
        if (l.name == name) return &l;
      }
    }
    return nullptr;
  };

  // Escaped-source extraction inside one call's argument span: `&x` (x a
  // tracked local, address-of position) or `x.data()`.
  const auto escapesIn = [&](std::size_t open, std::size_t close) {
    std::vector<const Local*> found;
    for (std::size_t p = open + 1; p < close; ++p) {
      if (is(t[p], "&") && p + 1 < close && t[p + 1].kind == Tok::kIdent &&
          (is(t[p - 1], "(") || is(t[p - 1], ",") || is(t[p - 1], "{"))) {
        if (const Local* l = findLocal(t[p + 1].text)) found.push_back(l);
      }
      if (t[p].kind == Tok::kIdent && p + 3 < close && is(t[p + 1], ".") &&
          isIdent(t[p + 2], "data") && is(t[p + 3], "(")) {
        if (const Local* l = findLocal(t[p].text)) found.push_back(l);
      }
    }
    return found;
  };

  const auto resolveScopeClose = [&](int dying_depth, std::size_t at) {
    // Obligations on locals of the dying scope are now due.
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->local_depth != dying_depth) {
        ++it;
        continue;
      }
      bool satisfied = false;
      for (std::size_t p = it->token_idx; p < at; ++p) {
        if (t[p].kind != Tok::kIdent) continue;
        if (it->wants_epoch_close) {
          if (isEpochClose(t[p].text) && p + 1 < at && is(t[p + 1], "(")) {
            satisfied = true;
            break;
          }
        } else if (isReceiverRelease(t[p].text) && p >= 2 &&
                   (is(t[p - 1], ".") || is(t[p - 1], "->")) &&
                   t[p - 2].text == it->receiver) {
          satisfied = true;
          break;
        }
      }
      if (!satisfied) {
        if (it->wants_epoch_close) {
          out->push_back(
              {std::string(), it->line, "rma-source-lifetime",
               "'" + it->local +
                   "' is scope-local but feeds an asynchronous transfer; no "
                   "epoch close (unlock/waitAll) before its scope ends "
                   "— the transfer may read freed memory"});
        } else {
          out->push_back(
              {std::string(), it->line, "rma-source-lifetime",
               "address of block-local '" + it->local +
                   "' escapes into longer-lived '" + it->receiver +
                   "', which outlives it — release or reset '" +
                   it->receiver + "' before the scope ends"});
        }
      }
      it = pending.erase(it);
    }
  };

  int depth = 0;  // 0 until the body `{` pushes to 1
  for (std::size_t i = fn.open; i <= fn.close && i < t.size(); ++i) {
    if (is(t[i], "{")) {
      ++depth;
      scopes.emplace_back();
      continue;
    }
    if (is(t[i], "}")) {
      if (scopes.empty()) break;  // unbalanced input; degrade quietly
      resolveScopeClose(depth, i);
      // Drop taint entries whose container or sources die with the scope.
      for (const Local& l : scopes.back()) {
        taint.erase(l.name);
        for (auto& [c, srcs] : taint) srcs.erase(l.name);
      }
      scopes.pop_back();
      --depth;
      continue;
    }
    // Declarations at statement starts.
    const bool stmt_start = i == fn.open + 1 || is(t[i - 1], ";") ||
                            is(t[i - 1], "{") || is(t[i - 1], "}");
    if (stmt_start && t[i].kind == Tok::kIdent && !scopes.empty()) {
      std::string name;
      std::size_t name_idx = 0;
      bool is_ref = false;
      if (parseDecl(t, i, &name, &name_idx, &is_ref) && !is_ref) {
        // Reference bindings are not tracked: the referenced storage does
        // not die with the reference's scope.
        scopes.back().push_back({name, depth, t[name_idx].line});
      }
    }
    // Call expressions: IDENT '(' with optional receiver IDENT '.'/'->'.
    if (t[i].kind == Tok::kIdent && i + 1 <= fn.close && is(t[i + 1], "(") &&
        !isKeyword(t[i].text)) {
      const std::string& callee = t[i].text;
      std::string receiver;
      if (i >= 2 && (is(t[i - 1], ".") || is(t[i - 1], "->")) &&
          t[i - 2].kind == Tok::kIdent) {
        receiver = t[i - 2].text;
      }
      const std::size_t open = i + 1;
      const std::size_t close = std::min(matchDelim(t, open), fn.close);
      const std::vector<const Local*> escaped = escapesIn(open, close);

      if (isAsyncSink(callee) && !receiver.empty()) {
        // Receiver required: the hazardous sinks are method calls
        // (window->put, comm.isend); a bare `put(...)` is a local helper.
        for (const Local* l : escaped) {
          pending.push_back({l->name, l->depth, close, t[i].line,
                             /*wants_epoch_close=*/true, std::string()});
        }
        // Tainted containers passed whole (`putIndexed(owner, blocks)`).
        for (std::size_t p = open + 1; p < close; ++p) {
          if (t[p].kind != Tok::kIdent) continue;
          const auto it = taint.find(t[p].text);
          if (it == taint.end()) continue;
          for (const std::string& src : it->second) {
            if (const Local* l = findLocal(src)) {
              pending.push_back({l->name, l->depth, close, t[i].line,
                                 /*wants_epoch_close=*/true, std::string()});
            }
          }
        }
      } else if (isContainerInsert(callee) && !receiver.empty() &&
                 findLocal(receiver) != nullptr) {
        for (const Local* l : escaped) taint[receiver].insert(l->name);
      } else if (!receiver.empty() && isRetainingCallee(callee)) {
        // The teardown shape: a strictly longer-lived local *retains* the
        // address of a block-local (the PR 8 `~File` member-order bug,
        // translated to scopes: declaration order IS destruction order).
        const Local* recv = findLocal(receiver);
        if (recv != nullptr) {
          for (const Local* l : escaped) {
            if (recv->depth < l->depth) {
              pending.push_back({l->name, l->depth, close, t[i].line,
                                 /*wants_epoch_close=*/false, receiver});
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// collective-divergence
// ---------------------------------------------------------------------------

/// Collective operations every live rank must reach in the same order.
bool isCollective(const std::string& s) {
  static const std::set<std::string_view> kColl = {
      "barrier",        "allreduce",       "bcast",
      "allgather",      "allgatherv",      "alltoall",
      "alltoallv",      "agreeOnError",    "agreeWithLiveness",
      "exchangeDigests", "shrink",         "sizedAlltoallv",
      "alltoallvCounted",
  };
  return kColl.count(s) > 0;
}

/// Does this condition span compare *rank identity*? Matches the project's
/// naming: `rank()`, `myRank()`, rank-identity members, and leader tests.
bool isRankConditional(const std::vector<Token>& t, std::size_t open,
                       std::size_t close) {
  for (std::size_t p = open + 1; p < close; ++p) {
    if (t[p].kind != Tok::kIdent) continue;
    const std::string& s = t[p].text;
    const bool call = p + 1 < close && is(t[p + 1], "(");
    if (call && (s == "rank" || s == "myRank" || s == "isLeader" ||
                 s == "origRank")) {
      return true;
    }
    if (s == "rank_" || s == "orig_rank_" || s == "my_rank" || s == "me_" ||
        s == "world_rank" || s == "is_leader") {
      return true;
    }
  }
  return false;
}

/// Collects collective callee names (with counts) in [begin, end).
std::map<std::string, int> collectivesIn(const std::vector<Token>& t,
                                         std::size_t begin, std::size_t end,
                                         std::map<std::string, std::size_t>*
                                             first_at) {
  std::map<std::string, int> out;
  for (std::size_t p = begin; p < end && p < t.size(); ++p) {
    if (t[p].kind == Tok::kIdent && p + 1 < end && is(t[p + 1], "(") &&
        isCollective(t[p].text)) {
      if (out[t[p].text]++ == 0) (*first_at)[t[p].text] = p;
    }
  }
  return out;
}

/// Span of the statement starting at `i`: a balanced brace block, or a
/// single statement up to its `;` (nested parens/braces respected). For
/// `if` the span covers the full if/else cascade.
std::size_t statementEnd(const std::vector<Token>& t, std::size_t i) {
  if (i >= t.size()) return i;
  if (is(t[i], "{")) return matchDelim(t, i) + 1;
  if (isIdent(t[i], "if")) {
    std::size_t j = i + 1;
    if (j < t.size() && is(t[j], "(")) j = matchDelim(t, j) + 1;
    j = statementEnd(t, j);
    if (j < t.size() && isIdent(t[j], "else")) j = statementEnd(t, j + 1);
    return j;
  }
  if (isIdent(t[i], "for") || isIdent(t[i], "while") ||
      isIdent(t[i], "switch")) {
    std::size_t j = i + 1;
    if (j < t.size() && is(t[j], "(")) j = matchDelim(t, j) + 1;
    return statementEnd(t, j);
  }
  if (isIdent(t[i], "do")) {
    std::size_t j = statementEnd(t, i + 1);        // body
    while (j < t.size() && !is(t[j], ";")) ++j;    // while(...)
    return j + 1;
  }
  int pd = 0, bd = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    if (is(t[j], "(") || is(t[j], "[")) ++pd;
    if (is(t[j], ")") || is(t[j], "]")) --pd;
    if (is(t[j], "{")) ++bd;
    if (is(t[j], "}")) {
      if (bd == 0) return j;  // ran into the enclosing scope's close
      --bd;
    }
    if (is(t[j], ";") && pd == 0 && bd == 0) return j + 1;
  }
  return t.size();
}

}  // namespace

void ruleRmaSourceLifetime(const LexedFile& lf, const std::string& path,
                           std::vector<Finding>* out) {
  (void)path;
  for (const FnBody& fn : findFunctionBodies(lf.tokens)) {
    if (fn.lambda) continue;  // scanned as scopes of their enclosing body
    scanRmaInFunction(lf.tokens, fn, out);
  }
}

void ruleCollectiveDivergence(const LexedFile& lf, const std::string& path,
                              std::vector<Finding>* out) {
  (void)path;
  const std::vector<Token>& t = lf.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!isIdent(t[i], "if") || !is(t[i + 1], "(")) continue;
    // `else if` is handled as part of its parent cascade.
    if (i > 0 && isIdent(t[i - 1], "else")) continue;
    const std::size_t copen = i + 1;
    const std::size_t cclose = matchDelim(t, copen);
    if (!isRankConditional(t, copen, cclose)) continue;
    const std::size_t then_begin = cclose + 1;
    const std::size_t then_end = statementEnd(t, then_begin);
    std::size_t else_begin = then_end;
    std::size_t else_end = then_end;
    if (then_end < t.size() && isIdent(t[then_end], "else")) {
      else_begin = then_end + 1;
      else_end = statementEnd(t, else_begin);
    }
    std::map<std::string, std::size_t> then_at, else_at;
    const std::map<std::string, int> then_c =
        collectivesIn(t, then_begin, then_end, &then_at);
    const std::map<std::string, int> else_c =
        collectivesIn(t, else_begin, else_end, &else_at);
    const auto report = [&](const std::string& name, std::size_t at) {
      out->push_back(
          {std::string(), t[at].line, "collective-divergence",
           "collective '" + name +
               "' is called on a rank-dependent path without a matching "
               "call on the other path — non-participating ranks hang or "
               "desynchronize the schedule"});
    };
    for (const auto& [name, count] : then_c) {
      const auto it = else_c.find(name);
      if (it == else_c.end() || it->second < count) {
        report(name, then_at[name]);
      }
    }
    for (const auto& [name, count] : else_c) {
      const auto it = then_c.find(name);
      if (it == then_c.end() || it->second < count) {
        report(name, else_at[name]);
      }
    }
  }
}

void ruleJournalBatchPairing(const LexedFile& lf, const std::string& path,
                             std::vector<Finding>* out) {
  (void)path;
  const std::vector<Token>& t = lf.tokens;
  const std::vector<FnBody> fns = findFunctionBodies(t);
  for (const FnBody& fn : fns) {
    // Lambda bodies inside this function are separate exit domains: a
    // `return` inside one does not leave *this* function.
    std::vector<FnBody> nested;
    for (const FnBody& g : fns) {
      if (g.open > fn.open && g.close < fn.close) nested.push_back(g);
    }
    const auto inNested = [&](std::size_t p) {
      return std::any_of(nested.begin(), nested.end(), [&](const FnBody& g) {
        return p > g.open && p < g.close;
      });
    };
    std::vector<std::pair<std::size_t, int>> open_batches;  // idx, line
    for (std::size_t p = fn.open + 1; p < fn.close && p < t.size(); ++p) {
      if (inNested(p) || t[p].kind != Tok::kIdent) continue;
      if (t[p].text == "batchBegin") {
        open_batches.emplace_back(p, t[p].line);
      } else if (t[p].text == "batchEnd") {
        if (!open_batches.empty()) open_batches.pop_back();
      } else if ((t[p].text == "return" || t[p].text == "throw") &&
                 !open_batches.empty()) {
        out->push_back(
            {std::string(), t[p].line, "journal-batch-pairing",
             std::string(t[p].text == "return" ? "return" : "throw") +
                 " leaves the function with a journal batch still open "
                 "(batchBegin at line " +
                 std::to_string(open_batches.back().second) +
                 ") — buffered frames would never reach the device"});
      }
    }
    for (const auto& [idx, line] : open_batches) {
      (void)idx;
      out->push_back({std::string(), line, "journal-batch-pairing",
                      "batchBegin without a batchEnd on this path — "
                      "buffered journal frames are lost at scope exit"});
    }
  }
}

}  // namespace tcio::lint::detail
