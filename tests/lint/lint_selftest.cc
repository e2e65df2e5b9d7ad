// Self-test for tcio-lint: every red fixture must produce exactly its
// annotated findings, every green fixture must be silent, the suppression
// grammar must be enforced, and the live src/ tree must sweep clean.
//
// TCIO_LINT_FIXTURE_DIR and TCIO_REPO_ROOT are injected by CMake.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/lint.h"

namespace tcio::lint {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << p;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<fs::path> fixtureFiles(std::string_view suffix) {
  std::vector<fs::path> out;
  for (const auto& entry : fs::directory_iterator(TCIO_LINT_FIXTURE_DIR)) {
    const std::string name = entry.path().filename().string();
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(),
                     suffix.data()) == 0) {
      out.push_back(entry.path());
    }
  }
  return out;
}

// --- Fixture corpus -------------------------------------------------------

TEST(Fixtures, EveryRedFixtureFlagsExactlyItsAnnotatedLines) {
  const std::vector<fs::path> reds = fixtureFiles("_red.cc");
  ASSERT_GE(reds.size(), 6u) << "fixture corpus missing red cases";
  for (const fs::path& p : reds) {
    const std::string content = slurp(p);
    ASSERT_NE(content.find("LINT-EXPECT["), std::string::npos)
        << p << " is a red fixture with no expectations";
    const ExpectResult r =
        checkExpectations(p.filename().string(), content);
    EXPECT_TRUE(r.ok) << p;
    for (const std::string& problem : r.problems) {
      ADD_FAILURE() << p.filename().string() << ": " << problem;
    }
  }
}

TEST(Fixtures, EveryGreenFixtureIsSilent) {
  const std::vector<fs::path> greens = fixtureFiles("_green.cc");
  ASSERT_GE(greens.size(), 6u) << "fixture corpus missing green cases";
  for (const fs::path& p : greens) {
    const std::string content = slurp(p);
    EXPECT_EQ(content.find("LINT-EXPECT["), std::string::npos)
        << p << " is green but carries expectations";
    for (const Finding& f :
         lintText(p.filename().string(), content)) {
      ADD_FAILURE() << p.filename().string() << ": unexpected " << f.str();
    }
  }
}

TEST(Fixtures, EveryRuleHasARedAndAGreenFixture) {
  // Each rule must be pinned from both sides: a case it flags and a
  // near-miss it stays silent on.
  std::string all_reds, all_greens;
  for (const fs::path& p : fixtureFiles("_red.cc")) all_reds += slurp(p);
  for (const fs::path& p : fixtureFiles("_green.cc")) {
    all_greens += slurp(p) + "\n// from: " + p.filename().string() + "\n";
  }
  for (const std::string& rule : ruleNames()) {
    EXPECT_NE(all_reds.find("LINT-EXPECT[" + rule + "]"), std::string::npos)
        << "no red fixture exercises rule " << rule;
  }
  // Green coverage is structural (one _green.cc per rule file name).
  for (const char* stem :
       {"rma_source_lifetime", "collective_divergence", "raii_temporary",
        "journal_batch_pairing", "crash_unwind_swallow", "banned_api"}) {
    EXPECT_NE(all_greens.find(std::string(stem) + "_green.cc"),
              std::string::npos)
        << "no green fixture for " << stem;
  }
}

// --- Suppression grammar ---------------------------------------------------

TEST(Suppression, ReasonedSuppressionSilencesItsLine) {
  const std::string src =
      "void f() {\n"
      "  gettimeofday(&tv, nullptr);  // NOLINT-TCIO(banned-api): host-facing"
      " bench output\n"
      "}\n";
  EXPECT_TRUE(lintText("src/tcio/x.cc", src).empty());
}

TEST(Suppression, SuppressionOnPrecedingLineCoversTheNextLine) {
  const std::string src =
      "void f() {\n"
      "  // NOLINT-TCIO(banned-api): host-facing bench output\n"
      "  gettimeofday(&tv, nullptr);\n"
      "}\n";
  EXPECT_TRUE(lintText("src/tcio/x.cc", src).empty());
}

TEST(Suppression, BareSuppressionWithoutReasonIsItselfAFinding) {
  const std::string src =
      "void f() {\n"
      "  gettimeofday(&tv, nullptr);  // NOLINT-TCIO(banned-api)\n"
      "}\n";
  const std::vector<Finding> fs = lintText("src/tcio/x.cc", src);
  bool meta = false;
  for (const Finding& f : fs) {
    if (f.rule == "lint-suppression") meta = true;
  }
  EXPECT_TRUE(meta) << "reason-less suppression must be reported";
}

TEST(Suppression, UnknownRuleNameIsReported) {
  const std::string src =
      "void f() {\n"
      "  int x = 0;  // NOLINT-TCIO(no-such-rule): whatever\n"
      "}\n";
  const std::vector<Finding> fs = lintText("src/tcio/x.cc", src);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "lint-suppression");
}

TEST(Suppression, WrongRuleDoesNotSilenceAnotherRulesFinding) {
  const std::string src =
      "void f() {\n"
      "  gettimeofday(&tv, nullptr);  // NOLINT-TCIO(raii-temporary): nope\n"
      "}\n";
  bool banned = false;
  for (const Finding& f : lintText("src/tcio/x.cc", src)) {
    if (f.rule == "banned-api") banned = true;
  }
  EXPECT_TRUE(banned);
}

// --- banned-api path carve-outs ---------------------------------------------

TEST(BannedApi, RealThreadingIsBannedEvenInsideSim) {
  const std::string src =
      "void park() { std::mutex m; std::condition_variable cv; }\n";
  EXPECT_EQ(lintText("src/sim/engine.cc", src).size(), 2u);
  EXPECT_EQ(lintText("src/tcio/file.cc", src).size(), 2u);
}

TEST(BannedApi, OnlySimMaySwitchContexts) {
  const std::string src =
      "void hop(ucontext_t* a, ucontext_t* b) { swapcontext(a, b); }\n";
  EXPECT_TRUE(lintText("src/sim/fiber.cc", src).empty());
  EXPECT_FALSE(lintText("src/tcio/file.cc", src).empty());
}

TEST(BannedApi, OnlyTheCrcKernelMayUseIsaIntrinsics) {
  const std::string src =
      "#include <wmmintrin.h>\n"
      "bool fast() { return __builtin_cpu_supports(\"pclmul\"); }\n";
  EXPECT_TRUE(lintText("src/common/crc32.cc", src).empty());
  const std::vector<Finding> fs = lintText("src/tcio/file.cc", src);
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_EQ(fs[0].line, 1);
  EXPECT_EQ(fs[1].line, 2);
  EXPECT_EQ(lintText("src/common/env.cc", "#include <cstring>\n").size(), 0u);
}

TEST(BannedApi, MpiLayerMayNameRawMpiSymbols) {
  const std::string src = "void shim() { MPI_Barrier(world_); }\n";
  EXPECT_TRUE(lintText("src/mpi/comm.cc", src).empty());
  EXPECT_FALSE(lintText("src/delegate/server.cc", src).empty());
}

TEST(BannedApi, OnlyTheMpiLayerMayCallAlltoallv) {
  const std::string src =
      "void x(Comm& c) { c.alltoallv(s, sc, sd, r, rc, rd); }\n";
  EXPECT_TRUE(lintText("src/mpi/comm.cc", src).empty());
  EXPECT_EQ(lintText("src/tcio/file_integrity.cc", src).size(), 1u);
  EXPECT_TRUE(lintText("src/tcio/file_integrity.cc",
                       "void y(Comm& c) { mpi::sizedAlltoallv(c, s); "
                       "mpi::alltoallvCounted(c, s, n); }\n")
                  .empty());
}

TEST(BannedApi, WallClockIsBannedEvenInsideSim) {
  const std::string src =
      "sim::Time now() { return std::chrono::steady_clock::now(); }\n";
  EXPECT_FALSE(lintText("src/sim/engine.cc", src).empty());
}

// --- Live-tree sweep ---------------------------------------------------------

TEST(Sweep, SrcTreeIsCleanUnderAllRules) {
  const fs::path root = TCIO_REPO_ROOT;
  const fs::path src = root / "src";
  ASSERT_TRUE(fs::exists(src)) << "repo root mislocated: " << root;
  int files = 0;
  std::vector<std::string> findings;
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".cc" && ext != ".h" && ext != ".cpp" && ext != ".hpp") {
      continue;
    }
    ++files;
    const std::string display =
        fs::relative(entry.path(), root).generic_string();
    for (const Finding& f : lintFile(entry.path().string(), display)) {
      findings.push_back(f.str());
    }
  }
  EXPECT_GT(files, 50) << "sweep saw suspiciously few files";
  for (const std::string& f : findings) {
    ADD_FAILURE() << "unsuppressed finding in live tree: " << f;
  }
}

}  // namespace
}  // namespace tcio::lint
