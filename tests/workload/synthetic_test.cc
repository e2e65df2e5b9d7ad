#include "workload/synthetic.h"

#include <gtest/gtest.h>

#include "mpi/runtime.h"

namespace tcio::workload {

// Each case's ctest name ends in what this prints. Argument-dependent lookup
// finds it only in Method's own namespace, not in the anonymous one.
static void PrintTo(Method m, std::ostream* os) {
  switch (m) {
    case Method::kOcio: *os << "ocio"; return;
    case Method::kTcio: *os << "tcio"; return;
    case Method::kMpiio: *os << "mpiio"; return;
  }
}

namespace {

fs::FsConfig fsCfg() {
  fs::FsConfig c;
  c.num_osts = 4;
  c.stripe_size = 4096;
  return c;
}

mpi::JobConfig job(int p) {
  mpi::JobConfig c;
  c.num_ranks = p;
  return c;
}

BenchmarkConfig baseCfg(Method m, std::int64_t len = 64) {
  BenchmarkConfig c;
  c.method = m;
  c.len_array = len;
  c.tcio.segment_size = 4096;
  c.tcio.segments_per_rank = 4;
  return c;
}

class MethodTest : public ::testing::TestWithParam<Method> {};
INSTANTIATE_TEST_SUITE_P(Methods, MethodTest,
                         ::testing::Values(Method::kOcio, Method::kTcio,
                                           Method::kMpiio));

TEST_P(MethodTest, FileContentsMatchExpectedBytes) {
  const BenchmarkConfig cfg = baseCfg(GetParam());
  fs::Filesystem fsys(fsCfg());
  const int P = 4;
  mpi::runJob(job(P), [&](mpi::Comm& comm) {
    const PhaseResult r = runWritePhase(comm, fsys, cfg);
    EXPECT_GT(r.seconds, 0);
    EXPECT_EQ(r.file_size, totalFileSize(cfg, P));
  });
  const Bytes size = fsys.peekSize(cfg.file_name);
  ASSERT_EQ(size, totalFileSize(cfg, P));
  std::vector<std::byte> contents(static_cast<std::size_t>(size));
  fsys.peek(cfg.file_name, 0, contents);
  for (Offset off = 0; off < size; ++off) {
    ASSERT_EQ(contents[static_cast<std::size_t>(off)],
              expectedByte(cfg, P, off))
        << "offset " << off;
  }
}

TEST_P(MethodTest, ReadPhaseVerifies) {
  const BenchmarkConfig cfg = baseCfg(GetParam());
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(4), [&](mpi::Comm& comm) {
    runWritePhase(comm, fsys, cfg);
    const PhaseResult r = runReadPhase(comm, fsys, cfg);  // verifies inside
    EXPECT_GT(r.throughput_mbps, 0);
  });
}

TEST_P(MethodTest, SizeAccessGreaterThanOne) {
  BenchmarkConfig cfg = baseCfg(GetParam());
  cfg.size_access = 8;
  fs::Filesystem fsys(fsCfg());
  const int P = 2;
  mpi::runJob(job(P), [&](mpi::Comm& comm) {
    runWritePhase(comm, fsys, cfg);
    runReadPhase(comm, fsys, cfg);
  });
  std::vector<std::byte> contents(
      static_cast<std::size_t>(totalFileSize(cfg, P)));
  fsys.peek(cfg.file_name, 0, contents);
  for (Offset off = 0; off < static_cast<Offset>(contents.size()); ++off) {
    ASSERT_EQ(contents[static_cast<std::size_t>(off)],
              expectedByte(cfg, P, off));
  }
}

TEST(SyntheticTest, FiveTypeArrays) {
  // TYPEarray = "c,s,i,f,d".
  BenchmarkConfig cfg = baseCfg(Method::kTcio);
  cfg.array_elem_sizes = {1, 2, 4, 4, 8};
  fs::Filesystem fsys(fsCfg());
  const int P = 3;
  mpi::runJob(job(P), [&](mpi::Comm& comm) {
    runWritePhase(comm, fsys, cfg);
    runReadPhase(comm, fsys, cfg);
  });
  EXPECT_EQ(fsys.peekSize(cfg.file_name), totalFileSize(cfg, P));
}

TEST(SyntheticTest, MismatchedAccessSizeRejected) {
  BenchmarkConfig cfg = baseCfg(Method::kTcio, 10);
  cfg.size_access = 3;  // 10 % 3 != 0
  fs::Filesystem fsys(fsCfg());
  EXPECT_THROW(mpi::runJob(job(1),
                           [&](mpi::Comm& comm) {
                             runWritePhase(comm, fsys, cfg);
                           }),
               Error);
}

TEST(SyntheticTest, OcioRunsOutOfMemoryWhereTcioDoesNot) {
  // The Fig. 6/7 failure mode: arrays + combine buffer + aggregator buffer
  // exceed the budget for OCIO; TCIO (arrays + window + one segment) fits.
  const std::int64_t len = 1024;  // arrays: 12 KiB/rank; file 24 KiB (P=2)
  auto run = [&](Method m) {
    BenchmarkConfig cfg = baseCfg(m, len);
    cfg.tcio.segment_size = 1024;
    cfg.tcio.segments_per_rank = 12;
    mpi::JobConfig jc = job(2);
    jc.memory_budget_per_rank = 30 * 1024;  // 30 KiB
    fs::Filesystem fsys(fsCfg());
    mpi::runJob(jc, [&](mpi::Comm& comm) { runWritePhase(comm, fsys, cfg); });
  };
  EXPECT_THROW(run(Method::kOcio), OutOfMemoryBudget);
  EXPECT_NO_THROW(run(Method::kTcio));
}

TEST(SyntheticTest, EffortReportFavorsTcio) {
  const EffortReport r = measureProgrammingEffort();
  EXPECT_GT(r.ocio_lines, r.tcio_lines);
  EXPECT_GT(r.ocio_api_calls, r.tcio_api_calls);
  EXPECT_GT(r.tcio_lines, 0);
}

TEST(SyntheticTest, DeterministicAcrossRuns) {
  const BenchmarkConfig cfg = baseCfg(Method::kTcio);
  auto once = [&] {
    fs::Filesystem fsys(fsCfg());
    SimTime t = 0;
    mpi::runJob(job(4), [&](mpi::Comm& comm) {
      const PhaseResult r = runWritePhase(comm, fsys, cfg);
      if (comm.rank() == 0) t = r.seconds;
    });
    return t;
  };
  EXPECT_DOUBLE_EQ(once(), once());
}

}  // namespace
}  // namespace tcio::workload
