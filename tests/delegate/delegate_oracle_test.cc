// Determinism oracle for the I/O delegate request-queue server.
//
// Pins exact figures of open/write/close churn jobs (workload/churn.h) over a
// grid of process counts, delegate counts and queue capacities, plus
// crash-tolerant cases whose clients, shutdown and liveness rounds wait
// through polling receives: the job makespan (bit-exact), network messages
// and bytes, the merged TcioDelegateStats admission and batching counters,
// file-system write and read requests and the CRC of every round's file. A
// change to the server loop, the receive probes or the engine's dispatch
// must leave every pinned value untouched. The delegate count and both
// integrity switches are set explicitly, so the TCIO_DELEGATES and
// TCIO_INTEGRITY environment legs cannot move a figure. The failure message
// prints the observed figures in the table's own initializer syntax.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/fault.h"
#include "fs/filesystem.h"
#include "mpi/runtime.h"
#include "workload/churn.h"

namespace tcio::delegate {
namespace {

/// Everything the oracle pins for one job.
struct Figures {
  SimTime makespan = 0;
  std::int64_t messages = 0;
  Bytes net_bytes = 0;
  std::int64_t submissions = 0;
  std::int64_t rejections = 0;
  std::int64_t busy_retries = 0;
  std::int64_t batches = 0;
  std::int64_t high_watermark = 0;
  std::int64_t fs_writes = 0;
  std::int64_t fs_reads = 0;
  std::uint32_t files_crc = 0;  // CRC over every round's file, in order
};

/// Prints `f` as the initializer the expectation table uses.
std::string describe(const Figures& f) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{%a, %lld, %lld, %lld, %lld, %lld, %lld, %lld, %lld, %lld, "
                "0x%08xu}",
                f.makespan, static_cast<long long>(f.messages),
                static_cast<long long>(f.net_bytes),
                static_cast<long long>(f.submissions),
                static_cast<long long>(f.rejections),
                static_cast<long long>(f.busy_retries),
                static_cast<long long>(f.batches),
                static_cast<long long>(f.high_watermark),
                static_cast<long long>(f.fs_writes),
                static_cast<long long>(f.fs_reads), f.files_crc);
  return buf;
}

/// Crash tolerance for a job: off, on with nobody dying (every reply, the
/// shutdown and each liveness round wait through polling receives), or on
/// with delegate 1 dying mid-journal on its third put.
enum class Crash { kOff, kPolling, kDelegateDies };

struct Case {
  int P;
  int delegates;
  std::int64_t capacity;
  Crash crash;
  Figures want;
};

Figures runOracleJob(const Case& c) {
  fs::FsConfig fcfg;
  fcfg.num_osts = 4;
  fcfg.stripe_size = 1024;
  fcfg.integrity = -1;  // stored-block digests are not under test
  fs::Filesystem fsys(fcfg);
  mpi::JobConfig jc;
  jc.num_ranks = c.P;
  jc.seed = 29;

  workload::ChurnConfig cfg;
  cfg.rounds = 3;
  cfg.block_bytes = 256;
  cfg.blocks_per_round = 2;
  cfg.tcio.segment_size = 512;
  cfg.tcio.segments_per_rank = 8;
  cfg.tcio.delegate_ranks = c.delegates;
  cfg.tcio.delegate.queue_capacity = c.capacity;
  cfg.tcio.integrity.enabled = -1;
  if (c.crash != Crash::kOff) {
    cfg.tcio.crash.enabled = true;
    cfg.tcio.crash.journal = true;
    cfg.tcio.crash.liveness_window = 0.25;
    cfg.tcio.faults.seed = 17;
  }
  if (c.crash == Crash::kDelegateDies) {
    cfg.tcio.faults.crashes.push_back(
        {/*rank=*/1, CrashPoint::kMidJournal, /*after=*/2});
  }

  Figures out;
  workload::ChurnResult churn;
  const mpi::JobResult res = mpi::runJob(jc, [&](mpi::Comm& comm) {
    const workload::ChurnResult r = workload::runChurn(comm, fsys, cfg);
    if (comm.rank() == c.P - 1) churn = r;
  });
  out.makespan = res.makespan;
  out.messages = res.network_messages;
  out.net_bytes = res.network_bytes;
  out.submissions = churn.delegate.submissions;
  out.rejections = churn.delegate.rejections;
  out.busy_retries = churn.delegate.busy_retries;
  out.batches = churn.delegate.batches;
  out.high_watermark = churn.delegate.queue_high_watermark;
  out.fs_writes = fsys.stats().write_requests;
  out.fs_reads = fsys.stats().read_requests;
  for (int r = 0; r < cfg.rounds; ++r) {
    const std::string name = workload::churnFileName(cfg, r);
    std::vector<std::byte> contents(
        static_cast<std::size_t>(fsys.peekSize(name)));
    fsys.peek(name, 0, contents);
    out.files_crc = crc32(contents, out.files_crc);
  }
  return out;
}

/// Exact comparison: %a prints every bit of the makespan, so equal
/// descriptions mean bit-identical figures.
TEST(DelegateChurnOracleTest, ChurnGrid) {
  const std::vector<Case> cases = {
      {8, 1, 4, Crash::kOff,
       {0x1.ee6b13bfe16d7p-7,
        769, 28607, 42, 10, 10, 21, 4, 21, 0, 0x0654d2d9u}},
      {8, 1, 16, Crash::kOff,
       {0x1.ec56307da1cd3p-7, 749, 27487, 42, 0, 0, 21, 7, 21, 0, 0x0654d2d9u}},
      {8, 2, 4, Crash::kOff,
       {0x1.5e897f7d4e7bp-6, 773, 28488, 36, 0, 0, 18, 3, 18, 0, 0xe43226e0u}},
      {8, 2, 16, Crash::kOff,
       {0x1.5e897f7d4e7bp-6, 773, 28488, 36, 0, 0, 18, 3, 18, 0, 0xe43226e0u}},
      {8, 4, 4, Crash::kOff,
       {0x1.7502983376edcp-6, 709, 26044, 24, 0, 0, 12, 1, 12, 0, 0xc7e63e1cu}},
      {8, 4, 16, Crash::kOff,
       {0x1.7502983376edcp-6, 709, 26044, 24, 0, 0, 12, 1, 12, 0, 0xc7e63e1cu}},
      {24, 1, 4, Crash::kOff,
       {0x1.511363c585855p-5,
        3337, 112575, 138, 159, 159, 69, 4, 69, 0, 0xb09eae2au}},
      {24, 1, 16, Crash::kOff,
       {0x1.4211ad14af45ep-5,
        3103, 99471, 138, 42, 42, 69, 16, 69, 0, 0xb09eae2au}},
      {24, 2, 4, Crash::kOff,
       {0x1.dfefdc31b1b3p-5,
        3467, 115352, 132, 69, 69, 66, 4, 66, 0, 0xe19aab90u}},
      {24, 2, 16, Crash::kOff,
       {0x1.dd42c6931554ap-5,
        3329, 107624, 132, 0, 0, 66, 11, 66, 0, 0xe19aab90u}},
      {24, 4, 4, Crash::kOff,
       {0x1.e9a93a3688805p-5,
        3865, 130236, 120, 12, 12, 60, 4, 60, 0, 0xd18282d2u}},
      {24, 4, 16, Crash::kOff,
       {0x1.e84cc34d2de6p-5,
        3841, 128892, 120, 0, 0, 60, 5, 60, 0, 0xd18282d2u}},
      {8, 2, 4, Crash::kPolling,
       {0x1.1657f77f6f93cp-4, 863, 29208, 36, 0, 0, 18, 3, 18, 0, 0xe43226e0u}},
      {24, 4, 16, Crash::kPolling,
       {0x1.e30bf175837e7p-4,
        4183, 131628, 120, 0, 0, 60, 5, 60, 0, 0xd18282d2u}},
      {8, 2, 16, Crash::kDelegateDies,
       {0x1.3ecdc93e07141p-2, 806, 25908, 34, 0, 0, 18, 6, 18, 1, 0xe43226e0u}},
      {24, 4, 4, Crash::kDelegateDies,
       {0x1.7dc567d3e29adp-2,
        4121, 125492, 118, 47, 48, 60, 4, 60, 1, 0xd18282d2u}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("P=" + std::to_string(c.P) + " delegates=" +
                 std::to_string(c.delegates) + " capacity=" +
                 std::to_string(c.capacity) + " crash=" +
                 std::to_string(static_cast<int>(c.crash)));
    EXPECT_EQ(describe(runOracleJob(c)), describe(c.want));
  }
}

}  // namespace
}  // namespace tcio::delegate
