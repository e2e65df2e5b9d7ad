// Cross-layer fault matrix: {transient FS, permanent OST, RMA drop,
// straggler OST} x {node aggregation on/off} x {lazy reads on/off}.
//
// Every faulted run must
//   (a) reach the SAME outcome on every rank (all complete, or all throw the
//       same typed error class — never a deadlock, never divergence),
//   (b) produce a byte-identical file whenever it completes, and
//   (c) be fully deterministic from the fault seed: the same seed gives
//       identical TcioStats (summed over ranks) and an identical makespan.
//
// The base fault seed is TCIO_FAULT_SEED (default 1) so scripts/
// ci_fault_soak.sh can sweep schedules without recompiling.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/env.h"
#include "mpi/agreement.h"
#include "mpi/runtime.h"
#include "tcio/file.h"

namespace tcio::core {
namespace {

enum class Fault { kNone, kTransientFs, kPermanentOst, kRmaDrop, kStraggler };

struct MatrixParam {
  Fault fault;
  bool node_agg;
  bool lazy;
};

std::string paramName(const ::testing::TestParamInfo<MatrixParam>& info) {
  const char* f = "";
  switch (info.param.fault) {
    case Fault::kNone: f = "none"; break;
    case Fault::kTransientFs: f = "transient"; break;
    case Fault::kPermanentOst: f = "permost"; break;
    case Fault::kRmaDrop: f = "rmadrop"; break;
    case Fault::kStraggler: f = "straggler"; break;
  }
  return std::string(f) + (info.param.node_agg ? "_nodeagg" : "") +
         (info.param.lazy ? "_lazy" : "_eager");
}

// gtest_discover_tests folds the printed parameter into the ctest name, so
// print the case name rather than the struct's bytes.
void PrintTo(const MatrixParam& p, std::ostream* os) {
  *os << paramName({p, 0});
}

constexpr int kProcs = 6;
constexpr Bytes kTotal = 12 * 1024;
constexpr Bytes kBlock = 24;  // interleaved op size (kTotal % kBlock == 0)
constexpr Bytes kSegment = 512;

std::byte expected(Offset off, int rank) {
  return static_cast<std::byte>((rank * 131 + off * 7) % 249 + 1);
}

/// The sequential reference model every completed run must match.
std::vector<std::byte> referenceFile() {
  std::vector<std::byte> ref(static_cast<std::size_t>(kTotal));
  for (Offset off = 0; off < kTotal; ++off) {
    const int rank = static_cast<int>((off / kBlock) % kProcs);
    ref[static_cast<std::size_t>(off)] = expected(off, rank);
  }
  return ref;
}

// Flattened TcioStats for exact determinism comparison. Order matters only
// for the named indices below.
constexpr std::size_t kStatFields = 15;
constexpr std::size_t kTransientIdx = 10;
constexpr std::size_t kRetriesIdx = 11;
constexpr std::size_t kChunksRemappedIdx = 13;
constexpr std::size_t kRmaDropsIdx = 14;

std::array<std::int64_t, kStatFields> flatten(const TcioStats& s) {
  return {s.writes,
          s.reads,
          s.level1_flushes,
          s.collective_fetches,
          s.independent_fetches,
          s.bytes_written,
          s.bytes_read,
          s.node_exchanges,
          s.intranode_bytes,
          s.internode_messages_saved,
          s.degraded.fs_transient_faults,
          s.degraded.fs_retries,
          s.degraded.fs_retry_giveups,
          s.degraded.chunks_remapped,
          s.degraded.rma_drops};
}

/// One run's full fingerprint (everything determinism must reproduce).
struct RunResult {
  std::int32_t outcome = 0;  // agreed mpi::CapturedError code; 0 = completed
  SimTime makespan = 0;
  std::uint32_t crc = 0;
  Bytes file_size = 0;
  std::array<std::int64_t, kStatFields> stats_sum{};

  bool operator==(const RunResult&) const = default;
};

/// `one_shot` >= 0 fails that FS write call (FaultConfig::fail_write_call)
/// once and grants one retry; only the one-shot test passes it.
RunResult runMatrix(const MatrixParam& p, std::uint64_t seed,
                    std::int64_t one_shot = -1) {
  const std::vector<std::byte> ref = referenceFile();

  fs::FsConfig fcfg;
  fcfg.num_osts = 3;
  fcfg.stripe_size = kSegment;
  fcfg.default_stripe_count = 3;
  fs::Filesystem fsys(fcfg);
  if (one_shot >= 0) {
    FaultConfig plan;
    plan.fail_write_call = one_shot;
    fsys.installFaultPlan(plan);
  }

  mpi::JobConfig jc;
  jc.num_ranks = kProcs;
  jc.net.ranks_per_node = 3;  // two nodes, so node aggregation crosses a NIC
  if (p.fault == Fault::kRmaDrop) {
    jc.net.faults.enabled = true;
    jc.net.faults.seed = seed;
    // Node aggregation issues far fewer (coalesced) RMA payloads, so it
    // needs a higher per-payload rate for drops to occur at this scale.
    jc.net.faults.rma_drop_rate = p.node_agg ? 0.5 : 0.1;
  }

  TcioConfig cfg;
  cfg.segment_size = kSegment;
  cfg.segments_per_rank = kTotal / (kSegment * kProcs) + 1;
  cfg.use_onesided = true;
  cfg.lazy_reads = p.lazy;
  cfg.node_aggregation = p.node_agg;
  switch (p.fault) {
    case Fault::kNone:
    case Fault::kRmaDrop:  // armed on the network above
      break;
    case Fault::kTransientFs:
      cfg.faults.enabled = true;
      cfg.faults.seed = seed;
      cfg.faults.fs_transient_write_rate = 0.08;
      cfg.faults.fs_transient_read_rate = 0.04;
      cfg.retry.max_attempts = 6;
      break;
    case Fault::kPermanentOst:
      cfg.faults.enabled = true;
      cfg.faults.seed = seed;
      cfg.faults.fail_ost = 1;
      cfg.faults.fail_ost_after_requests = 10;
      break;
    case Fault::kStraggler:
      cfg.faults.enabled = true;
      cfg.faults.seed = seed;
      cfg.faults.straggler_ost = 0;
      cfg.faults.straggler_multiplier = 8.0;
      break;
  }
  if (one_shot >= 0) cfg.retry.max_attempts = 2;

  std::array<std::int32_t, kProcs> outcome{};
  std::array<std::array<std::int64_t, kStatFields>, kProcs> per_rank{};

  const mpi::JobResult jr = mpi::runJob(jc, [&](mpi::Comm& comm) {
    const int r = comm.rank();
    auto accumulate = [&per_rank, r](const TcioStats& s) {
      const auto flat = flatten(s);
      for (std::size_t i = 0; i < kStatFields; ++i) {
        per_rank[static_cast<std::size_t>(r)][i] += flat[i];
      }
    };
    mpi::CapturedError err;
    try {
      {
        File f(comm, fsys, "matrix.dat", fs::kWrite | fs::kCreate, cfg);
        std::vector<std::byte> buf(static_cast<std::size_t>(kBlock));
        for (Offset cur = 0; cur < kTotal; cur += kBlock) {
          if (static_cast<int>((cur / kBlock) % kProcs) != r) continue;
          for (Bytes i = 0; i < kBlock; ++i) {
            buf[static_cast<std::size_t>(i)] = expected(cur + i, r);
          }
          f.writeAt(cur, buf.data(), kBlock);
        }
        f.close();
        accumulate(f.stats());
      }
      {
        File f(comm, fsys, "matrix.dat", fs::kRead, cfg);
        const Bytes per = kTotal / kProcs;
        const Offset my_begin = r * per;
        std::vector<std::byte> got(static_cast<std::size_t>(per));
        f.readAt(my_begin, got.data(), per);
        f.fetch();
        for (Bytes i = 0; i < per; ++i) {
          ASSERT_EQ(got[static_cast<std::size_t>(i)],
                    ref[static_cast<std::size_t>(my_begin + i)])
              << "read-back mismatch at " << my_begin + i;
        }
        f.close();
        accumulate(f.stats());
      }
    } catch (const std::exception& e) {
      err.capture(e);
    }
    outcome[static_cast<std::size_t>(r)] = err.code;
  });

  // (a) all ranks observed the same outcome.
  for (int r = 1; r < kProcs; ++r) {
    EXPECT_EQ(outcome[static_cast<std::size_t>(r)], outcome[0])
        << "rank " << r << " diverged from rank 0";
  }

  RunResult res;
  res.outcome = outcome[0];
  res.makespan = jr.makespan;
  for (const auto& rank_stats : per_rank) {
    for (std::size_t i = 0; i < kStatFields; ++i) {
      res.stats_sum[i] += rank_stats[i];
    }
  }
  if (res.outcome == 0) {
    res.file_size = fsys.peekSize("matrix.dat");
    std::vector<std::byte> contents(static_cast<std::size_t>(res.file_size));
    fsys.peek("matrix.dat", 0, contents);
    res.crc = crc32(contents);
  }
  return res;
}

std::uint32_t referenceCrc() {
  const auto ref = referenceFile();
  return crc32(std::span<const std::byte>(ref.data(), ref.size()));
}

class TcioFaultMatrixTest : public ::testing::TestWithParam<MatrixParam> {};

INSTANTIATE_TEST_SUITE_P(
    Matrix, TcioFaultMatrixTest,
    ::testing::Values(
        MatrixParam{Fault::kTransientFs, false, true},
        MatrixParam{Fault::kTransientFs, false, false},
        MatrixParam{Fault::kTransientFs, true, true},
        MatrixParam{Fault::kPermanentOst, false, true},
        MatrixParam{Fault::kPermanentOst, false, false},
        MatrixParam{Fault::kPermanentOst, true, true},
        MatrixParam{Fault::kRmaDrop, false, true},
        MatrixParam{Fault::kRmaDrop, false, false},
        MatrixParam{Fault::kRmaDrop, true, true},
        MatrixParam{Fault::kStraggler, false, true},
        MatrixParam{Fault::kStraggler, false, false},
        MatrixParam{Fault::kStraggler, true, true}),
    paramName);

TEST_P(TcioFaultMatrixTest, SameOutcomeByteIdenticalAndDeterministic) {
  const MatrixParam p = GetParam();
  const auto seed =
      static_cast<std::uint64_t>(envInt64("TCIO_FAULT_SEED", 1));

  // Healthy baseline with the same exchange configuration.
  const RunResult base =
      runMatrix({Fault::kNone, p.node_agg, p.lazy}, seed);
  ASSERT_EQ(base.outcome, 0);
  ASSERT_EQ(base.crc, referenceCrc());
  ASSERT_EQ(base.file_size, kTotal);

  // (c) same seed, same schedule: the entire fingerprint must reproduce.
  const RunResult a = runMatrix(p, seed);
  const RunResult b = runMatrix(p, seed);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.crc, b.crc);
  EXPECT_EQ(a.file_size, b.file_size);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.stats_sum, b.stats_sum);

  switch (p.fault) {
    case Fault::kNone:
      break;
    case Fault::kTransientFs:
      // Retries absorb transients: completed, byte-identical.
      ASSERT_EQ(a.outcome, 0);
      EXPECT_EQ(a.crc, base.crc);
      EXPECT_EQ(a.file_size, kTotal);
      break;
    case Fault::kPermanentOst:
      // Graceful degradation: the run completes on the surviving OSTs and
      // reports the failover — never silent, never divergent.
      ASSERT_EQ(a.outcome, 0)
          << "permanent OST failure should degrade, not abort";
      EXPECT_EQ(a.crc, base.crc);
      EXPECT_GT(a.stats_sum[kChunksRemappedIdx], 0);
      break;
    case Fault::kRmaDrop:
      // Drops only delay (every payload is retransmitted); data survives.
      ASSERT_EQ(a.outcome, 0);
      EXPECT_EQ(a.crc, base.crc);
      EXPECT_GT(a.stats_sum[kRmaDropsIdx], 0);
      break;
    case Fault::kStraggler:
      ASSERT_EQ(a.outcome, 0);
      EXPECT_EQ(a.crc, base.crc);
      // An 8x slower OST must show up in the virtual makespan.
      EXPECT_GT(a.makespan, base.makespan);
      break;
  }
}

// Acceptance: a single injected transient FS fault (the legacy one-shot
// shim) completes byte-identical in EVERY exchange configuration once a
// retry budget is granted, wherever in the drain it lands.
TEST(TcioFaultMatrixOneShotTest, SingleTransientFaultCompletesByteIdentical) {
  const auto seed =
      static_cast<std::uint64_t>(envInt64("TCIO_FAULT_SEED", 1));
  const struct {
    bool node_agg;
    bool lazy;
  } modes[] = {{false, true}, {false, false}, {true, true}};
  for (const auto& m : modes) {
    for (const std::int64_t after : {0, 3, 17}) {
      const RunResult r =
          runMatrix({Fault::kNone, m.node_agg, m.lazy}, seed, after);
      ASSERT_EQ(r.outcome, 0)
          << "one-shot fault at write call " << after << " not absorbed";
      EXPECT_EQ(r.crc, referenceCrc());
      EXPECT_EQ(r.file_size, kTotal);
      EXPECT_EQ(r.stats_sum[kTransientIdx], 1);
      EXPECT_EQ(r.stats_sum[kRetriesIdx], 1);
    }
  }
}

// A collective open of a missing file (read mode) must throw the SAME typed
// FileNotFound on every rank and leave the communicator usable — rank 0
// opens before the barrier, so an uncaptured throw there would strand the
// other ranks inside the barrier and desynchronize every later collective.
TEST(TcioFaultMatrixOpenTest, MissingFileThrowsFileNotFoundOnEveryRank) {
  fs::FsConfig fcfg;
  fcfg.num_osts = 2;
  fs::Filesystem fsys(fcfg);
  mpi::JobConfig jc;
  jc.num_ranks = 4;
  mpi::runJob(jc, [&](mpi::Comm& comm) {
    std::uint8_t caught = 0;
    try {
      File f(comm, fsys, "missing.dat", fs::kRead, TcioConfig{});
      ADD_FAILURE() << "rank " << comm.rank() << " opened a missing file";
    } catch (const FileNotFound& e) {
      caught = std::string(e.what()).find("missing.dat") != std::string::npos
                   ? 1
                   : 0;
    }
    // The communicator must still be collectively usable after the agreed
    // throw (this allreduce deadlocks if any rank is still in the open).
    comm.allreduce(&caught, 1, mpi::ReduceOp::kMin);
    EXPECT_EQ(caught, 1) << "rank " << comm.rank();
  });
}

}  // namespace
}  // namespace tcio::core
