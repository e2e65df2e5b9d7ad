#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "mpi/mpi.h"

namespace tcio::mpi {
namespace {

JobConfig cfg(int p) {
  JobConfig c;
  c.num_ranks = p;
  return c;
}

class CollectivesTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Sizes, CollectivesTest,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16, 33));

TEST_P(CollectivesTest, BarrierAlignsNoRankEscapesEarly) {
  const int P = GetParam();
  runJob(cfg(P), [&](Comm& comm) {
    // Rank r arrives at time r; after the barrier everyone must be at least
    // at the latest arrival time.
    comm.proc().advance(static_cast<double>(comm.rank()));
    comm.barrier();
    EXPECT_GE(comm.proc().now(), static_cast<double>(P - 1));
  });
}

TEST_P(CollectivesTest, BcastDeliversFromEveryRoot) {
  const int P = GetParam();
  runJob(cfg(P), [&](Comm& comm) {
    for (Rank root = 0; root < P; ++root) {
      std::vector<int> data(4, comm.rank() == root ? root * 11 : -1);
      comm.bcast(data.data(), 16, root);
      for (int v : data) EXPECT_EQ(v, root * 11);
    }
  });
}

TEST_P(CollectivesTest, AllreduceSum) {
  const int P = GetParam();
  runJob(cfg(P), [&](Comm& comm) {
    std::int64_t v = comm.rank() + 1;
    comm.allreduce(&v, 1, ReduceOp::kSum);
    EXPECT_EQ(v, static_cast<std::int64_t>(P) * (P + 1) / 2);
  });
}

TEST_P(CollectivesTest, AllreduceMinMaxVector) {
  const int P = GetParam();
  runJob(cfg(P), [&](Comm& comm) {
    std::int64_t mn[2] = {comm.rank(), 100 - comm.rank()};
    comm.allreduce(mn, 2, ReduceOp::kMin);
    EXPECT_EQ(mn[0], 0);
    EXPECT_EQ(mn[1], 100 - (P - 1));
    std::int64_t mx = comm.rank();
    comm.allreduce(&mx, 1, ReduceOp::kMax);
    EXPECT_EQ(mx, P - 1);
  });
}

TEST_P(CollectivesTest, AllreduceBitOrBitmap) {
  const int P = GetParam();
  runJob(cfg(P), [&](Comm& comm) {
    // Each rank sets its own bit; the union must have P bits set.
    std::uint64_t bits = 1ULL << (comm.rank() % 64);
    comm.allreduce(&bits, 1, ReduceOp::kBitOr);
    int popcount = 0;
    for (int i = 0; i < 64; ++i) popcount += (bits >> i) & 1;
    EXPECT_EQ(popcount, std::min(P, 64));
  });
}

TEST_P(CollectivesTest, AllgatherOrdersByRank) {
  const int P = GetParam();
  runJob(cfg(P), [&](Comm& comm) {
    const std::int64_t mine = comm.rank() * 7;
    std::vector<std::int64_t> all(static_cast<std::size_t>(P), -1);
    comm.allgather(&mine, 8, all.data());
    for (int r = 0; r < P; ++r) EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 7);
  });
}

TEST_P(CollectivesTest, AlltoallvExchangesRankStampedBlocks) {
  const int P = GetParam();
  runJob(cfg(P), [&](Comm& comm) {
    // Rank r sends value r*P + dst to each dst.
    std::vector<std::int32_t> sbuf(static_cast<std::size_t>(P));
    std::vector<Bytes> scount(static_cast<std::size_t>(P), 4);
    std::vector<Offset> sdisp(static_cast<std::size_t>(P));
    std::vector<std::int32_t> rbuf(static_cast<std::size_t>(P), -1);
    std::vector<Bytes> rcount(static_cast<std::size_t>(P), 4);
    std::vector<Offset> rdisp(static_cast<std::size_t>(P));
    for (int d = 0; d < P; ++d) {
      sbuf[static_cast<std::size_t>(d)] = comm.rank() * P + d;
      sdisp[static_cast<std::size_t>(d)] = d * 4;
      rdisp[static_cast<std::size_t>(d)] = d * 4;
    }
    comm.alltoallv(sbuf.data(), scount, sdisp, rbuf.data(), rcount, rdisp);
    for (int s = 0; s < P; ++s) {
      EXPECT_EQ(rbuf[static_cast<std::size_t>(s)], s * P + comm.rank());
    }
  });
}

TEST(CollectivesVarTest, AlltoallvWithUnevenCounts) {
  // Rank r sends r+1 bytes of value r to every dst.
  const int P = 5;
  runJob(cfg(P), [&](Comm& comm) {
    const int r = comm.rank();
    std::vector<std::byte> sbuf(static_cast<std::size_t>((r + 1) * P),
                                static_cast<std::byte>(r));
    std::vector<Bytes> scount(static_cast<std::size_t>(P), r + 1);
    std::vector<Offset> sdisp(static_cast<std::size_t>(P));
    for (int d = 0; d < P; ++d) sdisp[static_cast<std::size_t>(d)] = d * (r + 1);
    Bytes total = 0;
    std::vector<Bytes> rcount(static_cast<std::size_t>(P));
    std::vector<Offset> rdisp(static_cast<std::size_t>(P));
    for (int s = 0; s < P; ++s) {
      rcount[static_cast<std::size_t>(s)] = s + 1;
      rdisp[static_cast<std::size_t>(s)] = total;
      total += s + 1;
    }
    std::vector<std::byte> rbuf(static_cast<std::size_t>(total));
    comm.alltoallv(sbuf.data(), scount, sdisp, rbuf.data(), rcount, rdisp);
    for (int s = 0; s < P; ++s) {
      for (Bytes i = 0; i < rcount[static_cast<std::size_t>(s)]; ++i) {
        EXPECT_EQ(rbuf[static_cast<std::size_t>(
                      rdisp[static_cast<std::size_t>(s)] + i)],
                  static_cast<std::byte>(s));
      }
    }
  });
}

// Receive buffers are not zero-filled, so a receive region that no send
// covers must be an error rather than stale bytes.
TEST(CollectivesVarTest, AlltoallvZeroSelfSendWithSelfReceiveIsAnError) {
  EXPECT_THROW(runJob(cfg(2),
                      [](Comm& comm) {
                        std::int32_t sbuf[2] = {1, 2};
                        std::int32_t rbuf[2] = {};
                        const auto me = static_cast<std::size_t>(comm.rank());
                        std::vector<Bytes> scount(2, 4), rcount(2, 4);
                        scount[me] = 0;
                        const std::vector<Offset> disp = {0, 4};
                        comm.alltoallv(sbuf, scount, disp, rbuf, rcount, disp);
                      }),
               Error);
}

TEST(CollectivesVarTest, AlltoallvShortPeerSendIsAnError) {
  EXPECT_THROW(runJob(cfg(2),
                      [](Comm& comm) {
                        std::int32_t sbuf[2] = {1, 2};
                        std::int32_t rbuf[2] = {};
                        // Rank 0 sends rank 1 two bytes; rank 1 expects four.
                        std::vector<Bytes> scount(2, 4), rcount(2, 4);
                        if (comm.rank() == 0) scount[1] = 2;
                        const std::vector<Offset> disp = {0, 4};
                        comm.alltoallv(sbuf, scount, disp, rbuf, rcount, disp);
                      }),
               Error);
}

TEST(CollectivesCostTest, BarrierCostGrowsLogarithmically) {
  auto barrier_time = [](int P) {
    SimTime t = 0;
    runJob(cfg(P), [&](Comm& comm) {
      comm.barrier();
      if (comm.rank() == 0) t = comm.proc().now();
    });
    return t;
  };
  const SimTime t16 = barrier_time(16);
  const SimTime t256 = barrier_time(256);
  EXPECT_GT(t256, t16);
  // log2(256)/log2(16) = 2; allow generous slack but reject linear growth.
  EXPECT_LT(t256, t16 * 6.0);
}

}  // namespace
}  // namespace tcio::mpi
