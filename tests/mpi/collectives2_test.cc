// Tests for the second batch of communication primitives: gather and
// scatter.
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

class Collectives2Test : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Sizes, Collectives2Test,
                         ::testing::Values(1, 2, 3, 5, 8, 16));

TEST_P(Collectives2Test, GatherOrdersByRank) {
  const int P = GetParam();
  runJob(cfg(P), [&](Comm& comm) {
    const Rank root = P / 2;
    const std::int32_t mine = comm.rank() * 3 + 1;
    std::vector<std::int32_t> all(static_cast<std::size_t>(P), -1);
    comm.gather(&mine, 4, all.data(), root);
    if (comm.rank() == root) {
      for (int r = 0; r < P; ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 3 + 1);
      }
    }
  });
}

TEST_P(Collectives2Test, ScatterDistributesBlocks) {
  const int P = GetParam();
  runJob(cfg(P), [&](Comm& comm) {
    const Rank root = 0;
    std::vector<std::int64_t> blocks;
    if (comm.rank() == root) {
      blocks.resize(static_cast<std::size_t>(P));
      std::iota(blocks.begin(), blocks.end(), 100);
    }
    std::int64_t mine = -1;
    comm.scatter(blocks.data(), 8, &mine, root);
    EXPECT_EQ(mine, 100 + comm.rank());
  });
}

TEST_P(Collectives2Test, GatherInvertsScatter) {
  const int P = GetParam();
  runJob(cfg(P), [&](Comm& comm) {
    std::vector<double> data;
    if (comm.rank() == 0) {
      for (int i = 0; i < P; ++i) data.push_back(i * 1.5);
    }
    double mine = -1;
    comm.scatter(data.data(), 8, &mine, 0);
    std::vector<double> back(static_cast<std::size_t>(P), -1);
    comm.gather(&mine, 8, back.data(), 0);
    if (comm.rank() == 0) {
      for (int i = 0; i < P; ++i) {
        EXPECT_DOUBLE_EQ(back[static_cast<std::size_t>(i)], i * 1.5);
      }
    }
  });
}

}  // namespace
}  // namespace tcio::mpi
