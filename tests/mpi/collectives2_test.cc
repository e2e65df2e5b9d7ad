// Tests for the second batch of communication primitives: gather.
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace tcio::mpi
