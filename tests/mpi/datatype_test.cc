#include "mpi/datatype.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace tcio::mpi {
namespace {

TEST(DatatypeTest, BasicSizes) {
  EXPECT_EQ(Datatype::byte().size(), 1);
  EXPECT_EQ(Datatype::int32().size(), 4);
  EXPECT_EQ(Datatype::float64().size(), 8);
  EXPECT_TRUE(Datatype::byte().isContiguous());
}

TEST(DatatypeTest, ContiguousMergesIntoOneRun) {
  const auto t = Datatype::contiguous(10, Datatype::int32());
  EXPECT_EQ(t.size(), 40);
  EXPECT_EQ(t.extent(), 40);
  EXPECT_EQ(t.segmentCount(), 1u);
  EXPECT_TRUE(t.isContiguous());
}

TEST(DatatypeTest, VectorLayout) {
  // 3 blocks of 2 int32, stride 4 elements: bytes [0,8) [16,24) [32,40).
  const auto t = Datatype::vector(3, 2, 4, Datatype::int32());
  EXPECT_EQ(t.size(), 24);
  EXPECT_EQ(t.extent(), 40);
  ASSERT_EQ(t.segmentCount(), 3u);
  EXPECT_EQ(t.segments()[0], (Extent{0, 8}));
  EXPECT_EQ(t.segments()[1], (Extent{16, 24}));
  EXPECT_EQ(t.segments()[2], (Extent{32, 40}));
}

TEST(DatatypeTest, VectorWithStrideEqualBlocklenIsContiguous) {
  const auto t = Datatype::vector(4, 2, 2, Datatype::byte());
  EXPECT_EQ(t.segmentCount(), 1u);
  EXPECT_EQ(t.size(), 8);
}

TEST(DatatypeTest, VectorStrideSmallerThanBlockRejected) {
  EXPECT_THROW(Datatype::vector(2, 3, 2, Datatype::byte()), Error);
}

TEST(DatatypeTest, IndexedLayout) {
  const std::array<std::int64_t, 2> lens{2, 1};
  const std::array<std::int64_t, 2> displs{0, 5};
  const auto t = Datatype::indexed(lens, displs, Datatype::float64());
  EXPECT_EQ(t.size(), 24);
  EXPECT_EQ(t.extent(), 48);
  ASSERT_EQ(t.segmentCount(), 2u);
  EXPECT_EQ(t.segments()[0], (Extent{0, 16}));
  EXPECT_EQ(t.segments()[1], (Extent{40, 48}));
}

TEST(DatatypeTest, HindexedBytes) {
  const std::array<Bytes, 2> lens{3, 4};
  const std::array<Offset, 2> displs{10, 20};
  const auto t = Datatype::hindexed(lens, displs);
  EXPECT_EQ(t.size(), 7);
  EXPECT_EQ(t.extent(), 24);
}

TEST(DatatypeTest, StructOfIntAndDouble) {
  // The paper's Fig. 2 etype: one int32 then one float64, packed.
  const std::array<std::int64_t, 2> lens{1, 1};
  const std::array<Offset, 2> displs{0, 4};
  const std::array<Datatype, 2> types{Datatype::int32(), Datatype::float64()};
  const auto t = Datatype::structType(lens, displs, types);
  EXPECT_EQ(t.size(), 12);
  EXPECT_EQ(t.extent(), 12);
  EXPECT_TRUE(t.isContiguous());
}

TEST(DatatypeTest, StructWithGap) {
  const std::array<std::int64_t, 2> lens{1, 1};
  const std::array<Offset, 2> displs{0, 8};
  const std::array<Datatype, 2> types{Datatype::int32(), Datatype::int32()};
  const auto t = Datatype::structType(lens, displs, types);
  EXPECT_EQ(t.size(), 8);
  EXPECT_EQ(t.extent(), 12);
  EXPECT_EQ(t.segmentCount(), 2u);
}

TEST(DatatypeTest, NestedVectorOfStruct) {
  const std::array<std::int64_t, 2> lens{1, 1};
  const std::array<Offset, 2> displs{0, 4};
  const std::array<Datatype, 2> types{Datatype::int32(), Datatype::float64()};
  const auto etype = Datatype::structType(lens, displs, types);
  // Fig. 2 filetype for P=2: vector with stride 2 etypes.
  const auto ftype = Datatype::vector(3, 1, 2, etype);
  EXPECT_EQ(ftype.size(), 36);
  EXPECT_EQ(ftype.extent(), 60);
  EXPECT_EQ(ftype.segmentCount(), 3u);
}

TEST(DatatypeTest, FlattenTilesByExtent) {
  const auto t = Datatype::vector(2, 1, 2, Datatype::byte());  // [0,1) [2,3)
  std::vector<Extent> out;
  t.flatten(100, 2, out);
  // Second instance starts at 100 + extent(3); its first run [103,104) is
  // adjacent to the first instance's tail [102,103) and merges.
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], (Extent{100, 101}));
  EXPECT_EQ(out[1], (Extent{102, 104}));
  EXPECT_EQ(out[2], (Extent{105, 106}));
}

TEST(DatatypeTest, FlattenMergesAcrossInstances) {
  const auto t = Datatype::contiguous(4, Datatype::byte());
  std::vector<Extent> out;
  t.flatten(0, 3, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (Extent{0, 12}));
}

TEST(DatatypeTest, CommitFlag) {
  auto t = Datatype::int32();
  EXPECT_FALSE(t.committed());
  t.commit();
  EXPECT_TRUE(t.committed());
}

TEST(DatatypeTest, NormalizeExtentsSortsAndMerges) {
  auto out = normalizeExtents({{10, 20}, {0, 5}, {5, 10}, {30, 30}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (Extent{0, 20}));
}

TEST(DatatypeTest, OverlappingLayoutRejected) {
  EXPECT_THROW(normalizeExtents({{0, 10}, {5, 15}}), Error);
}

// -- Extent kernels: the pairwise union against sort-then-merge -------------

void shuffle(std::vector<Extent>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(i) - 1));
    std::swap(v[i - 1], v[j]);
  }
}

/// P per-source lists laid back to back, each ascending by begin, with
/// empty sources, empty runs, equal-begin ties, exact duplicates and
/// overlaps both inside a source and across sources.
struct Sources {
  std::vector<Extent> runs;
  std::vector<std::size_t> ends;
};

Sources randomSources(Rng& rng, int P) {
  Sources s;
  for (int src = 0; src < P; ++src) {
    const std::int64_t n =
        rng.uniform() < 0.15 ? 0 : rng.uniformInt(1, 12);
    Offset begin = rng.uniformInt(0, 200);
    for (std::int64_t k = 0; k < n; ++k) {
      if (k > 0 && rng.uniform() < 0.1) {
        s.runs.push_back(s.runs.back());  // duplicate run
        continue;
      }
      begin += rng.uniformInt(0, 40);  // 0 makes an equal-begin tie
      s.runs.push_back({begin, begin + rng.uniformInt(0, 50)});
    }
    s.ends.push_back(s.runs.size());
  }
  return s;
}

/// Independent oracle: the maximal runs of a byte bitmap of `runs`.
std::vector<Extent> bitmapUnion(const std::vector<Extent>& runs) {
  Offset hi = 0;
  for (const Extent& e : runs) hi = std::max(hi, e.end);
  std::vector<bool> covered(static_cast<std::size_t>(hi), false);
  for (const Extent& e : runs) {
    for (Offset b = e.begin; b < e.end; ++b) {
      covered[static_cast<std::size_t>(b)] = true;
    }
  }
  std::vector<Extent> out;
  for (Offset b = 0; b < hi; ++b) {
    if (!covered[static_cast<std::size_t>(b)]) continue;
    if (!out.empty() && out.back().end == b) {
      out.back().end = b + 1;
    } else {
      out.push_back({b, b + 1});
    }
  }
  return out;
}

class UnionSortedSourcesTest : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Sources, UnionSortedSourcesTest,
                         ::testing::Values(1, 2, 7, 128, 257));

TEST_P(UnionSortedSourcesTest, EqualsNormalizeOverlappingOfConcatenation) {
  const int P = GetParam();
  Rng rng(static_cast<std::uint64_t>(P) * 1009 + 7);
  for (int trial = 0; trial < 40; ++trial) {
    const Sources s = randomSources(rng, P);
    const std::vector<Extent> merged = unionSortedSources(s.runs, s.ends);
    EXPECT_EQ(merged, normalizeOverlapping(s.runs))
        << "P=" << P << " trial " << trial;
    EXPECT_EQ(merged, bitmapUnion(s.runs)) << "P=" << P << " trial " << trial;
  }
}

TEST_P(UnionSortedSourcesTest, EqualsNormalizeOverlappingOnStridedBlocks) {
  // The two-phase pattern: source r owns block r of every round of P
  // blocks, so the union is one run, with a hole where a source is silent.
  const int P = GetParam();
  Sources s;
  for (int src = 0; src < P; ++src) {
    if (P > 2 && src == P / 2) {
      s.ends.push_back(s.runs.size());
      continue;
    }
    for (Offset round = 0; round < 32; ++round) {
      const Offset b = (round * P + src) * 24;
      s.runs.push_back({b, b + 24});
    }
    s.ends.push_back(s.runs.size());
  }
  const std::vector<Extent> merged = unionSortedSources(s.runs, s.ends);
  EXPECT_EQ(merged, normalizeOverlapping(s.runs));
  EXPECT_EQ(merged, bitmapUnion(s.runs));
}

TEST(UnionSortedSourcesTest, NoSourcesGiveNoRuns) {
  EXPECT_TRUE(unionSortedSources({}, {}).empty());
  const std::vector<std::size_t> ends{0, 0, 0};
  EXPECT_TRUE(unionSortedSources({}, ends).empty());
}

TEST(UnionSortedSourcesTest, UnsortedSourceListThrows) {
  // Sources may come in any order relative to each other...
  const std::vector<std::size_t> ends{2, 4};
  EXPECT_EQ(unionSortedSources({{20, 25}, {30, 35}, {0, 5}, {10, 20}}, ends),
            (std::vector<Extent>{{0, 5}, {10, 25}, {30, 35}}));
  // ...but each source must be ascending by begin.
  EXPECT_THROW(unionSortedSources({{0, 5}, {10, 15}, {20, 25}, {12, 14}}, ends),
               Error);
  EXPECT_THROW(
      unionSortedSources({{10, 15}, {0, 5}}, std::vector<std::size_t>{2}),
      Error);
}

TEST(UnionSortedSourcesTest, EndsMustCoverTheRuns) {
  EXPECT_THROW(unionSortedSources({{0, 5}, {10, 15}},
                                  std::vector<std::size_t>{1}),
               Error);
  EXPECT_THROW(unionSortedSources({{0, 5}}, std::vector<std::size_t>{2}),
               Error);
}

TEST(NormalizeExtentsTest, SortedAndShuffledInputGiveTheSameOutput) {
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    // Disjoint runs (some touching) plus empty extents, some of them tied
    // on begin with a non-empty run.
    std::vector<Extent> sorted;
    Offset cur = 0;
    for (int k = 0; k < 30; ++k) {
      cur += rng.uniformInt(0, 3);  // 0 makes touching runs
      if (rng.uniform() < 0.2) sorted.push_back({cur, cur});
      const Offset end = cur + rng.uniformInt(1, 9);
      sorted.push_back({cur, end});
      cur = end;
    }
    std::vector<Extent> shuffled = sorted;
    shuffle(shuffled, rng);
    EXPECT_EQ(normalizeExtents(sorted), normalizeExtents(shuffled));
    EXPECT_EQ(normalizeExtents(sorted), bitmapUnion(sorted));
  }
}

TEST(NormalizeOverlappingTest, SortedAndShuffledInputGiveTheSameOutput) {
  Rng rng(43);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Extent> sorted = randomSources(rng, 6).runs;
    std::sort(sorted.begin(), sorted.end(),
              [](const Extent& a, const Extent& b) {
                return a.begin < b.begin;
              });
    std::vector<Extent> shuffled = sorted;
    shuffle(shuffled, rng);
    EXPECT_EQ(normalizeOverlapping(sorted), normalizeOverlapping(shuffled));
    EXPECT_EQ(normalizeOverlapping(sorted), bitmapUnion(sorted));
  }
}

TEST(NormalizeExtentsTest, SortedOverlappingInputStillThrows) {
  EXPECT_THROW(normalizeExtents({{0, 4}, {4, 8}, {7, 9}}), Error);
  EXPECT_THROW(normalizeExtents({{0, 4}, {0, 2}}), Error);  // equal begins
  EXPECT_EQ(normalizeExtents({{0, 4}, {4, 4}, {4, 8}}),
            (std::vector<Extent>{{0, 8}}));
}

}  // namespace
}  // namespace tcio::mpi
