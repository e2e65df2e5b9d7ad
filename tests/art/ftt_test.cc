#include "art/ftt.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "common/crc32.h"
#include "common/error.h"

namespace tcio::art {
namespace {

TEST(FttTest, GenerationIsDeterministicPerId) {
  const TreeGenConfig cfg;
  const FttTree a = generateTree(5, 42, cfg);
  const FttTree b = generateTree(5, 42, cfg);
  EXPECT_EQ(a, b);
  const FttTree c = generateTree(5, 43, cfg);
  EXPECT_NE(a, c);
}

TEST(FttTest, TreesVaryInDepthAndSize) {
  const TreeGenConfig cfg;
  std::int64_t min_size = 1LL << 60, max_size = 0;
  for (int id = 0; id < 50; ++id) {
    const FttTree t = generateTree(5, id, cfg);
    const Bytes s = treeSerializedSize(t);
    min_size = std::min<std::int64_t>(min_size, s);
    max_size = std::max<std::int64_t>(max_size, s);
    EXPECT_GE(t.depth(), 1);
    EXPECT_LE(t.depth(), cfg.max_depth);
  }
  EXPECT_LT(min_size, max_size);  // dynamic structure => dynamic sizes
}

TEST(FttTest, ChildrenComeInEights) {
  const FttTree t = generateTree(7, 1, TreeGenConfig{});
  for (int l = 0; l + 1 < t.depth(); ++l) {
    std::int64_t refined = 0;
    for (auto f : t.levels[static_cast<std::size_t>(l)].refine) refined += f;
    EXPECT_EQ(t.levels[static_cast<std::size_t>(l) + 1].numCells(),
              refined * 8);
  }
}

TEST(FttTest, SerializedSizeMatchesArrayWalk) {
  const FttTree t = generateTree(5, 3, TreeGenConfig{});
  Bytes total = 0;
  std::int64_t arrays = 0;
  forEachArray(t, [&](const void*, Bytes n) {
    total += n;
    ++arrays;
  });
  EXPECT_EQ(total, treeSerializedSize(t));
  EXPECT_EQ(arrays, arrayCount(t));
}

TEST(FttTest, SerializeParseRoundTrip) {
  const FttTree t = generateTree(9, 17, TreeGenConfig{});
  std::vector<std::byte> blob;
  forEachArray(t, [&](const void* data, Bytes n) {
    const auto* p = static_cast<const std::byte*>(data);
    blob.insert(blob.end(), p, p + n);
  });
  std::uint32_t crc = 0;
  const FttTree back =
      parseTree(blob.data(), static_cast<Bytes>(blob.size()), crc);
  EXPECT_EQ(back, t);
}

TEST(FttTest, ParseRejectsTruncatedBlob) {
  const FttTree t = generateTree(5, 3, TreeGenConfig{});
  std::vector<std::byte> blob;
  forEachArray(t, [&](const void* data, Bytes n) {
    const auto* p = static_cast<const std::byte*>(data);
    blob.insert(blob.end(), p, p + n);
  });
  blob.resize(blob.size() / 2);
  std::uint32_t crc = 0;
  EXPECT_THROW(parseTree(blob.data(), static_cast<Bytes>(blob.size()), crc),
               Error);
}

TEST(FttTest, ParseRejectsBadMagic) {
  std::vector<std::byte> junk(64, std::byte{0x5A});
  std::uint32_t crc = 0;
  EXPECT_THROW(parseTree(junk.data(), 64, crc), Error);
}

std::vector<std::byte> serialize(const FttTree& t) {
  std::vector<std::byte> blob;
  forEachArray(t, [&](const void* data, Bytes n) {
    const auto* p = static_cast<const std::byte*>(data);
    blob.insert(blob.end(), p, p + n);
  });
  return blob;
}

TEST(FttTest, ParseRejectsNegativeAndOversizedFields) {
  // Header: magic, id, depth (byte 16), num_vars (byte 24); level 0's cell
  // count follows at byte 32. Each bad value must be a typed Error, raised
  // before the parser allocates from it: the blob is a few hundred bytes.
  const std::vector<std::byte> good = serialize(generateTree(5, 3, {}));
  ASSERT_LT(good.size(), 4096u);
  for (const std::size_t field : {std::size_t{16}, std::size_t{24},
                                  std::size_t{32}}) {
    for (const std::int64_t bad :
         {std::int64_t{-1}, std::numeric_limits<std::int64_t>::min(),
          std::int64_t{1} << 40, std::numeric_limits<std::int64_t>::max(),
          static_cast<std::int64_t>(good.size())}) {
      std::vector<std::byte> blob = good;
      std::memcpy(blob.data() + field, &bad, sizeof(bad));
      std::uint32_t crc = 0;
      EXPECT_THROW(
          parseTree(blob.data(), static_cast<Bytes>(blob.size()), crc), Error)
          << "field at byte " << field << " = " << bad;
    }
  }
}

TEST(FttTest, ParseCrcCoversEveryByteOfTheBlob) {
  const FttTree t = generateTree(9, 17, TreeGenConfig{});
  std::vector<std::byte> blob = serialize(t);
  for (int trailing = 0; trailing < 3; ++trailing) {
    std::uint32_t crc = 0;
    const FttTree back =
        parseTree(blob.data(), static_cast<Bytes>(blob.size()), crc);
    EXPECT_EQ(back, t);
    EXPECT_EQ(crc, crc32(blob)) << trailing << " trailing bytes";
    blob.push_back(static_cast<std::byte>(0x40 + trailing));
  }
}

TEST(FttTest, AdvanceKeepsTreeParsable) {
  TreeGenConfig cfg;
  FttTree t = generateTree(5, 8, cfg);
  Rng rng(1);
  for (int step = 0; step < 10; ++step) {
    advanceTree(t, rng, cfg);
    std::vector<std::byte> blob;
    forEachArray(t, [&](const void* data, Bytes n) {
      const auto* p = static_cast<const std::byte*>(data);
      blob.insert(blob.end(), p, p + n);
    });
    std::uint32_t crc = 0;
    const FttTree back =
        parseTree(blob.data(), static_cast<Bytes>(blob.size()), crc);
    EXPECT_EQ(back, t) << "step " << step;
  }
}

TEST(FttTest, GenerateWithCellsHitsTargetWithinAnOctet) {
  for (std::int64_t target : {1, 10, 100, 2048, 5000}) {
    const FttTree t = generateTreeWithCells(5, 1, 2, target);
    EXPECT_GE(t.totalCells(), target);
    EXPECT_LE(t.totalCells(), target + 7);
    EXPECT_EQ(validateTree(t), "");
  }
}

TEST(FttTest, GeneratedTreesSatisfyInvariants) {
  for (int id = 0; id < 30; ++id) {
    const FttTree t = generateTree(5, id, TreeGenConfig{});
    EXPECT_EQ(validateTree(t), "") << "tree " << id;
  }
}

TEST(FttTest, AdvancedTreesSatisfyInvariants) {
  TreeGenConfig cfg;
  FttTree t = generateTree(5, 3, cfg);
  Rng rng(9);
  for (int step = 0; step < 10; ++step) {
    advanceTree(t, rng, cfg);
    EXPECT_EQ(validateTree(t), "") << "step " << step;
  }
}

TEST(FttTest, ValidateDetectsViolations) {
  FttTree t = generateTreeWithCells(5, 0, 2, 100);
  FttTree broken = t;
  broken.levels[1].refine[0] = 2;  // non-boolean flag
  EXPECT_NE(validateTree(broken), "");
  broken = t;
  broken.levels.back().vars.pop_back();  // variable count mismatch
  EXPECT_NE(validateTree(broken), "");
  broken = t;
  broken.levels.back().refine.push_back(0);  // cell count mismatch
  EXPECT_NE(validateTree(broken), "");
}

TEST(FttTest, PaperShapeExampleHas129LikeStructure) {
  // A depth-6 2-variable tree in our format: 1 + 6*(2+2) = 25 on-disk
  // arrays (the paper counts per-cell-octet arrays separately and reaches
  // 129; the structure — many small arrays of mixed types, adjacent in the
  // file — is the same).
  FttTree t = generateTreeWithCells(5, 0, 2, 1 + 2 + 4 + 8 + 16 + 32);
  EXPECT_EQ(arrayCount(t), 1 + t.depth() * 4);
}

}  // namespace
}  // namespace tcio::art
