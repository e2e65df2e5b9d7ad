#include "fs/store.h"

#include <gtest/gtest.h>

#include <vector>

namespace tcio::fs {
namespace {

std::vector<std::byte> bytes(std::initializer_list<int> vals) {
  std::vector<std::byte> out;
  for (int v : vals) out.push_back(static_cast<std::byte>(v));
  return out;
}

TEST(SparseStoreTest, WriteReadRoundTrip) {
  SparseStore s;
  const auto data = bytes({1, 2, 3, 4, 5});
  s.write(100, data);
  std::vector<std::byte> out(5);
  s.read(100, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(s.size(), 105);
}

TEST(SparseStoreTest, HolesReadAsZero) {
  SparseStore s;
  s.write(1000, bytes({7}));
  std::vector<std::byte> out(3);
  s.read(500, out);
  EXPECT_EQ(out, bytes({0, 0, 0}));
}

TEST(SparseStoreTest, CrossPageBoundary) {
  SparseStore s;
  const Offset off = SparseStore::kPageSize - 2;
  s.write(off, bytes({1, 2, 3, 4}));
  std::vector<std::byte> out(4);
  s.read(off, out);
  EXPECT_EQ(out, bytes({1, 2, 3, 4}));
}

TEST(SparseStoreTest, OverwriteReplacesBytes) {
  SparseStore s;
  s.write(0, bytes({1, 1, 1, 1}));
  s.write(1, bytes({9, 9}));
  std::vector<std::byte> out(4);
  s.read(0, out);
  EXPECT_EQ(out, bytes({1, 9, 9, 1}));
}

TEST(SparseStoreTest, LargeMultiPageWrite) {
  SparseStore s;
  std::vector<std::byte> data(300'000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i % 251);
  }
  s.write(12345, data);
  std::vector<std::byte> out(data.size());
  s.read(12345, out);
  EXPECT_EQ(out, data);
}

TEST(SparseStoreTest, ClearResetsEverything) {
  SparseStore s;
  s.write(0, bytes({1, 2, 3}));
  s.clear();
  EXPECT_EQ(s.size(), 0);
  std::vector<std::byte> out(3);
  s.read(0, out);
  EXPECT_EQ(out, bytes({0, 0, 0}));
}

TEST(SparseStoreTest, AllocationIsLazyAndPageGranular) {
  SparseStore s;
  s.write(10 * SparseStore::kPageSize, bytes({1}));
  EXPECT_EQ(s.allocatedBytes(), SparseStore::kPageSize);
}

// A page holds its bytes up to its highest written byte; the rest of the
// page reads as zero without having been written. Under MALLOC_PERTURB_ the
// page's unwritten capacity holds the pattern, so a read that strays past
// the held bytes shows here.

constexpr Offset kPage = SparseStore::kPageSize;

std::vector<std::byte> readBack(const SparseStore& s, Offset off, Bytes n) {
  std::vector<std::byte> out(static_cast<std::size_t>(n), std::byte{0xff});
  s.read(off, out);
  return out;
}

TEST(SparseStoreTest, WriteIntoTheMiddleOfAFreshPageReadsZeroOnBothSides) {
  SparseStore s;
  s.write(kPage + 1000, bytes({5, 6, 7}));
  const std::vector<std::byte> page = readBack(s, kPage, kPage);
  for (Offset i = 0; i < kPage; ++i) {
    const int want = i >= 1000 && i < 1003 ? static_cast<int>(i - 995) : 0;
    ASSERT_EQ(page[static_cast<std::size_t>(i)], static_cast<std::byte>(want))
        << "byte " << i;
  }
  EXPECT_EQ(s.size(), kPage + 1003);
}

TEST(SparseStoreTest, AppendsExtendAPage) {
  SparseStore s;
  std::vector<std::byte> expect;
  for (int batch = 0; batch < 5; ++batch) {
    const std::vector<std::byte> data(1000 + batch,
                                      static_cast<std::byte>(batch + 1));
    s.write(static_cast<Offset>(expect.size()), data);
    expect.insert(expect.end(), data.begin(), data.end());
    EXPECT_EQ(s.size(), static_cast<Bytes>(expect.size()));
  }
  EXPECT_EQ(readBack(s, 0, static_cast<Bytes>(expect.size())), expect);
  EXPECT_EQ(s.allocatedBytes(), kPage);
}

TEST(SparseStoreTest, WritePastTheHighestWrittenByteLeavesAZeroedGap) {
  SparseStore s;
  s.write(0, bytes({1, 2}));
  s.write(500, bytes({3}));
  // Then a write that straddles the held end: part overwrite, part append.
  s.write(499, bytes({8, 9, 10}));
  std::vector<std::byte> expect(502, std::byte{0});
  expect[0] = std::byte{1};
  expect[1] = std::byte{2};
  expect[499] = std::byte{8};
  expect[500] = std::byte{9};
  expect[501] = std::byte{10};
  EXPECT_EQ(readBack(s, 0, 502), expect);
  EXPECT_EQ(s.size(), 502);
}

TEST(SparseStoreTest, ReadsStraddleTheHighestWrittenByte) {
  SparseStore s;
  s.write(kPage - 4, bytes({1, 2, 3, 4, 5, 6}));  // pages 0 and 1
  EXPECT_EQ(readBack(s, kPage - 6, 10),
            bytes({0, 0, 1, 2, 3, 4, 5, 6, 0, 0}));
  EXPECT_EQ(readBack(s, kPage + 1, 4), bytes({6, 0, 0, 0}));
  // Wholly past the held bytes of a page that exists, and of one that
  // does not.
  EXPECT_EQ(readBack(s, kPage + 100, 3), bytes({0, 0, 0}));
  EXPECT_EQ(readBack(s, 5 * kPage, 3), bytes({0, 0, 0}));
}

TEST(SparseStoreTest, SizeAndAllocatedBytesKeepTheirMeaning) {
  SparseStore s;
  s.write(3 * kPage + 10, bytes({1}));  // one page, far out
  EXPECT_EQ(s.size(), 3 * kPage + 11);
  EXPECT_EQ(s.allocatedBytes(), kPage);
  s.write(10, bytes({2}));  // a second page, low
  EXPECT_EQ(s.size(), 3 * kPage + 11);
  EXPECT_EQ(s.allocatedBytes(), 2 * kPage);
  s.write(3 * kPage + 5000, bytes({3}));  // same page as the first
  EXPECT_EQ(s.allocatedBytes(), 2 * kPage);
  EXPECT_EQ(s.size(), 3 * kPage + 5001);
  s.clear();
  EXPECT_EQ(s.allocatedBytes(), 0);
  EXPECT_EQ(s.size(), 0);
}

}  // namespace
}  // namespace tcio::fs
