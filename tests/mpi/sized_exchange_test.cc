// Tests for mpi::sizedAlltoallv, the size-then-payload all-to-all that the
// TCIO staged exchanges and the two-phase OCIO baseline share.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "mpi/mpi.h"

namespace tcio::mpi {
namespace {

JobConfig cfg(int p) {
  JobConfig c;
  c.num_ranks = p;
  return c;
}

/// Bytes rank `src` sends to rank `dst`: uneven across pairs, zero for some
/// pairs, and nonzero for some self-sends.
std::size_t blobSize(int src, int dst) {
  return static_cast<std::size_t>(((src * 7 + dst * 3 + 1) % 4) * (dst + 1));
}

std::byte blobByte(int src, int dst, std::size_t i) {
  return static_cast<std::byte>((src * 31 + dst * 17 + static_cast<int>(i)) &
                                0xff);
}

class SizedExchangeTest : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Sizes, SizedExchangeTest, ::testing::Values(1, 5));

TEST_P(SizedExchangeTest, UnevenZeroLengthAndSelfBlobsArriveInRankOrder) {
  const int P = GetParam();
  runJob(cfg(P), [&](Comm& comm) {
    const int me = comm.rank();
    std::vector<std::vector<std::byte>> per_dst(static_cast<std::size_t>(P));
    for (int d = 0; d < P; ++d) {
      auto& blob = per_dst[static_cast<std::size_t>(d)];
      for (std::size_t i = 0; i < blobSize(me, d); ++i) {
        blob.push_back(blobByte(me, d, i));
      }
    }
    const SizedExchange got = sizedAlltoallv(comm, per_dst);
    ASSERT_EQ(got.counts.size(), static_cast<std::size_t>(P));
    ASSERT_EQ(got.displs.size(), static_cast<std::size_t>(P));
    Offset expect_displ = 0;
    for (int s = 0; s < P; ++s) {
      const auto su = static_cast<std::size_t>(s);
      const std::size_t n = blobSize(s, me);
      EXPECT_EQ(got.counts[su], static_cast<Bytes>(n)) << "from " << s;
      EXPECT_EQ(got.displs[su], expect_displ) << "from " << s;
      expect_displ += static_cast<Offset>(n);
      const std::span<const std::byte> from = got.from(su);
      ASSERT_EQ(from.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(from[i], blobByte(s, me, i)) << "from " << s << " @" << i;
      }
    }
    EXPECT_EQ(got.data.size(), static_cast<std::size_t>(expect_displ));
  });
}

TEST_P(SizedExchangeTest, AllEmptyExchangeReceivesNothing) {
  const int P = GetParam();
  runJob(cfg(P), [&](Comm& comm) {
    const std::vector<std::vector<std::byte>> none(
        static_cast<std::size_t>(P));
    const SizedExchange got = sizedAlltoallv(comm, none);
    EXPECT_TRUE(got.data.empty());
    for (int s = 0; s < P; ++s) {
      EXPECT_EQ(got.counts[static_cast<std::size_t>(s)], 0);
      EXPECT_EQ(got.displs[static_cast<std::size_t>(s)], 0);
      EXPECT_TRUE(got.from(static_cast<std::size_t>(s)).empty());
    }
  });
}

struct Rec {
  std::int32_t src = 0;
  std::int32_t dst = 0;
  std::int32_t k = 0;
};

/// Records rank `src` sends to rank `dst`: two to itself, none for some pairs.
int recordCount(int src, int dst) { return src == dst ? 2 : (src + dst) % 3; }

TEST_P(SizedExchangeTest, ForEachRecordReadsEverySourceInSendOrder) {
  const int P = GetParam();
  runJob(cfg(P), [&](Comm& comm) {
    const int me = comm.rank();
    std::vector<std::vector<std::byte>> per_dst(static_cast<std::size_t>(P));
    for (int d = 0; d < P; ++d) {
      for (int k = 0; k < recordCount(me, d); ++k) {
        const Rec r{me, d, k};
        const auto* raw = reinterpret_cast<const std::byte*>(&r);
        auto& blob = per_dst[static_cast<std::size_t>(d)];
        blob.insert(blob.end(), raw, raw + sizeof(r));
      }
    }
    const SizedExchange got = sizedAlltoallv(comm, per_dst);
    for (int s = 0; s < P; ++s) {
      int seen = 0;
      got.forEachRecord<Rec>(static_cast<std::size_t>(s), [&](const Rec& r) {
        EXPECT_EQ(r.src, s);
        EXPECT_EQ(r.dst, me);
        EXPECT_EQ(r.k, seen);
        ++seen;
      });
      EXPECT_EQ(seen, recordCount(s, me)) << "from " << s;
    }
  });
}

// The helper is exactly the two-alltoallv recipe it replaced: the same
// calls with the same counts give the same makespan, messages and bytes.
TEST_P(SizedExchangeTest, CostsTheSameAsTwoHandWrittenAlltoallvs) {
  const int P = GetParam();
  const auto sp = static_cast<std::size_t>(P);
  const auto blobs = [&](int me) {
    std::vector<std::vector<std::byte>> per_dst(sp);
    for (int d = 0; d < P; ++d) {
      per_dst[static_cast<std::size_t>(d)].resize(blobSize(me, d));
    }
    return per_dst;
  };
  const JobResult helper = runJob(cfg(P), [&](Comm& comm) {
    sizedAlltoallv(comm, blobs(comm.rank()));
  });
  const JobResult by_hand = runJob(cfg(P), [&](Comm& comm) {
    const auto per_dst = blobs(comm.rank());
    std::vector<Bytes> sizes(sp), got(sp), eight(sp, 8), scnt(sp), rcnt(sp);
    std::vector<Offset> d8(sp), sdsp(sp), rdsp(sp);
    for (std::size_t i = 0; i < sp; ++i) {
      sizes[i] = static_cast<Bytes>(per_dst[i].size());
      d8[i] = static_cast<Offset>(i * 8);
    }
    comm.alltoallv(sizes.data(), eight, d8, got.data(), eight, d8);
    Bytes stot = 0, rtot = 0;
    std::vector<std::byte> sendbuf;
    for (std::size_t i = 0; i < sp; ++i) {
      scnt[i] = sizes[i];
      sdsp[i] = stot;
      stot += sizes[i];
      rcnt[i] = got[i];
      rdsp[i] = rtot;
      rtot += got[i];
      sendbuf.insert(sendbuf.end(), per_dst[i].begin(), per_dst[i].end());
    }
    std::vector<std::byte> recv(static_cast<std::size_t>(rtot));
    comm.alltoallv(sendbuf.data(), scnt, sdsp, recv.data(), rcnt, rdsp);
  });
  EXPECT_EQ(helper.makespan, by_hand.makespan);
  EXPECT_EQ(helper.network_messages, by_hand.network_messages);
  EXPECT_EQ(helper.network_bytes, by_hand.network_bytes);
}

}  // namespace
}  // namespace tcio::mpi
