// Tests for mpi::sizedAlltoallv, the size-then-payload all-to-all that the
// TCIO staged exchanges and the two-phase OCIO baseline share, and for
// mpi::PackedSend, the count-then-fill send buffer both exchanges take.
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

/// Per-destination byte counts of rank `me`'s blobs.
std::vector<Bytes> blobCounts(int me, int P) {
  std::vector<Bytes> counts(static_cast<std::size_t>(P));
  for (int d = 0; d < P; ++d) {
    counts[static_cast<std::size_t>(d)] = static_cast<Bytes>(blobSize(me, d));
  }
  return counts;
}

class SizedExchangeTest : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Sizes, SizedExchangeTest, ::testing::Values(1, 5));

TEST_P(SizedExchangeTest, UnevenZeroLengthAndSelfBlobsArriveInRankOrder) {
  const int P = GetParam();
  runJob(cfg(P), [&](Comm& comm) {
    const int me = comm.rank();
    PackedSend send(blobCounts(me, P));
    // Fill destinations in reverse rank order: each lands at its own cursor.
    for (int d = P - 1; d >= 0; --d) {
      for (std::size_t i = 0; i < blobSize(me, d); ++i) {
        const std::byte b = blobByte(me, d, i);
        send.append(static_cast<std::size_t>(d), &b, 1);
      }
    }
    const SizedExchange got = sizedAlltoallv(comm, send);
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
    const PackedSend none(std::vector<Bytes>(static_cast<std::size_t>(P), 0));
    const SizedExchange got = sizedAlltoallv(comm, none);
    EXPECT_EQ(got.data.size(), 0U);
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
    std::vector<Bytes> counts(static_cast<std::size_t>(P));
    for (int d = 0; d < P; ++d) {
      counts[static_cast<std::size_t>(d)] =
          recordCount(me, d) * static_cast<Bytes>(sizeof(Rec));
    }
    PackedSend send(std::move(counts));
    for (int d = 0; d < P; ++d) {
      for (int k = 0; k < recordCount(me, d); ++k) {
        const Rec r{me, d, k};
        send.append(static_cast<std::size_t>(d), &r, sizeof(r));
      }
    }
    const SizedExchange got = sizedAlltoallv(comm, send);
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

TEST_P(SizedExchangeTest, ForEachRecordRejectsAPartialRecord) {
  const int P = GetParam();
  runJob(cfg(P), [&](Comm& comm) {
    // One whole record and one stray byte to every destination.
    const Bytes n = static_cast<Bytes>(sizeof(Rec)) + 1;
    PackedSend send(std::vector<Bytes>(static_cast<std::size_t>(P), n));
    const std::vector<std::byte> blob(static_cast<std::size_t>(n));
    for (int d = 0; d < P; ++d) {
      send.append(static_cast<std::size_t>(d), blob.data(), n);
    }
    const SizedExchange got = sizedAlltoallv(comm, send);
    for (int s = 0; s < P; ++s) {
      EXPECT_THROW(got.forEachRecord<Rec>(static_cast<std::size_t>(s),
                                          [](const Rec&) {}),
                   Error)
          << "from " << s;
    }
  });
}

TEST(PackedSendTest, FillPastACountFails) {
  PackedSend send({4, 0});
  const std::byte four[4] = {};
  send.append(0, four, 4);
  EXPECT_TRUE(send.filled());
  EXPECT_THROW(send.append(0, four, 1), Error);
  EXPECT_THROW(send.append(1, four, 1), Error);
  EXPECT_THROW(send.append(2, four, 0), Error);  // no such destination
}

TEST_P(SizedExchangeTest, UnderfilledSendFails) {
  const int P = GetParam();
  runJob(cfg(P), [&](Comm& comm) {
    PackedSend send(std::vector<Bytes>(static_cast<std::size_t>(P), 4));
    const std::byte two[2] = {};
    send.append(0, two, 2);
    EXPECT_FALSE(send.filled());
    EXPECT_THROW(sizedAlltoallv(comm, send), Error);
    EXPECT_THROW(
        alltoallvCounted(comm, send,
                         std::vector<Bytes>(static_cast<std::size_t>(P), 4)),
        Error);
  });
}

// The helper is exactly the two-alltoallv recipe it replaced: the same
// calls with the same counts give the same makespan, messages and bytes.
TEST_P(SizedExchangeTest, CostsTheSameAsTwoHandWrittenAlltoallvs) {
  const int P = GetParam();
  const auto sp = static_cast<std::size_t>(P);
  const JobResult helper = runJob(cfg(P), [&](Comm& comm) {
    PackedSend send(blobCounts(comm.rank(), P));
    const std::vector<std::byte> zeros(static_cast<std::size_t>(3 * P));
    // blobSize(src, dst) <= 3 * (dst + 1) <= 3 * P.
    for (int d = 0; d < P; ++d) {
      send.append(static_cast<std::size_t>(d), zeros.data(),
                  static_cast<Bytes>(blobSize(comm.rank(), d)));
    }
    sizedAlltoallv(comm, send);
  });
  const JobResult by_hand = runJob(cfg(P), [&](Comm& comm) {
    const std::vector<Bytes> sizes = blobCounts(comm.rank(), P);
    std::vector<Bytes> got(sp), eight(sp, 8), rcnt(sp);
    std::vector<Offset> d8(sp), sdsp(sp), rdsp(sp);
    for (std::size_t i = 0; i < sp; ++i) d8[i] = static_cast<Offset>(i * 8);
    comm.alltoallv(sizes.data(), eight, d8, got.data(), eight, d8);
    Bytes stot = 0, rtot = 0;
    for (std::size_t i = 0; i < sp; ++i) {
      sdsp[i] = stot;
      stot += sizes[i];
      rcnt[i] = got[i];
      rdsp[i] = rtot;
      rtot += got[i];
    }
    const std::vector<std::byte> sendbuf(static_cast<std::size_t>(stot));
    std::vector<std::byte> recv(static_cast<std::size_t>(rtot));
    comm.alltoallv(sendbuf.data(), sizes, sdsp, recv.data(), rcnt, rdsp);
  });
  EXPECT_EQ(helper.makespan, by_hand.makespan);
  EXPECT_EQ(helper.network_messages, by_hand.network_messages);
  EXPECT_EQ(helper.network_bytes, by_hand.network_bytes);
}

}  // namespace
}  // namespace tcio::mpi
