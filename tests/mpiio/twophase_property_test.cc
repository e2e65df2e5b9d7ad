// Property tests for the two-phase (OCIO) path: random non-overlapping
// access patterns must produce the same bytes as a sequential reference,
// collective reads must invert collective writes, and overlapping writers
// resolve to the highest rank, across process counts and aggregator
// configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "mpi/runtime.h"
#include "mpiio/domain.h"
#include "mpiio/file.h"

namespace tcio::io {
namespace {

fs::FsConfig fsCfg() {
  fs::FsConfig c;
  c.num_osts = 4;
  c.stripe_size = 1024;
  return c;
}

struct Piece {
  Offset off;
  Bytes len;
  int rank;
};

/// Random disjoint partition of [0, total) among P ranks, with holes.
std::vector<Piece> randomPieces(std::uint64_t seed, int P, Bytes total) {
  Rng rng(seed);
  std::vector<Piece> pieces;
  Offset cur = 0;
  while (cur < total) {
    const Bytes len = std::min<Bytes>(1 + rng.uniformInt(0, 300), total - cur);
    if (rng.uniform() < 0.8) {  // 20% holes
      pieces.push_back({cur, len, static_cast<int>(rng.uniformInt(0, P - 1))});
    }
    cur += len;
  }
  return pieces;
}

std::byte expected(Offset off, int rank) {
  return static_cast<std::byte>((rank * 41 + off * 7 + 1) % 251);
}

class TwoPhasePropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, TwoPhasePropertyTest,
    ::testing::Combine(::testing::Values(2, 5, 8),      // ranks
                       ::testing::Values(0, 2),          // cb_nodes
                       ::testing::Values(11u, 22u, 33u)  // pattern seed
                       ));

TEST_P(TwoPhasePropertyTest, CollectiveWriteMatchesReference) {
  const auto [P, cb, seed] = GetParam();
  const Bytes total = 20000;
  const auto pieces = randomPieces(seed, P, total);

  std::vector<std::byte> reference(static_cast<std::size_t>(total),
                                   std::byte{0});
  Bytes max_end = 0;
  for (const Piece& p : pieces) {
    for (Bytes i = 0; i < p.len; ++i) {
      reference[static_cast<std::size_t>(p.off + i)] =
          expected(p.off + i, p.rank);
    }
    max_end = std::max(max_end, p.off + p.len);
  }

  fs::Filesystem fsys(fsCfg());
  mpi::JobConfig jc;
  jc.num_ranks = P;
  mpi::runJob(jc, [&, P = P, cb = cb](mpi::Comm& comm) {
    MpioConfig mc;
    mc.cb_nodes = cb;
    MpioFile f =
        MpioFile::open(comm, fsys, "prop.dat", fs::kWrite | fs::kCreate, mc);
    // Build this rank's payload and an hindexed view covering its pieces.
    std::vector<Bytes> lens;
    std::vector<Offset> displs;
    std::vector<std::byte> payload;
    for (const Piece& p : pieces) {
      if (p.rank != comm.rank()) continue;
      lens.push_back(p.len);
      displs.push_back(p.off);
      for (Bytes i = 0; i < p.len; ++i) {
        payload.push_back(expected(p.off + i, p.rank));
      }
    }
    if (!lens.empty()) {
      auto ft = mpi::Datatype::hindexed(lens, displs).commit();
      auto e = mpi::Datatype::byte().commit();
      f.setView(0, e, ft);
    }
    f.writeAtAll(0, payload.data(), static_cast<Bytes>(payload.size()));
    f.close();
  });

  std::vector<std::byte> got(static_cast<std::size_t>(max_end));
  fsys.peek("prop.dat", 0, got);
  for (Offset i = 0; i < max_end; ++i) {
    ASSERT_EQ(got[static_cast<std::size_t>(i)],
              reference[static_cast<std::size_t>(i)])
        << "seed " << seed << " offset " << i;
  }
}

TEST_P(TwoPhasePropertyTest, CollectiveReadInvertsCollectiveWrite) {
  const auto [P, cb, seed] = GetParam();
  const Bytes total = 12000;
  const auto pieces = randomPieces(seed + 100, P, total);

  fs::Filesystem fsys(fsCfg());
  mpi::JobConfig jc;
  jc.num_ranks = P;
  mpi::runJob(jc, [&, cb = cb](mpi::Comm& comm) {
    MpioConfig mc;
    mc.cb_nodes = cb;
    MpioFile f = MpioFile::open(comm, fsys, "inv.dat",
                                fs::kRead | fs::kWrite | fs::kCreate, mc);
    std::vector<Bytes> lens;
    std::vector<Offset> displs;
    std::vector<std::byte> payload;
    for (const Piece& p : pieces) {
      if (p.rank != comm.rank()) continue;
      lens.push_back(p.len);
      displs.push_back(p.off);
      for (Bytes i = 0; i < p.len; ++i) {
        payload.push_back(expected(p.off + i, p.rank));
      }
    }
    if (!lens.empty()) {
      auto ft = mpi::Datatype::hindexed(lens, displs).commit();
      f.setView(0, mpi::Datatype::byte().commit(), ft);
    }
    f.writeAtAll(0, payload.data(), static_cast<Bytes>(payload.size()));
    comm.barrier();
    std::vector<std::byte> got(payload.size());
    f.readAtAll(0, got.data(), static_cast<Bytes>(got.size()));
    EXPECT_EQ(got, payload);
    f.close();
  });
}

/// Random disjoint ascending pieces of [0, total) for each of P ranks, drawn
/// independently, so different ranks' pieces overlap.
std::vector<std::vector<Piece>> overlappingPieces(std::uint64_t seed, int P,
                                                  Bytes total) {
  Rng rng(seed);
  std::vector<std::vector<Piece>> per_rank(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) {
    Offset cur = rng.uniformInt(0, 300);
    while (cur < total) {
      const Bytes len =
          std::min<Bytes>(1 + rng.uniformInt(0, 300), total - cur);
      per_rank[static_cast<std::size_t>(r)].push_back({cur, len, r});
      cur += len + rng.uniformInt(0, 400);
    }
  }
  return per_rank;
}

// Two ranks writing the same byte is a user race; the aggregator overlays
// sources in rank order, so the highest-ranked writer's bytes land. Each
// aggregator writes one request per merged run of the union in its region.
TEST_P(TwoPhasePropertyTest, OverlappingWritersHighestRankWins) {
  const auto [P, cb, seed] = GetParam();
  const Bytes total = 15000;
  const auto per_rank = overlappingPieces(seed + 200, P, total);

  std::vector<std::byte> reference(static_cast<std::size_t>(total),
                                   std::byte{0});
  std::vector<bool> covered(static_cast<std::size_t>(total), false);
  Offset lo = total;
  Offset hi = 0;
  for (const auto& pieces : per_rank) {  // ascending rank: last one wins
    for (const Piece& p : pieces) {
      for (Bytes i = 0; i < p.len; ++i) {
        reference[static_cast<std::size_t>(p.off + i)] =
            expected(p.off + i, p.rank);
        covered[static_cast<std::size_t>(p.off + i)] = true;
      }
      lo = std::min(lo, p.off);
      hi = std::max(hi, p.off + p.len);
    }
  }
  ASSERT_LT(lo, hi);
  // One request per maximal covered run inside each aggregator's region.
  const Domain dom = Domain::partition(lo, hi, P, cb);
  std::int64_t expect_requests = 0;
  for (int agg = 0; agg < dom.num_agg; ++agg) {
    const Extent region = dom.regionOf(agg);
    for (Offset b = region.begin; b < region.end; ++b) {
      const auto at = static_cast<std::size_t>(b);
      if (covered[at] && (b == region.begin || !covered[at - 1])) {
        ++expect_requests;
      }
    }
  }

  fs::Filesystem fsys(fsCfg());
  mpi::JobConfig jc;
  jc.num_ranks = P;
  std::vector<std::int64_t> requests(static_cast<std::size_t>(P), 0);
  mpi::runJob(jc, [&, cb = cb](mpi::Comm& comm) {
    MpioConfig mc;
    mc.cb_nodes = cb;
    MpioFile f =
        MpioFile::open(comm, fsys, "overlap.dat", fs::kWrite | fs::kCreate, mc);
    std::vector<Bytes> lens;
    std::vector<Offset> displs;
    std::vector<std::byte> payload;
    for (const Piece& p : per_rank[static_cast<std::size_t>(comm.rank())]) {
      lens.push_back(p.len);
      displs.push_back(p.off);
      for (Bytes i = 0; i < p.len; ++i) {
        payload.push_back(expected(p.off + i, p.rank));
      }
    }
    if (!lens.empty()) {
      auto ft = mpi::Datatype::hindexed(lens, displs).commit();
      f.setView(0, mpi::Datatype::byte().commit(), ft);
    }
    requests[static_cast<std::size_t>(comm.rank())] =
        f.writeAtAll(0, payload.data(), static_cast<Bytes>(payload.size()))
            .fs_requests;
    f.close();
  });

  std::int64_t got_requests = 0;
  for (const std::int64_t n : requests) got_requests += n;
  EXPECT_EQ(got_requests, expect_requests);
  std::vector<std::byte> got(static_cast<std::size_t>(hi));
  fsys.peek("overlap.dat", 0, got);
  for (Offset i = 0; i < hi; ++i) {
    ASSERT_EQ(got[static_cast<std::size_t>(i)],
              reference[static_cast<std::size_t>(i)])
        << "seed " << seed << " offset " << i;
  }
}

}  // namespace
}  // namespace tcio::io
