// Determinism oracle for the MPI-IO collectives (two-phase and view-based).
//
// Pins exact figures of Fig. 2-style interleaved write+read jobs over a grid
// of process counts, view lengths and collective-buffering settings: the job
// makespan (bit-exact), network messages and bytes, file-system write and
// read requests, the summed TwoPhaseStats, the largest per-rank peak of the
// modelled memory budget and the CRC of the resulting file. A refactor of
// the aggregator or its exchanges must leave every pinned value untouched.
// The failure message prints the observed figures in the table's own
// initializer syntax, so a deliberate change to the model can re-pin them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "mpi/runtime.h"
#include "mpiio/file.h"

namespace tcio::io {
namespace {

constexpr Bytes kBlock = 12;  // one etype: the paper's {int32, float64}

/// Everything the oracle pins for one job.
struct Figures {
  SimTime makespan = 0;
  std::int64_t messages = 0;
  Bytes net_bytes = 0;
  std::int64_t fs_writes = 0;
  std::int64_t fs_reads = 0;
  Bytes aggregator_buffer = 0;    // TwoPhaseStats, summed over ranks and calls
  std::int64_t agg_requests = 0;  // TwoPhaseStats::fs_requests, summed
  Bytes mem_peak = 0;             // largest per-rank comm.memory() peak
  std::uint32_t file_crc = 0;
};

/// Prints `f` as the initializer the expectation tables use.
std::string describe(const Figures& f) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{%a, %lld, %lld, %lld, %lld, %lld, %lld, %lld, 0x%08xu}",
                f.makespan, static_cast<long long>(f.messages),
                static_cast<long long>(f.net_bytes),
                static_cast<long long>(f.fs_writes),
                static_cast<long long>(f.fs_reads),
                static_cast<long long>(f.aggregator_buffer),
                static_cast<long long>(f.agg_requests),
                static_cast<long long>(f.mem_peak), f.file_crc);
  return buf;
}

std::byte value(int rank, std::size_t i, int round) {
  return static_cast<std::byte>((rank * 13 + i * 7 + round * 31) % 251 + 1);
}

/// Two rounds of collective write + read through a view that interleaves
/// every rank's `len` blocks after a 5-byte header. Round 1 moves the whole
/// view, round 2 rewrites and reads back its first half (rounded up).
Figures runOracleJob(int P, std::int64_t len, int cb_nodes, bool view_based) {
  fs::FsConfig fcfg;
  fcfg.num_osts = 3;
  fcfg.stripe_size = 2048;
  fcfg.integrity = -1;  // stored-block digests are not under test
  fs::Filesystem fsys(fcfg);
  mpi::JobConfig jc;
  jc.num_ranks = P;
  jc.net.ranks_per_node = 2;
  jc.seed = 23;

  Figures out;
  std::vector<TwoPhaseStats> stats;
  std::vector<Bytes> peaks(static_cast<std::size_t>(P));
  const mpi::JobResult res = mpi::runJob(jc, [&](mpi::Comm& comm) {
    const int r = comm.rank();
    MpioConfig mc;
    mc.cb_nodes = cb_nodes;
    mc.view_based = view_based;
    MpioFile f = MpioFile::open(comm, fsys, "oracle.dat",
                                fs::kRead | fs::kWrite | fs::kCreate, mc);
    auto e = mpi::Datatype::contiguous(kBlock, mpi::Datatype::byte()).commit();
    auto ft = mpi::Datatype::vector(len, 1, P, e).commit();
    f.setView(5 + r * kBlock, e, ft);
    std::vector<TwoPhaseStats> mine;
    for (int round = 0; round < 2; ++round) {
      const std::int64_t blocks = round == 0 ? len : (len + 1) / 2;
      std::vector<std::byte> buf(static_cast<std::size_t>(blocks * kBlock));
      for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = value(r, i, round);
      mine.push_back(
          f.writeAtAll(0, buf.data(), static_cast<Bytes>(buf.size())));
      std::vector<std::byte> got(buf.size());
      mine.push_back(
          f.readAtAll(0, got.data(), static_cast<Bytes>(got.size())));
      EXPECT_EQ(got, buf) << "rank " << r << " round " << round;
    }
    f.close();
    comm.proc().atomic([&] {
      stats.insert(stats.end(), mine.begin(), mine.end());
      peaks[static_cast<std::size_t>(r)] = comm.memory().peak();
    });
  });
  out.makespan = res.makespan;
  out.messages = res.network_messages;
  out.net_bytes = res.network_bytes;
  out.fs_writes = fsys.stats().write_requests;
  out.fs_reads = fsys.stats().read_requests;
  for (const TwoPhaseStats& s : stats) {
    out.aggregator_buffer += s.aggregator_buffer;
    out.agg_requests += s.fs_requests;
  }
  out.mem_peak = *std::max_element(peaks.begin(), peaks.end());
  std::vector<std::byte> contents(
      static_cast<std::size_t>(fsys.peekSize("oracle.dat")));
  fsys.peek("oracle.dat", 0, contents);
  out.file_crc = crc32(contents);
  return out;
}

struct Case {
  int P;
  std::int64_t len;
  int cb_nodes;
  Figures want;
};

/// Exact comparison: %a prints every bit of the makespan, so equal
/// descriptions mean bit-identical figures.
void expectCases(bool view_based, const std::vector<Case>& cases) {
  for (const Case& c : cases) {
    SCOPED_TRACE("P=" + std::to_string(c.P) + " len=" +
                 std::to_string(c.len) + " cb_nodes=" +
                 std::to_string(c.cb_nodes));
    EXPECT_EQ(describe(runOracleJob(c.P, c.len, c.cb_nodes, view_based)),
              describe(c.want));
  }
}

TEST(MpiioCollectiveOracleTest, TwoPhase) {
  expectCases(false, {
      {1, 1, 0,
       {0x1.5df9aaa0a246dp-9, 0, 0, 2, 2, 48, 4, 12, 0x2e877f4cu}},
      {1, 1, 2,
       {0x1.5df9aaa0a246dp-9, 0, 0, 2, 2, 48, 4, 12, 0x2e877f4cu}},
      {1, 7, 0,
       {0x1.5e0571b1cbed7p-9, 0, 0, 2, 2, 264, 4, 84, 0xd97e5208u}},
      {1, 7, 2,
       {0x1.5e0571b1cbed7p-9, 0, 0, 2, 2, 264, 4, 84, 0xd97e5208u}},
      {1, 256, 0,
       {0x1.6d0900eea67a9p-9, 0, 0, 2, 2, 9216, 4, 3072, 0x7bdf9429u}},
      {1, 256, 2,
       {0x1.6d0900eea67a9p-9, 0, 0, 2, 2, 9216, 4, 3072, 0x7bdf9429u}},
      {2, 1, 0,
       {0x1.08451555492a5p-7, 28, 256, 4, 4, 96, 8, 12, 0x698e9f52u}},
      {2, 1, 2,
       {0x1.08451555492a5p-7, 28, 256, 4, 4, 96, 8, 12, 0x698e9f52u}},
      {2, 7, 0,
       {0x1.08c31bb221395p-7, 44, 816, 4, 4, 528, 8, 84, 0x44c70c16u}},
      {2, 7, 2,
       {0x1.08c31bb221395p-7, 44, 816, 4, 4, 528, 8, 84, 0x44c70c16u}},
      {2, 256, 0,
       {0x1.16b7e4bd04a68p-7, 44, 21760, 4, 4, 18432, 8, 3072, 0xb3dfb8e3u}},
      {2, 256, 2,
       {0x1.16b7e4bd04a68p-7, 44, 21760, 4, 4, 18432, 8, 3072, 0xb3dfb8e3u}},
      {5, 1, 0,
       {0x1.31f8900725ec2p-6, 222, 1792, 10, 10, 240, 20, 12, 0x1b385388u}},
      {5, 1, 2,
       {0x1.8686cf7c2d2d6p-7, 254, 2216, 4, 4, 240, 8, 30, 0x1b385388u}},
      {5, 7, 0,
       {0x1.32d14fb90efacp-6, 366, 4256, 10, 10, 1320, 20, 84, 0xca2094e8u}},
      {5, 7, 2,
       {0x1.870af33d66905p-7, 286, 4244, 4, 4, 1320, 8, 210, 0xca2094e8u}},
      {5, 256, 0,
       {0x1.9cd2a4290db5ap-6,
        382, 87584, 10, 10, 46080, 20, 3072, 0x353e118au}},
      {5, 256, 2,
       {0x1.d129624e2c38cp-7, 286, 87808, 4, 4, 46080, 8, 7680, 0x353e118au}},
      {16, 1, 0,
       {0x1.d8523b71006f2p-5, 2168, 17280, 32, 32, 768, 64, 12, 0x7463871cu}},
      {16, 1, 2,
       {0x1.ab271430524c2p-6, 2280, 18848, 4, 4, 768, 8, 96, 0x7463871cu}},
      {16, 7, 0,
       {0x1.d8f58aa569823p-5, 2824, 26464, 32, 32, 4224, 64, 84, 0x854b26f6u}},
      {16, 7, 2,
       {0x1.aba9fda8db6c6p-6, 2408, 26464, 4, 4, 4224, 8, 672, 0x854b26f6u}},
      {16, 256, 0,
       {0x1.5f0112033169ap-4,
        4088, 339840, 32, 32, 147456, 64, 3072, 0xa24a1879u}},
      {16, 256, 2,
       {0x1.261977af1cf79p-5,
        2408, 339840, 4, 4, 147456, 8, 24576, 0xa24a1879u}},
  });
}

TEST(MpiioCollectiveOracleTest, ViewBased) {
  expectCases(true, {
      {1, 1, 0,
       {0x1.5df94f0062c5fp-9, 0, 0, 2, 2, 48, 4, 12, 0x2e877f4cu}},
      {1, 1, 2,
       {0x1.5df94f0062c5fp-9, 0, 0, 2, 2, 48, 4, 12, 0x2e877f4cu}},
      {1, 7, 0,
       {0x1.5e0516118c6cbp-9, 0, 0, 2, 2, 264, 4, 84, 0xd97e5208u}},
      {1, 7, 2,
       {0x1.5e0516118c6cbp-9, 0, 0, 2, 2, 264, 4, 84, 0xd97e5208u}},
      {1, 256, 0,
       {0x1.6d08a54e66f9dp-9, 0, 0, 2, 2, 9216, 4, 3072, 0x7bdf9429u}},
      {1, 256, 2,
       {0x1.6d08a54e66f9dp-9, 0, 0, 2, 2, 9216, 4, 3072, 0x7bdf9429u}},
      {2, 1, 0,
       {0x1.07edd57fb747ap-7, 16, 256, 4, 4, 96, 8, 12, 0x698e9f52u}},
      {2, 1, 2,
       {0x1.07edd57fb747ap-7, 16, 256, 4, 4, 96, 8, 12, 0x698e9f52u}},
      {2, 7, 0,
       {0x1.08299975fcd11p-7, 24, 688, 4, 4, 528, 8, 84, 0x44c70c16u}},
      {2, 7, 2,
       {0x1.08299975fcd11p-7, 24, 688, 4, 4, 528, 8, 84, 0x44c70c16u}},
      {2, 256, 0,
       {0x1.161e959d10776p-7, 24, 17632, 4, 4, 18432, 8, 3072, 0xb3dfb8e3u}},
      {2, 256, 2,
       {0x1.161e959d10776p-7, 24, 17632, 4, 4, 18432, 8, 3072, 0xb3dfb8e3u}},
      {5, 1, 0,
       {0x1.31bdb22f0cd2ap-6, 102, 1792, 10, 10, 240, 20, 12, 0x1b385388u}},
      {5, 1, 2,
       {0x1.858b5e8c750edp-7, 118, 1960, 4, 4, 240, 8, 30, 0x1b385388u}},
      {5, 7, 0,
       {0x1.320f4e36419e3p-6, 174, 4768, 10, 10, 1320, 20, 84, 0xca2094e8u}},
      {5, 7, 2,
       {0x1.85c0be40369bap-7, 134, 4756, 4, 4, 1320, 8, 210, 0xca2094e8u}},
      {5, 256, 0,
       {0x1.9c1ec92d895f8p-6,
        182, 120160, 10, 10, 46080, 20, 3072, 0x353e118au}},
      {5, 256, 2,
       {0x1.f7b19cad90c0bp-7, 134, 120256, 4, 4, 46080, 8, 7680, 0x353e118au}},
      {16, 1, 0,
       {0x1.d7bfbd3cb7957p-5, 728, 17280, 32, 32, 768, 64, 12, 0x7463871cu}},
      {16, 1, 2,
       {0x1.a9d9acb4218e3p-6, 784, 17952, 4, 4, 768, 8, 96, 0x7463871cu}},
      {16, 7, 0,
       {0x1.d85fc6414d49cp-5, 1056, 44256, 32, 32, 4224, 64, 84, 0x854b26f6u}},
      {16, 7, 2,
       {0x1.aaa14dec36dadp-6, 848, 44256, 4, 4, 4224, 8, 672, 0x854b26f6u}},
      {16, 256, 0,
       {0x1.5e753257e9d49p-4,
        1688, 1134720, 32, 32, 147456, 64, 3072, 0xa24a1879u}},
      {16, 256, 2,
       {0x1.2fd7975f3c412p-5,
        848, 1134720, 4, 4, 147456, 8, 24576, 0xa24a1879u}},
  });
}

}  // namespace
}  // namespace tcio::io
