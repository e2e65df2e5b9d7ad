// Determinism oracle for the ART checkpoint's node-aggregated TCIO path.
//
// Pins exact figures of integrity-on dump + verified restart jobs through
// TCIO with node aggregation: the job makespan and the latest dump finish
// time (bit-exact), the network and file-system counters, the leader
// exchange's counters (NodeAggStats), the integrity counters and the CRC of
// the checkpoint file. Engine events are left out: the runtime checker
// (TCIO_CHECK=1) adds its own. One grid moves every stream in a single
// staging round, one uses segments small enough that streams take several
// rounds, and one flips a bit in a rank's staging frame. The restart's
// fetches take the one-sided gather: node aggregation covers writes only.
// A change to the host side of the exchange (buffer layout, the rewrite,
// the slot header) must leave every pinned value untouched. A deliberate
// change to the model re-pins them from the failure message, which prints
// the observed figures in the table's own initializer syntax.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "art/checkpoint.h"
#include "common/crc32.h"
#include "mpi/runtime.h"
#include "tcio/file.h"

namespace tcio::art {
namespace {

constexpr std::int64_t kTrees = 96;
constexpr int kRanksPerNode = 12;
constexpr std::uint64_t kSeed = 23;
const char* const kFile = "oracle.chk";

/// Counters, in this order: network messages, bytes,
/// intra-node messages, intra-node bytes, inter-node payload messages,
/// inter-node control messages; FS write requests, read requests, bytes
/// written, bytes read, opens, journal writes, journal bytes, lock
/// revocations; NodeAggStats
/// exchanges, internode_puts, rounds, intranode_bytes, internode_bytes;
/// TcioStats node_exchanges, intranode_bytes, internode_messages_saved;
/// TcioIntegrityStats crc_checks, crc_mismatches, repaired, unrepairable,
/// scrub_passes, segments_scrubbed; ranks whose dump threw, ranks whose
/// restart threw. Per-rank counters are summed over ranks and over the
/// dump's and the restart's file.
constexpr std::size_t kCounters = 30;

struct Figures {
  SimTime makespan = 0;
  SimTime dump_end = 0;  // latest rank clock when dumpCheckpoint returned
  std::array<std::int64_t, kCounters> counters{};
  std::uint32_t file_crc = 0;
};

/// Prints `f` as the initializer the expectation table uses.
std::string describe(const Figures& f) {
  std::string s;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "{%a, %a, {", f.makespan, f.dump_end);
  s += buf;
  for (std::size_t i = 0; i < kCounters; ++i) {
    std::snprintf(buf, sizeof(buf), "%s%lld", i == 0 ? "" : ", ",
                  static_cast<long long>(f.counters[i]));
    s += buf;
  }
  std::snprintf(buf, sizeof(buf), "}, 0x%08xu}", f.file_crc);
  return s + buf;
}

struct Grid {
  int procs = 24;
  Bytes segment = 16_KiB;
  Rank corrupt_rank = -1;  // >= 0: flip a bit in this rank's staging frame
};

Figures runOracleJob(const Grid& grid) {
  fs::FsConfig fcfg;
  fcfg.num_osts = 4;
  fcfg.stripe_size = 4096;
  fcfg.integrity = -1;  // the stored-block domain is not under test
  fs::Filesystem fsys(fcfg);
  mpi::JobConfig jc;
  jc.num_ranks = grid.procs;
  jc.net.ranks_per_node = kRanksPerNode;
  jc.seed = kSeed;
  CheckpointConfig cfg;
  cfg.backend = Backend::kTcio;
  cfg.tcio.segment_size = grid.segment;
  cfg.tcio.node_aggregation = true;
  cfg.tcio.integrity.enabled = 1;
  cfg.tcio.delegate_ranks = -1;
  cfg.tcio.faults.seed = kSeed;
  if (grid.corrupt_rank >= 0) {
    cfg.tcio.faults.corruptions.push_back(
        {grid.corrupt_rank, CorruptSite::kStagingFrame, /*after=*/0});
  }

  Figures out;
  std::int64_t* c = out.counters.data();
  cfg.on_tcio_close = [c](const core::File& f) {
    const topo::NodeAggStats* agg = f.nodeAggStats();
    ASSERT_NE(agg, nullptr);
    c[14] += agg->exchanges;
    c[15] += agg->internode_puts;
    c[16] += agg->rounds;
    c[17] += agg->intranode_bytes;
    c[18] += agg->internode_bytes;
    const core::TcioStats& s = f.stats();
    c[19] += s.node_exchanges;
    c[20] += s.intranode_bytes;
    c[21] += s.internode_messages_saved;
    c[22] += s.integrity.crc_checks;
    c[23] += s.integrity.crc_mismatches;
    c[24] += s.integrity.repaired;
    c[25] += s.integrity.unrepairable;
    c[26] += s.integrity.scrub_passes;
    c[27] += s.integrity.segments_scrubbed;
  };
  int finished = 0;
  const mpi::JobResult res =
      mpi::runJob(jc, [&](mpi::Comm& comm, mpi::World& world) {
        std::vector<FttTree> mine;
        for (std::int64_t id : treesOfRank(kTrees, comm.rank(), comm.size())) {
          mine.push_back(generateTreeWithCells(kSeed, id, /*num_vars=*/2,
                                               160 + (id * 37) % 97));
        }
        bool dumped = true;
        try {
          dumpCheckpoint(comm, fsys, kFile, mine, kTrees, cfg);
        } catch (const IntegrityError&) {
          ++c[28];
          dumped = false;
        }
        out.dump_end = std::max(out.dump_end, comm.proc().now());
        if (dumped) {
          try {
            const std::vector<FttTree> loaded =
                loadCheckpoint(comm, fsys, kFile, cfg);
            ASSERT_EQ(loaded.size(), mine.size());
            for (std::size_t i = 0; i < mine.size(); ++i) {
              EXPECT_EQ(loaded[i], mine[i]) << "rank " << comm.rank();
            }
          } catch (const Error&) {
            ++c[29];
          }
        }
        // The last rank to finish sees every message the job sent.
        if (++finished == comm.size()) {
          const net::Network& n = world.network();
          c[2] = n.intranodeMessageCount();
          c[3] = n.intranodeBytes();
          c[4] = n.internodePayloadMessages();
          c[5] = n.internodeControlMessages();
        }
      });
  out.makespan = res.makespan;
  c[0] = res.network_messages;
  c[1] = res.network_bytes;
  const fs::FsStats fst = fsys.stats();
  c[6] = fst.write_requests;
  c[7] = fst.read_requests;
  c[8] = fst.bytes_written;
  c[9] = fst.bytes_read;
  c[10] = fst.opens;
  c[11] = fst.journal_writes;
  c[12] = fst.journal_bytes;
  c[13] = fst.lock_revocations;
  std::vector<std::byte> contents(
      static_cast<std::size_t>(fsys.peekSize(kFile)));
  fsys.peek(kFile, 0, contents);
  out.file_crc = crc32(contents);
  return out;
}

/// Exact comparison: %a prints every bit of each time, so equal
/// descriptions mean bit-identical figures.
void expectFigures(const Figures& got, const Figures& want) {
  EXPECT_EQ(describe(got), describe(want));
}

TEST(ArtCheckpointOracleTest, TwoNodesOneRoundPerExchange) {
  // Every exchange takes one staging round (rounds == exchanges).
  expectFigures(
      runOracleJob({24, 16_KiB, -1}),
      {0x1.0a0e70a112e92p-3, 0x1.7b6a9db312f0dp-4,
       {5699, 1579682, 3981, 1103314, 626, 1092, 26, 26, 414224, 414224, 96,
        121, 419064, 0, 24, 2, 24, 381816, 218448, 24, 796040, 62, 275, 0, 0,
        0, 96, 26, 0, 0},
       0x49c31f50u});
}

TEST(ArtCheckpointOracleTest, ThreeNodesMultiRoundStaging) {
  // 1 KiB segments give 16 KiB slots: streams move in several rounds
  // (144 rounds over 36 exchanges, all in the dump; the read-only restart
  // runs none).
  expectFigures(
      runOracleJob({36, 1_KiB, -1}),
      {0x1.34a4899b2c8d4p-1, 0x1.d9eb270a05428p-2,
       {13952, 1777253, 8017, 1113413, 2083, 3852, 405, 405, 414224, 414224,
        144, 500, 434224, 404, 36, 19, 144, 390144, 289728, 36, 804368, 324,
        1412, 0, 0, 0, 144, 405, 0, 0},
       0x49c31f50u});
}

TEST(ArtCheckpointOracleTest, StagingFrameCorruption) {
  // Rank 5's first level-1 flush carries a flipped bit. The source leader's
  // hop check counts it and the owner's close scrub finds it and repairs it
  // from the writers' journals: every scrub precedes the close barrier, and
  // no journal is truncated before it. The file matches the clean job's CRC
  // and the restart verifies. The repair's journal reads are the only extra
  // FS traffic (24 opens and reads).
  expectFigures(
      runOracleJob({24, 16_KiB, 5}),
      {0x1.6f43207d4d3dp-3, 0x1.22e9feb5c3ef7p-3,
       {5699, 1579682, 3981, 1103314, 626, 1092, 26, 50, 414224, 833288, 120,
        121, 419064, 0, 24, 2, 24, 381816, 218448, 24, 796040, 62, 275, 1, 1,
        0, 96, 26, 0, 0},
       0x49c31f50u});
}

}  // namespace
}  // namespace tcio::art
