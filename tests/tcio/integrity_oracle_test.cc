// Determinism oracle for the owner-side integrity core (DESIGN.md §11).
//
// Pins exact figures of integrity-on runs that inject no corruption: File
// jobs in every exchange mode, a crash job whose survivors rebuild their
// ledgers from replayed WAL records, and a delegate put stream. A change to
// the ledger, the verify/repair path or the journal append must leave every
// pinned value untouched — the integrity counters, the journal recovery
// counters, each rank's virtual finish time (bit-exact) and the CRC of the
// resulting file. The pinned values predate the shared owner-side ledger
// (src/tcio/ledger.h) and must survive it bit for bit; a deliberate change to
// the model re-pins them from the failure message, which prints the observed
// figures in the table's own initializer syntax.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "delegate/client.h"
#include "delegate/session.h"
#include "fs/filesystem.h"
#include "mpi/runtime.h"
#include "tcio/file.h"

namespace tcio::core {
namespace {

constexpr int kProcs = 6;
constexpr Bytes kSegment = 512;
constexpr std::int64_t kSegsPerRank = 4;
constexpr Bytes kTotal = kSegment * kSegsPerRank * kProcs;
constexpr Bytes kHalf = kTotal / 2;
constexpr Bytes kElem = 32;
constexpr Bytes kBlock = kHalf / kProcs;
constexpr Bytes kChunk = 256;

std::byte value(Offset off, int gen) {
  return static_cast<std::byte>((off * 7 + gen * 29 + off / kSegment) % 251 +
                                1);
}

enum class Mode { kOneSided, kTwoSided, kNodeAgg, kCrashReplay };

/// Everything the oracle pins for one job.
struct Figures {
  std::int64_t crc_checks = 0;         // summed over ranks
  std::int64_t scrub_passes = 0;       // summed over ranks
  std::int64_t segments_scrubbed = 0;  // summed over ranks
  std::int64_t journal_records_replayed = 0;
  Bytes journal_bytes_replayed = 0;
  std::int64_t journal_torn_records = 0;
  std::array<SimTime, kProcs> finish{};  // each rank's virtual time at exit
  std::uint32_t file_crc = 0;
};

/// Prints `f` as the initializer the expectation table uses, so a deliberate
/// change to the model can re-pin the oracle from the failure message.
std::string describe(const Figures& f) {
  char buf[512];
  int n = std::snprintf(
      buf, sizeof(buf), "{%lld, %lld, %lld, %lld, %lld, %lld, {",
      static_cast<long long>(f.crc_checks),
      static_cast<long long>(f.scrub_passes),
      static_cast<long long>(f.segments_scrubbed),
      static_cast<long long>(f.journal_records_replayed),
      static_cast<long long>(f.journal_bytes_replayed),
      static_cast<long long>(f.journal_torn_records));
  for (int r = 0; r < kProcs; ++r) {
    n += std::snprintf(buf + n, sizeof(buf) - static_cast<std::size_t>(n),
                       "%s%a", r == 0 ? "" : ", ",
                       f.finish[static_cast<std::size_t>(r)]);
  }
  std::snprintf(buf + n, sizeof(buf) - static_cast<std::size_t>(n),
                "}, 0x%08xu}", f.file_crc);
  return buf;
}

TcioConfig oracleCfg(Mode mode) {
  TcioConfig cfg;
  cfg.segment_size = kSegment;
  cfg.segments_per_rank = kSegsPerRank;
  cfg.use_onesided = mode != Mode::kTwoSided;
  cfg.node_aggregation = mode == Mode::kNodeAgg;
  cfg.integrity.enabled = 1;
  cfg.faults.seed = 41;
  if (mode == Mode::kCrashReplay) {
    // Rank 2 dies mid-append of its third WAL record: the survivors drop the
    // torn tail, adopt its segments and rebuild their ledgers from replay.
    cfg.crash.enabled = true;
    cfg.faults.crashes.push_back({2, CrashPoint::kMidJournal, /*after=*/2});
  }
  return cfg;
}

/// Interleaved fine-grained writes (strided digest runs), a flush,
/// contiguous blocks, cross-rank overwrites of earlier pieces (ledger
/// eviction), a collective read-back (verify before serve) and the close
/// scrub.
Figures runOracleJob(Mode mode) {
  fs::FsConfig fcfg;
  fcfg.num_osts = 3;
  fcfg.stripe_size = kSegment;
  fcfg.integrity = -1;  // the stored-block domain is not under test
  fs::Filesystem fsys(fcfg);
  mpi::JobConfig jc;
  jc.num_ranks = kProcs;
  jc.net.ranks_per_node = 3;
  jc.seed = 41;
  const TcioConfig cfg = oracleCfg(mode);

  Figures out;
  std::array<TcioStats, kProcs> stats{};
  mpi::runJob(jc, [&](mpi::Comm& comm) {
    const int r = comm.rank();
    File f(comm, fsys, "oracle.dat", fs::kRead | fs::kWrite | fs::kCreate,
           cfg);
    try {
      std::vector<std::byte> buf(static_cast<std::size_t>(kChunk));
      const auto put = [&](Offset off, Bytes n, int gen) {
        for (Bytes i = 0; i < n; ++i) {
          buf[static_cast<std::size_t>(i)] = value(off + i, gen);
        }
        f.writeAt(off, buf.data(), n);
      };
      for (Offset i = r; i * kElem < kHalf; i += kProcs) {
        put(i * kElem, kElem, 0);
      }
      f.flush();
      for (Offset off = kHalf + r * kBlock; off < kHalf + (r + 1) * kBlock;
           off += kChunk) {
        put(off, kChunk, 0);
      }
      // Rewrite the right neighbour's pieces of the first four segments.
      for (Offset i = (r + 1) % kProcs; i * kElem < 4 * kSegment;
           i += kProcs) {
        put(i * kElem, kElem, 1);
      }
      f.flush();
      std::vector<std::byte> head(static_cast<std::size_t>(4 * kSegment));
      std::vector<std::byte> block(static_cast<std::size_t>(kBlock));
      const Offset peer = kHalf + ((r + 2) % kProcs) * kBlock;
      f.readAt(0, head.data(), static_cast<Bytes>(head.size()));
      f.readAt(peer, block.data(), kBlock);
      f.fetch();
      if (mode != Mode::kCrashReplay) {
        for (Offset off = 0; off < 4 * kSegment; ++off) {
          ASSERT_EQ(head[static_cast<std::size_t>(off)],
                    value(off, 1))
              << "byte " << off;
        }
        for (Bytes i = 0; i < kBlock; ++i) {
          ASSERT_EQ(block[static_cast<std::size_t>(i)], value(peer + i, 0));
        }
      }
      f.close();
    } catch (const std::exception& e) {
      // Only the scheduled victim of the crash job may leave early.
      EXPECT_TRUE(mode == Mode::kCrashReplay && r == 2) << e.what();
    }
    stats[static_cast<std::size_t>(r)] = f.stats();
    out.finish[static_cast<std::size_t>(r)] = comm.proc().now();
  });
  for (const TcioStats& s : stats) {
    out.crc_checks += s.integrity.crc_checks;
    out.scrub_passes += s.integrity.scrub_passes;
    out.segments_scrubbed += s.integrity.segments_scrubbed;
    out.journal_records_replayed += s.degraded.journal_records_replayed;
    out.journal_bytes_replayed += s.degraded.journal_bytes_replayed;
    out.journal_torn_records += s.degraded.journal_torn_records;
  }
  std::vector<std::byte> contents(
      static_cast<std::size_t>(fsys.peekSize("oracle.dat")));
  fsys.peek("oracle.dat", 0, contents);
  out.file_crc = crc32(contents);
  return out;
}

/// Exact comparison: %a prints every bit of each finish time, so equal
/// descriptions mean bit-identical figures.
void expectFigures(const Figures& got, const Figures& want) {
  EXPECT_EQ(describe(got), describe(want));
}

TEST(IntegrityOracleTest, OneSided) {
  expectFigures(runOracleJob(Mode::kOneSided),
                {276, 24, 60, 0, 0, 0,
                 {0x1.08cdc36e48442p-5, 0x1.08cdc36e48442p-5,
                  0x1.08cced012a0dcp-5, 0x1.08d2974ad38bfp-5,
                  0x1.08d11f0d9b964p-5, 0x1.08d11f0d9b964p-5},
                 0x29b9bc08u});
}

TEST(IntegrityOracleTest, TwoSided) {
  expectFigures(runOracleJob(Mode::kTwoSided),
                {544, 24, 60, 0, 0, 0,
                 {0x1.07527fc2b3fecp-5, 0x1.07527fc2b3fecp-5,
                  0x1.0751a95595c86p-5, 0x1.0757539f3f469p-5,
                  0x1.0755db620750ep-5, 0x1.0755db620750ep-5},
                 0x29b9bc08u});
}

TEST(IntegrityOracleTest, NodeAggregation) {
  expectFigures(runOracleJob(Mode::kNodeAgg),
                {652, 24, 60, 0, 0, 0,
                 {0x1.08c4336740971p-5, 0x1.08c4336740971p-5,
                  0x1.08c35cfa2260bp-5, 0x1.08c90743cbdeep-5,
                  0x1.08c78f0693e93p-5, 0x1.08c78f0693e93p-5},
                 0x29b9bc08u});
}

TEST(IntegrityOracleTest, CrashReplayRebuildsLedgers) {
  expectFigures(runOracleJob(Mode::kCrashReplay),
                {210, 20, 50, 26, 832, 4,
                 {0x1.2d95ada6c39a3p-1, 0x1.2d74e90b1db6ep-1,
                  0x1.90855c9458dadp-7, 0x1.2d1283eec1e93p-1,
                  0x1.2d33488a67cc8p-1, 0x1.2db65af8ff59ep-1},
                 0xd025b042u});
}

}  // namespace
}  // namespace tcio::core

namespace tcio::delegate {
namespace {

constexpr Bytes kSegment = 512;

std::vector<std::byte> pieceBytes(int client, Offset off, Bytes n) {
  std::vector<std::byte> v(static_cast<std::size_t>(n));
  for (Bytes i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] =
        static_cast<std::byte>((client * 37 + (off + i) * 11) % 251 + 1);
  }
  return v;
}

TEST(IntegrityOracleTest, DelegateFineGrainedPutsCrcChecks) {
  // The FineGrainedPutsCoalesceIntoLedgerRuns shape without its corruption:
  // per client, eight adjacent pieces (one contiguous run), a read-back, then
  // three equal pieces at a constant stride. No write overlaps another, so
  // the ledger's eviction rule cannot move the count.
  fs::FsConfig fcfg;
  fcfg.num_osts = 4;
  fcfg.stripe_size = 1024;
  fcfg.integrity = -1;
  fs::Filesystem fsys(fcfg);
  mpi::JobConfig jc;
  jc.num_ranks = 6;
  jc.seed = 17;
  core::TcioConfig cfg;
  cfg.segment_size = kSegment;
  cfg.segments_per_rank = 8;
  cfg.delegate_ranks = 2;
  cfg.integrity.enabled = 1;
  cfg.faults.seed = 17;
  constexpr int kPieces = 8;
  constexpr Bytes kPiece = kSegment / kPieces;
  core::TcioDelegateStats stats;
  mpi::runJob(jc, [&](mpi::Comm& comm) {
    Session session(comm, fsys, cfg);
    core::TcioDelegateStats merged;
    if (session.isDelegate()) {
      session.serve();
    } else {
      Channel ch(session);
      const int c = session.clientComm().rank();
      DFile f(ch, "oracle_runs.dat", fs::kRead | fs::kWrite | fs::kCreate);
      const Offset base = static_cast<Offset>(c) * kSegment;
      for (int i = 0; i < kPieces; ++i) {
        const Offset off = base + static_cast<Offset>(i) * kPiece;
        f.writeAt(off, pieceBytes(c, off, kPiece));
      }
      f.flush();
      std::vector<std::byte> back(static_cast<std::size_t>(kSegment));
      f.readAt(base, back);
      const Offset base2 = static_cast<Offset>(4 + c) * kSegment;
      for (int i = 0; i < 3; ++i) {
        const Offset off = base2 + static_cast<Offset>(i) * 2 * kPiece;
        f.writeAt(off, pieceBytes(c, off, kPiece));
      }
      f.close();
      merged = session.finish();
    }
    comm.barrier();
    comm.bcast(&merged, sizeof(merged), /*root=*/session.numDelegates());
    stats = merged;
  });
  EXPECT_EQ(stats.crc_checks, 56);
  EXPECT_EQ(stats.crc_mismatches, 0);
}

}  // namespace
}  // namespace tcio::delegate
