// Silent-corruption matrix: seeded bit-flips at every checksum-domain site
// (DESIGN.md §11) under every exchange mode, plus the delegate server.
//
// Every leg must show
//   (a) detection — no seeded flip ever reaches a user read buffer or the
//       store unverified: crc_mismatches > 0 on the corrupt run,
//   (b) repair — repairable cases end byte-identical to the clean reference
//       (WAL replay, client re-stage, or OST replica read-repair), and
//   (c) surfacing — unrepairable cases raise a typed IntegrityError through
//       the collective agreement instead of propagating bytes.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/env.h"
#include "common/error.h"
#include "delegate/client.h"
#include "delegate/session.h"
#include "fs/filesystem.h"
#include "mpi/agreement.h"
#include "mpi/runtime.h"
#include "tcio/file.h"

namespace tcio::core {
namespace {

constexpr int kProcs = 6;
constexpr Rank kVictim = 2;
constexpr Bytes kSegment = 512;
constexpr std::int64_t kSegsPerRank = 4;
constexpr Bytes kPerRank = kSegment * kSegsPerRank;
constexpr Bytes kTotal = kPerRank * kProcs;
constexpr Bytes kChunk = 256;

std::byte expected(Offset off) {
  return static_cast<std::byte>((off * 13 + off / kSegment) % 251 + 1);
}

std::vector<std::byte> referenceFile() {
  std::vector<std::byte> ref(static_cast<std::size_t>(kTotal));
  for (Offset off = 0; off < kTotal; ++off) {
    ref[static_cast<std::size_t>(off)] = expected(off);
  }
  return ref;
}

enum class Mode { kOneSided, kTwoSided, kNodeAgg };

/// Integrity counters summed over the ranks of one run.
struct Counts {
  std::int64_t crc_checks = 0;
  std::int64_t crc_mismatches = 0;
  std::int64_t repaired = 0;
  std::int64_t unrepairable = 0;
};

struct IntegrityParam {
  CorruptSite site;
  Mode mode;
  Counts corrupt{};  // pinned at the default fault seed
  Counts clean{};
};

const char* modeSuffix(Mode mode) {
  switch (mode) {
    case Mode::kOneSided: return "_onesided";
    case Mode::kTwoSided: return "_twosided";
    case Mode::kNodeAgg: return "_nodeagg";
  }
  return "";
}

std::string paramName(const ::testing::TestParamInfo<IntegrityParam>& info) {
  const char* s = "";
  switch (info.param.site) {
    case CorruptSite::kStagingFrame: s = "staging_frame"; break;
    case CorruptSite::kWindow: s = "window"; break;
    case CorruptSite::kStoredBlock: s = "stored_block"; break;
    case CorruptSite::kJournalBody: s = "journal_body"; break;
  }
  return std::string(s) + modeSuffix(info.param.mode);
}

// gtest_discover_tests folds the printed parameter into the ctest name, so
// print the case name rather than the struct's bytes.
void PrintTo(const IntegrityParam& p, std::ostream* os) {
  *os << paramName({p, 0});
}

TcioConfig integrityCfg(Mode mode, std::uint64_t seed) {
  TcioConfig cfg;
  cfg.segment_size = kSegment;
  cfg.segments_per_rank = kSegsPerRank;
  cfg.use_onesided = mode != Mode::kTwoSided;
  cfg.lazy_reads = true;
  cfg.node_aggregation = mode == Mode::kNodeAgg;
  cfg.integrity.enabled = 1;  // pinned on regardless of TCIO_INTEGRITY
  cfg.faults.seed = seed;
  return cfg;
}

struct RunResult {
  std::array<std::int32_t, kProcs> outcome{};  // CapturedError codes
  std::vector<std::byte> contents;
  TcioIntegrityStats integrity{};  // summed over ranks
};

/// Writes the reference pattern (two rounds, with a flush between them when
/// `mid_job_flush`) and sums the integrity counters over the ranks.
RunResult runWrite(const TcioConfig& cfg, std::uint64_t seed,
                   bool mid_job_flush = true) {
  fs::FsConfig fcfg;
  fcfg.num_osts = 3;
  fcfg.stripe_size = kSegment;
  fs::Filesystem fsys(fcfg);

  mpi::JobConfig jc;
  jc.num_ranks = kProcs;
  jc.net.ranks_per_node = 3;
  jc.seed = seed;

  RunResult res;
  std::array<TcioIntegrityStats, kProcs> per_rank{};
  mpi::runJob(jc, [&](mpi::Comm& comm) {
    const int r = comm.rank();
    mpi::CapturedError err;
    File f(comm, fsys, "integ.dat", fs::kWrite | fs::kCreate, cfg);
    try {
      const Offset begin = r * kPerRank;
      std::vector<std::byte> buf(static_cast<std::size_t>(kChunk));
      auto writeRange = [&](Offset lo, Offset hi) {
        for (Offset cur = lo; cur < hi; cur += kChunk) {
          for (Bytes i = 0; i < kChunk; ++i) {
            buf[static_cast<std::size_t>(i)] = expected(cur + i);
          }
          f.writeAt(cur, buf.data(), kChunk);
        }
      };
      writeRange(begin, begin + kPerRank / 2);
      if (mid_job_flush) f.flush();
      writeRange(begin + kPerRank / 2, begin + kPerRank);
      f.close();
    } catch (const std::exception& e) {
      err.capture(e);
    }
    res.outcome[static_cast<std::size_t>(r)] = err.code;
    per_rank[static_cast<std::size_t>(r)] = f.stats().integrity;
  });
  for (const TcioIntegrityStats& s : per_rank) {
    res.integrity.crc_checks += s.crc_checks;
    res.integrity.crc_mismatches += s.crc_mismatches;
    res.integrity.repaired += s.repaired;
    res.integrity.unrepairable += s.unrepairable;
    res.integrity.scrub_passes += s.scrub_passes;
    res.integrity.segments_scrubbed += s.segments_scrubbed;
  }
  res.contents.resize(static_cast<std::size_t>(fsys.peekSize("integ.dat")));
  fsys.peek("integ.dat", 0, res.contents);
  return res;
}

// -- In-memory sites (staging frame, window) across every exchange mode -------

constexpr std::uint64_t kPinnedSeed = 29;

void expectCounts(const TcioIntegrityStats& got, const Counts& want,
                  const char* run) {
  EXPECT_EQ(got.crc_checks, want.crc_checks) << run;
  EXPECT_EQ(got.crc_mismatches, want.crc_mismatches) << run;
  EXPECT_EQ(got.repaired, want.repaired) << run;
  EXPECT_EQ(got.unrepairable, want.unrepairable) << run;
}

/// Flips `site` on rank `victim`, then checks detection, repair and byte
/// parity against a clean run of the same job. `mid_job_flush` false leaves
/// no flush (and no fetch) before close, so the close-time scrub is the first
/// check that can see the flip, and its repair must still find every writer's
/// journal. With `pinned`, the counters of both runs at the default seed must
/// equal it exactly: which hop first sees a flip, and how many checks run,
/// do not depend on where each CRC is taken.
void expectDetectsRepairsAndMatchesCleanRun(
    CorruptSite site, Mode mode, Rank victim, bool mid_job_flush,
    const IntegrityParam* pinned = nullptr) {
  // Seed is sweepable so scripts/ci_fault_soak.sh's corruption leg covers a
  // fresh flip target (offset, bit) every iteration.
  const auto seed = static_cast<std::uint64_t>(
      envInt64("TCIO_FAULT_SEED", static_cast<std::int64_t>(kPinnedSeed)));

  TcioConfig corrupt_cfg = integrityCfg(mode, seed);
  corrupt_cfg.faults.corruptions.push_back({victim, site, /*after=*/0});
  const RunResult corrupt = runWrite(corrupt_cfg, seed, mid_job_flush);

  const RunResult clean =
      runWrite(integrityCfg(mode, seed), seed, mid_job_flush);

  // The flip was detected and repaired before the drain; nobody errored.
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_EQ(corrupt.outcome[static_cast<std::size_t>(r)], 0) << "rank " << r;
    EXPECT_EQ(clean.outcome[static_cast<std::size_t>(r)], 0) << "rank " << r;
  }
  EXPECT_GE(corrupt.integrity.crc_mismatches, 1);
  EXPECT_GE(corrupt.integrity.repaired, 1);
  EXPECT_EQ(corrupt.integrity.unrepairable, 0);
  // The clean run verifies the same domains and finds nothing.
  EXPECT_GT(clean.integrity.crc_checks, 0);
  EXPECT_EQ(clean.integrity.crc_mismatches, 0);
  EXPECT_GT(clean.integrity.scrub_passes, 0);
  // Byte parity: the repaired file equals the reference (and the clean run).
  const std::vector<std::byte> ref = referenceFile();
  EXPECT_EQ(corrupt.contents, ref);
  EXPECT_EQ(clean.contents, ref);
  if (pinned != nullptr && seed == kPinnedSeed) {
    expectCounts(corrupt.integrity, pinned->corrupt, "corrupt run");
    expectCounts(clean.integrity, pinned->clean, "clean run");
  }
}

class TcioIntegrityMatrixTest
    : public ::testing::TestWithParam<IntegrityParam> {};

INSTANTIATE_TEST_SUITE_P(
    Matrix, TcioIntegrityMatrixTest,
    ::testing::Values(
        // {crc_checks, crc_mismatches, repaired, unrepairable}: corrupt run,
        // then clean run. Only the owner ledger sees either flip: the hop
        // digests are taken after the staging-frame flip, and the window
        // flip lands after every hop.
        IntegrityParam{CorruptSite::kStagingFrame, Mode::kOneSided,
                       {30, 1, 1, 0}, {30, 0, 0, 0}},
        IntegrityParam{CorruptSite::kStagingFrame, Mode::kTwoSided,
                       {54, 1, 1, 0}, {54, 0, 0, 0}},
        IntegrityParam{CorruptSite::kStagingFrame, Mode::kNodeAgg,
                       {78, 1, 1, 0}, {78, 0, 0, 0}},
        IntegrityParam{CorruptSite::kWindow, Mode::kOneSided,
                       {30, 1, 1, 0}, {30, 0, 0, 0}},
        IntegrityParam{CorruptSite::kWindow, Mode::kTwoSided,
                       {54, 1, 1, 0}, {54, 0, 0, 0}},
        IntegrityParam{CorruptSite::kWindow, Mode::kNodeAgg,
                       {78, 1, 1, 0}, {78, 0, 0, 0}}),
    paramName);

TEST_P(TcioIntegrityMatrixTest, DetectsRepairsAndMatchesCleanRun) {
  const IntegrityParam p = GetParam();
  expectDetectsRepairsAndMatchesCleanRun(p.site, p.mode, kVictim,
                                         /*mid_job_flush=*/true, &p);
}

// -- Close-only repair: the close-time scrub is the first check -------------
//
// Rank 3's staging frame flips and nothing flushes before close. The owner's
// close-time repair reads rank 3's journal after rank 3 has drained, so it
// succeeds only if no rank truncates its journal (close's commit) before every
// scrub is done.

std::string closeOnlyName(Mode mode) {
  return std::string("staging_frame") + modeSuffix(mode) + "_victim3";
}

// As for IntegrityParam: the ctest name gets the case name.
void PrintTo(Mode mode, std::ostream* os) { *os << closeOnlyName(mode); }

class TcioIntegrityCloseOnlyTest : public ::testing::TestWithParam<Mode> {};

INSTANTIATE_TEST_SUITE_P(
    Matrix, TcioIntegrityCloseOnlyTest,
    ::testing::Values(Mode::kOneSided, Mode::kTwoSided, Mode::kNodeAgg),
    [](const ::testing::TestParamInfo<Mode>& info) {
      return closeOnlyName(info.param);
    });

TEST_P(TcioIntegrityCloseOnlyTest, DetectsRepairsAndMatchesCleanRun) {
  expectDetectsRepairsAndMatchesCleanRun(CorruptSite::kStagingFrame,
                                         GetParam(), /*victim=*/3,
                                         /*mid_job_flush=*/false);
}

TEST(TcioIntegrityDeterminismTest, SameSeedSameDetectionAndRepair) {
  const auto seed =
      static_cast<std::uint64_t>(envInt64("TCIO_FAULT_SEED", 31));
  TcioConfig cfg = integrityCfg(Mode::kOneSided, seed);
  cfg.faults.corruptions.push_back(
      {kVictim, CorruptSite::kStagingFrame, /*after=*/0});
  const RunResult a = runWrite(cfg, seed);
  const RunResult b = runWrite(cfg, seed);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(crc32(a.contents), crc32(b.contents));
  EXPECT_EQ(a.integrity.crc_checks, b.integrity.crc_checks);
  EXPECT_EQ(a.integrity.crc_mismatches, b.integrity.crc_mismatches);
  EXPECT_EQ(a.integrity.repaired, b.integrity.repaired);
  EXPECT_EQ(a.integrity.segments_scrubbed, b.integrity.segments_scrubbed);
}

// -- Stored-block site: OST replica read-repair and the no-replica case -------

/// Writes the reference file with a kStoredBlock flip armed, then reads it
/// back through a second collective job. Returns the read outcomes.
std::array<std::int32_t, kProcs> storedBlockRoundTrip(
    fs::Filesystem& fsys, bool expect_clean_bytes) {
  mpi::JobConfig jc;
  jc.num_ranks = kProcs;
  jc.net.ranks_per_node = 3;
  jc.seed = 7;

  TcioConfig wcfg = integrityCfg(Mode::kOneSided, /*seed=*/7);
  wcfg.faults.enabled = true;  // installs the plan into the shared FS
  wcfg.faults.corruptions.push_back(
      {/*rank=*/-1, CorruptSite::kStoredBlock, /*after=*/0});
  mpi::runJob(jc, [&](mpi::Comm& comm) {
    const int r = comm.rank();
    File f(comm, fsys, "stored.dat", fs::kWrite | fs::kCreate, wcfg);
    std::vector<std::byte> buf(static_cast<std::size_t>(kChunk));
    for (Offset cur = r * kPerRank; cur < (r + 1) * kPerRank; cur += kChunk) {
      for (Bytes i = 0; i < kChunk; ++i) {
        buf[static_cast<std::size_t>(i)] = expected(cur + i);
      }
      f.writeAt(cur, buf.data(), kChunk);
    }
    f.close();
  });
  EXPECT_GE(fsys.stats().corruptions_injected, 1);

  std::array<std::int32_t, kProcs> outcome{};
  const TcioConfig rcfg = integrityCfg(Mode::kOneSided, /*seed=*/7);
  mpi::runJob(jc, [&](mpi::Comm& comm) {
    const int r = comm.rank();
    mpi::CapturedError err;
    File f(comm, fsys, "stored.dat", fs::kRead, rcfg);
    try {
      std::vector<std::byte> got(static_cast<std::size_t>(kPerRank));
      f.readAt(r * kPerRank, got.data(), kPerRank);
      f.fetch();
      if (expect_clean_bytes) {
        for (Offset i = 0; i < kPerRank; ++i) {
          ASSERT_EQ(got[static_cast<std::size_t>(i)],
                    expected(r * kPerRank + i))
              << "byte " << r * kPerRank + i;
        }
      }
      f.close();
    } catch (const std::exception& e) {
      err.capture(e);
    }
    outcome[static_cast<std::size_t>(r)] = err.code;
  });
  return outcome;
}

TEST(TcioStoredBlockTest, ReplicaReadRepairHealsThePrimary) {
  fs::FsConfig fcfg;
  fcfg.num_osts = 3;
  fcfg.stripe_size = kSegment;
  fcfg.integrity = 1;  // stored-block checksum domain pinned on
  // One page per segment write: a later partial-page write would re-digest
  // (and re-replicate) the already-flipped page, laundering the corruption
  // before any verified read — exactly what RMW does on real checksummed
  // stores, but not what this leg is probing.
  fcfg.page_size = kSegment;
  fs::Filesystem fsys(fcfg);
  const auto outcome = storedBlockRoundTrip(fsys, /*expect_clean_bytes=*/true);
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_EQ(outcome[static_cast<std::size_t>(r)], 0) << "rank " << r;
  }
  EXPECT_GE(fsys.stats().integrity_page_mismatches, 1);
  EXPECT_GE(fsys.stats().integrity_pages_repaired, 1);
}

TEST(TcioStoredBlockTest, NoReplicaSurfacesTypedIntegrityError) {
  fs::FsConfig fcfg;
  fcfg.num_osts = 3;
  fcfg.stripe_size = kSegment;
  fcfg.integrity = 1;
  fcfg.integrity_replicas = false;  // corruption is detectable, not healable
  fcfg.page_size = kSegment;        // see ReplicaReadRepairHealsThePrimary
  fs::Filesystem fsys(fcfg);
  const auto outcome =
      storedBlockRoundTrip(fsys, /*expect_clean_bytes=*/false);
  // Collective agreement: every rank sees the same typed IntegrityError.
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_EQ(outcome[static_cast<std::size_t>(r)],
              mpi::CapturedError::kIntegrity)
        << "rank " << r;
  }
  EXPECT_GE(fsys.stats().integrity_page_mismatches, 1);
  EXPECT_EQ(fsys.stats().integrity_pages_repaired, 0);
}

// -- Journal-body site: corrupt committed WAL records under a real crash ------

TEST(TcioJournalBodyTest, CorruptReplayRecordsAreDroppedAndCounted) {
  fs::FsConfig fcfg;
  fcfg.num_osts = 3;
  fcfg.stripe_size = kSegment;
  fs::Filesystem fsys(fcfg);

  mpi::JobConfig jc;
  jc.num_ranks = kProcs;
  jc.net.ranks_per_node = 3;
  jc.seed = 13;

  TcioConfig cfg;
  cfg.segment_size = kSegment;
  cfg.segments_per_rank = kSegsPerRank;
  cfg.crash.enabled = true;
  cfg.faults.enabled = true;
  cfg.faults.seed = 13;
  // The victim dies entering close; its round-1 WAL records are the only
  // repair source for its flushed bytes. Corrupt every early journal append
  // (victim records included) — replay must drop them, count the loss, and
  // never apply a mangled payload.
  cfg.faults.crashes.push_back(
      {kVictim, CrashPoint::kAtCollective, /*after=*/1});
  for (std::int64_t i = 0; i < 16; ++i) {
    cfg.faults.corruptions.push_back(
        {/*rank=*/-1, CorruptSite::kJournalBody, i});
  }

  std::array<std::int32_t, kProcs> outcome{};
  std::int64_t lost = 0;
  std::int64_t replayed = 0;
  mpi::runJob(jc, [&](mpi::Comm& comm) {
    const int r = comm.rank();
    mpi::CapturedError err;
    File f(comm, fsys, "walflip.dat", fs::kWrite | fs::kCreate, cfg);
    try {
      const Offset begin = r * kPerRank;
      std::vector<std::byte> buf(static_cast<std::size_t>(kChunk));
      auto writeRange = [&](Offset lo, Offset hi) {
        for (Offset cur = lo; cur < hi; cur += kChunk) {
          for (Bytes i = 0; i < kChunk; ++i) {
            buf[static_cast<std::size_t>(i)] = expected(cur + i);
          }
          f.writeAt(cur, buf.data(), kChunk);
        }
      };
      writeRange(begin, begin + kPerRank / 2);
      f.flush();
      writeRange(begin + kPerRank / 2, begin + kPerRank);
      f.close();
    } catch (const std::exception& e) {
      err.capture(e);
    }
    outcome[static_cast<std::size_t>(r)] = err.code;
    if (r != kVictim) {
      lost += f.stats().degraded.unjournaled_segments_lost;
      replayed += f.stats().degraded.journal_records_replayed;
    }
  });

  for (int r = 0; r < kProcs; ++r) {
    if (r == kVictim) {
      EXPECT_EQ(outcome[static_cast<std::size_t>(r)],
                mpi::CapturedError::kRankCrashed);
    } else {
      EXPECT_EQ(outcome[static_cast<std::size_t>(r)], 0) << "rank " << r;
    }
  }
  // The corrupt records were detected (frame CRC) and dropped — counted as
  // lost, never replayed as mangled bytes.
  EXPECT_GE(lost, 1);
  // Replay only runs for the victim's owned segments, so the blast radius
  // is bounded: the victim's own region plus the segments it owned (any
  // rank's bytes whose WAL records were flipped get dropped there, zeroed,
  // and counted above). Everything else survives byte-exact — a flipped
  // record is never applied.
  const auto inVictimBlast = [](Offset off) {
    if (off >= kVictim * kPerRank && off < (kVictim + 1) * kPerRank) {
      return true;
    }
    const SegmentId g = off / kSegment;
    return g % kProcs == kVictim;
  };
  std::vector<std::byte> got(
      static_cast<std::size_t>(fsys.peekSize("walflip.dat")));
  fsys.peek("walflip.dat", 0, got);
  for (Offset off = 0; off < static_cast<Offset>(got.size()); ++off) {
    if (inVictimBlast(off)) {
      // Dropped records leave holes, never mangled payloads: each byte is
      // either the reference value (journaled clean and replayed) or zero.
      const std::byte b = got[static_cast<std::size_t>(off)];
      ASSERT_TRUE(b == expected(off) || b == std::byte{0}) << "byte " << off;
      continue;
    }
    ASSERT_EQ(got[static_cast<std::size_t>(off)], expected(off))
        << "byte " << off;
  }
  (void)replayed;
}

}  // namespace
}  // namespace tcio::core

// -- Delegate server legs -----------------------------------------------------

namespace tcio::delegate {
namespace {

using core::kChunk;
using core::kSegment;

std::byte dexpected(int client, Offset off) {
  return static_cast<std::byte>(
      (static_cast<Offset>(client) * 37 + off * 11) % 251 + 1);
}

std::vector<std::byte> clientBlock(int client, Offset off, Bytes n) {
  std::vector<std::byte> v(static_cast<std::size_t>(n));
  for (Bytes i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = dexpected(client, off + i);
  }
  return v;
}

mpi::JobConfig delegateJob() {
  mpi::JobConfig c;
  c.num_ranks = 6;
  c.seed = 17;
  return c;
}

core::TcioConfig delegatedIntegrity(int d) {
  core::TcioConfig cfg;
  cfg.segment_size = kSegment;
  cfg.segments_per_rank = 8;
  cfg.delegate_ranks = d;
  cfg.integrity.enabled = 1;
  cfg.faults.seed = 17;
  return cfg;
}

void runSession(mpi::Comm& comm, fs::Filesystem& fsys,
                const core::TcioConfig& cfg,
                const std::function<void(Session&, Channel&)>& body,
                core::TcioDelegateStats* stats = nullptr) {
  Session session(comm, fsys, cfg);
  core::TcioDelegateStats merged;
  if (session.isDelegate()) {
    session.serve();
  } else {
    Channel ch(session);
    body(session, ch);
    merged = session.finish();
  }
  comm.barrier();
  comm.bcast(&merged, sizeof(merged), /*root=*/session.numDelegates());
  if (stats != nullptr) *stats = merged;
}

TEST(DelegateIntegrityTest, FrameFlipRepairedByClientRestage) {
  fs::FsConfig fcfg;
  fcfg.num_osts = 4;
  fcfg.stripe_size = 1024;
  fs::Filesystem fsys(fcfg);
  core::TcioDelegateStats stats;
  mpi::runJob(delegateJob(), [&](mpi::Comm& comm) {
    core::TcioConfig cfg = delegatedIntegrity(/*d=*/2);
    // Delegate 0's first serviced put arrives with one flipped frame bit.
    cfg.faults.corruptions.push_back(
        {/*rank=*/0, CorruptSite::kStagingFrame, /*after=*/0});
    runSession(comm, fsys, cfg, [&](Session& s, Channel& ch) {
      const int c = s.clientComm().rank();
      DFile f(ch, "dframe.dat", fs::kRead | fs::kWrite | fs::kCreate);
      const Offset base = static_cast<Offset>(c) * kSegment;
      const std::vector<std::byte> data = clientBlock(c, base, kSegment);
      f.writeAt(base, data);
      f.flush();
      std::vector<std::byte> back(static_cast<std::size_t>(kSegment));
      f.readAt(base, back);
      EXPECT_EQ(back, data);
      f.close();
    }, &stats);
  });
  EXPECT_GE(stats.crc_mismatches, 1);
  EXPECT_GE(stats.repaired, 1);
  EXPECT_EQ(stats.unrepairable, 0);
  for (int c = 0; c < 4; ++c) {
    const Offset base = static_cast<Offset>(c) * kSegment;
    std::vector<std::byte> got(static_cast<std::size_t>(kSegment));
    fsys.peek("dframe.dat", base, got);
    EXPECT_EQ(got, clientBlock(c, base, kSegment)) << "client " << c;
  }
}

TEST(DelegateIntegrityTest, ShardFlipRepairedFromWal) {
  fs::FsConfig fcfg;
  fcfg.num_osts = 4;
  fcfg.stripe_size = 1024;
  fs::Filesystem fsys(fcfg);
  core::TcioDelegateStats stats;
  mpi::runJob(delegateJob(), [&](mpi::Comm& comm) {
    core::TcioConfig cfg = delegatedIntegrity(/*d=*/2);
    // A bit flips in delegate 0's shard buffer after the first put was
    // applied and acknowledged; the next crossing (get or drain) must heal
    // it from the delegate's WAL.
    cfg.faults.corruptions.push_back(
        {/*rank=*/0, CorruptSite::kWindow, /*after=*/0});
    runSession(comm, fsys, cfg, [&](Session& s, Channel& ch) {
      const int c = s.clientComm().rank();
      DFile f(ch, "dshard.dat", fs::kRead | fs::kWrite | fs::kCreate);
      const Offset base = static_cast<Offset>(c) * kSegment;
      const std::vector<std::byte> data = clientBlock(c, base, kSegment);
      f.writeAt(base, data);
      f.flush();
      std::vector<std::byte> back(static_cast<std::size_t>(kSegment));
      f.readAt(base, back);
      EXPECT_EQ(back, data);
      f.close();
    }, &stats);
  });
  EXPECT_GE(stats.crc_mismatches, 1);
  EXPECT_GE(stats.repaired, 1);
  EXPECT_EQ(stats.unrepairable, 0);
  for (int c = 0; c < 4; ++c) {
    const Offset base = static_cast<Offset>(c) * kSegment;
    std::vector<std::byte> got(static_cast<std::size_t>(kSegment));
    fsys.peek("dshard.dat", base, got);
    EXPECT_EQ(got, clientBlock(c, base, kSegment)) << "client " << c;
  }
}

TEST(DelegateIntegrityTest, DoubleFrameFlipIsUnrepairableAndTyped) {
  fs::FsConfig fcfg;
  fcfg.num_osts = 4;
  fcfg.stripe_size = 1024;
  fs::Filesystem fsys(fcfg);
  core::TcioDelegateStats stats;
  int integrity_errors = 0;
  mpi::runJob(delegateJob(), [&](mpi::Comm& comm) {
    core::TcioConfig cfg = delegatedIntegrity(/*d=*/2);
    // Both the original put and the client's re-stage arrive corrupt: the
    // delegate gives up and the client gets a typed IntegrityError.
    cfg.faults.corruptions.push_back(
        {/*rank=*/0, CorruptSite::kStagingFrame, /*after=*/0});
    cfg.faults.corruptions.push_back(
        {/*rank=*/0, CorruptSite::kStagingFrame, /*after=*/1});
    runSession(comm, fsys, cfg, [&](Session& s, Channel& ch) {
      const int c = s.clientComm().rank();
      DFile f(ch, "dunrep.dat", fs::kRead | fs::kWrite | fs::kCreate);
      if (c == 0) {
        // Only client 0 writes, so the doomed put is deterministic.
        const std::vector<std::byte> data = clientBlock(0, 0, kChunk);
        try {
          f.writeAt(0, data);
        } catch (const IntegrityError&) {
          ++integrity_errors;
        }
      }
      f.close();
    }, &stats);
  });
  EXPECT_EQ(integrity_errors, 1);
  EXPECT_GE(stats.crc_mismatches, 2);
  EXPECT_GE(stats.unrepairable, 1);
  EXPECT_EQ(stats.repaired, 0);
}

TEST(DelegateIntegrityTest, FineGrainedPutsCoalesceIntoLedgerRuns) {
  // The shard ledger mirrors File::digestLevel1's run coalescing: adjacent
  // same-client pieces extend one contiguous run, equal-length pieces at a
  // constant stride join a strided run — instead of one ledger entry (and
  // one digest per verification pass) per element. A shard-at-rest flip
  // inside a coalesced run must still be caught by the run's streamed CRC
  // and healed by WAL replay of the whole run.
  fs::FsConfig fcfg;
  fcfg.num_osts = 4;
  fcfg.stripe_size = 1024;
  fs::Filesystem fsys(fcfg);
  core::TcioDelegateStats stats;
  constexpr int kPieces = 8;
  constexpr Bytes kPiece = kSegment / kPieces;
  mpi::runJob(delegateJob(), [&](mpi::Comm& comm) {
    core::TcioConfig cfg = delegatedIntegrity(/*d=*/2);
    // Flip one bit in delegate 0's shard buffer after the first applied put;
    // later pieces extend that run, so the flip sits inside a multi-piece
    // coalesced entry by the time anything verifies it.
    cfg.faults.corruptions.push_back(
        {/*rank=*/0, CorruptSite::kWindow, /*after=*/0});
    runSession(comm, fsys, cfg, [&](Session& s, Channel& ch) {
      const int c = s.clientComm().rank();
      DFile f(ch, "druns.dat", fs::kRead | fs::kWrite | fs::kCreate);
      // Phase 1: kPieces adjacent pieces, one put each — one contiguous run.
      const Offset base = static_cast<Offset>(c) * kSegment;
      for (int i = 0; i < kPieces; ++i) {
        const Offset off = base + static_cast<Offset>(i) * kPiece;
        f.writeAt(off, clientBlock(c, off, kPiece));
      }
      f.flush();
      std::vector<std::byte> back(static_cast<std::size_t>(kSegment));
      f.readAt(base, back);
      EXPECT_EQ(back, clientBlock(c, base, kSegment));
      // Phase 2: three equal pieces at a constant stride in a second
      // segment — one strided run (join, then continue).
      const Offset base2 = static_cast<Offset>(4 + c) * kSegment;
      for (int i = 0; i < 3; ++i) {
        const Offset off = base2 + static_cast<Offset>(i) * 2 * kPiece;
        f.writeAt(off, clientBlock(c, off, kPiece));
      }
      f.close();
    }, &stats);
  });
  EXPECT_GE(stats.crc_mismatches, 1);
  EXPECT_GE(stats.repaired, 1);
  EXPECT_EQ(stats.unrepairable, 0);
  // One ledger entry per segment (4 contiguous + 4 strided runs): each
  // verification pass digests one run per shard segment, never one per
  // piece. The count decomposes as 44 per-put frame-arrival digests (11
  // puts x 4 clients, unaffected by coalescing) + at most 12 run digests
  // (4 get verifies + 8 drain scrubs x 1 run each); without coalescing the
  // ledger side alone would cost 76.
  EXPECT_LE(stats.crc_checks, 56);
  for (int c = 0; c < 4; ++c) {
    const Offset base = static_cast<Offset>(c) * kSegment;
    std::vector<std::byte> got(static_cast<std::size_t>(kSegment));
    fsys.peek("druns.dat", base, got);
    EXPECT_EQ(got, clientBlock(c, base, kSegment)) << "client " << c;
    const Offset base2 = static_cast<Offset>(4 + c) * kSegment;
    for (int i = 0; i < 3; ++i) {
      const Offset off = base2 + static_cast<Offset>(i) * 2 * kPiece;
      std::vector<std::byte> piece(static_cast<std::size_t>(kPiece));
      fsys.peek("druns.dat", off, piece);
      EXPECT_EQ(piece, clientBlock(c, off, kPiece))
          << "client " << c << " strided piece " << i;
    }
  }
}

TEST(DelegateIntegrityTest, InterleavedWritersKeepEachOthersDigests) {
  // Two clients interleave 64-byte pieces in one delegate segment: client 0
  // lays down a strided run at 0/128/256, client 1 later fills 64/192/320.
  // No piece of one writer intersects a piece of the other, so client 1's
  // puts must not evict client 0's run — otherwise a flip in client 0's
  // bytes reaches the file unverified.
  fs::FsConfig fcfg;
  fcfg.num_osts = 4;
  fcfg.stripe_size = 1024;
  fs::Filesystem fsys(fcfg);
  core::TcioDelegateStats stats;
  constexpr Bytes kPiece = 64;
  mpi::runJob(delegateJob(), [&](mpi::Comm& comm) {
    core::TcioConfig cfg = delegatedIntegrity(/*d=*/2);
    // Delegate 0's first applied put (client 0's piece at 0) takes a flip.
    cfg.faults.corruptions.push_back(
        {/*rank=*/0, CorruptSite::kWindow, /*after=*/0});
    runSession(comm, fsys, cfg, [&](Session& s, Channel& ch) {
      const int c = s.clientComm().rank();
      DFile f(ch, "dinterleave.dat", fs::kRead | fs::kWrite | fs::kCreate);
      if (c == 0) {
        for (const Offset off : {0, 128, 256}) {
          f.writeAt(off, clientBlock(0, off, kPiece));
        }
        f.flush();
      }
      s.clientComm().barrier();
      if (c == 1) {
        for (const Offset off : {64, 192, 320}) {
          f.writeAt(off, clientBlock(1, off, kPiece));
        }
      }
      f.close();
    }, &stats);
  });
  for (const Offset off : {0, 64, 128, 192, 256, 320}) {
    const int writer = (off / kPiece) % 2;
    std::vector<std::byte> got(static_cast<std::size_t>(kPiece));
    fsys.peek("dinterleave.dat", off, got);
    EXPECT_EQ(got, clientBlock(writer, off, kPiece)) << "piece at " << off;
  }
  EXPECT_GE(stats.crc_mismatches, 1);
  EXPECT_GE(stats.repaired, 1);
  EXPECT_EQ(stats.unrepairable, 0);
}

}  // namespace
}  // namespace tcio::delegate
