// Fail-stop crash matrix: every CrashPoint x {node_agg, lazy, eager}.
//
// One rank is scheduled to die (CrashSchedule); every run must
//   (a) terminate on every rank — survivors complete their collectives and
//       the crashed rank unwinds with RankCrashedError; never a deadlock,
//   (b) lose no journaled byte: outside the region the harness knows was
//       lost (the crashed rank's un-journaled tail), the final file is
//       byte-identical to a healthy run with the same exchange config, and
//   (c) reproduce bit-exactly from the seed: same outcome codes, same
//       masked CRC, same summed TcioStats, same makespan, run-to-run.
//
// The workload interleaves each rank over a private contiguous region with
// a mid-job flush, so the crash schedule exercises an independent-write
// crash (kMidRma at a segment crossing), collective-entry crashes at both
// flush and close, a torn journal record (kMidJournal), and a mid-drain
// death after all journaling completed (kMidClose — fully recoverable).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/env.h"
#include "fs/client.h"
#include "mpi/agreement.h"
#include "mpi/runtime.h"
#include "tcio/file.h"

namespace tcio::core {
namespace {

enum class Mode { kNodeAgg, kLazy, kEager };

struct CrashParam {
  CrashPoint point;
  std::int64_t after;  // nth occurrence of the point on the victim
  Mode mode;
  bool journal = true;
  /// Extra fault classes layered on top of the crash (combined tests).
  bool straggler = false;
  bool transient_eio = false;
  /// The file already holds other bytes, and the job rewrites only the
  /// first half of each chunk: the rest must keep its old bytes.
  bool preexisting = false;
};

std::string paramName(const ::testing::TestParamInfo<CrashParam>& info) {
  const char* p = "";
  switch (info.param.point) {
    case CrashPoint::kAtCollective:
      p = info.param.after == 0 ? "at_flush" : "at_close";
      break;
    case CrashPoint::kMidRma: p = "mid_rma"; break;
    case CrashPoint::kMidJournal: p = "mid_journal"; break;
    case CrashPoint::kMidClose: p = "mid_close"; break;
    case CrashPoint::kMidRecovery: p = "mid_recovery"; break;
  }
  const char* m = "";
  switch (info.param.mode) {
    case Mode::kNodeAgg: m = "_nodeagg"; break;
    case Mode::kLazy: m = "_lazy"; break;
    case Mode::kEager: m = "_eager"; break;
  }
  std::string name = std::string(p) + m;
  if (!info.param.journal) name += "_nojournal";
  if (info.param.straggler) name += "_straggler";
  if (info.param.transient_eio) name += "_eio";
  if (info.param.preexisting) name += "_preexisting";
  return name;
}

// gtest_discover_tests folds the printed parameter into the ctest name, so
// print the case name rather than the struct's bytes.
void PrintTo(const CrashParam& p, std::ostream* os) {
  *os << paramName({p, 0});
}

constexpr int kProcs = 6;
constexpr Rank kVictim = 2;
constexpr Bytes kSegment = 512;
constexpr std::int64_t kSegsPerRank = 4;
constexpr Bytes kPerRank = kSegment * kSegsPerRank;  // contiguous region
constexpr Bytes kTotal = kPerRank * kProcs;
constexpr Bytes kChunk = 256;  // write granularity (2 chunks per segment)

std::byte expected(Offset off) {
  return static_cast<std::byte>((off * 13 + off / kSegment) % 251 + 1);
}

/// What a file held before the job, where it held anything.
std::byte previous(Offset off) { return ~expected(off); }

/// How many leading bytes of each chunk the job writes.
Bytes writtenPerChunk(const CrashParam& p) {
  return p.preexisting ? kChunk / 2 : kChunk;
}

std::vector<std::byte> referenceFile(const CrashParam& p = {}) {
  std::vector<std::byte> ref(static_cast<std::size_t>(kTotal));
  for (Offset off = 0; off < kTotal; ++off) {
    ref[static_cast<std::size_t>(off)] =
        off % kChunk < writtenPerChunk(p) ? expected(off) : previous(off);
  }
  return ref;
}

/// Fills the whole file with previous() before the job runs.
void writePrevious(fs::Filesystem& fsys) {
  mpi::JobConfig jc;
  jc.num_ranks = 1;
  mpi::runJob(jc, [&](mpi::Comm& comm) {
    std::vector<std::byte> old(static_cast<std::size_t>(kTotal));
    for (Offset off = 0; off < kTotal; ++off) {
      old[static_cast<std::size_t>(off)] = previous(off);
    }
    fs::FsClient client(fsys, comm.proc());
    fs::FsFile f = client.open("crash.dat", fs::kWrite | fs::kCreate);
    client.pwrite(f, 0, old.data(), kTotal);
    client.close(f);
  });
}

// Flattened stats (base + crash-recovery counters) for exact determinism
// comparison across runs.
constexpr std::size_t kStatFields = 15;
constexpr std::size_t kRanksCrashedIdx = 7;
constexpr std::size_t kTakenOverIdx = 8;
constexpr std::size_t kReplayedIdx = 9;
constexpr std::size_t kReplayedBytesIdx = 10;
constexpr std::size_t kTornIdx = 11;
constexpr std::size_t kUnjournaledLostIdx = 12;
constexpr std::size_t kTransientIdx = 13;

std::array<std::int64_t, kStatFields> flatten(const TcioStats& s) {
  return {s.writes,
          s.level1_flushes,
          s.bytes_written,
          s.node_exchanges,
          s.intranode_bytes,
          s.internode_messages_saved,
          s.degraded.chunks_remapped,
          s.degraded.ranks_crashed,
          s.degraded.segments_taken_over,
          s.degraded.journal_records_replayed,
          s.degraded.journal_bytes_replayed,
          s.degraded.journal_torn_records,
          s.degraded.unjournaled_segments_lost,
          s.degraded.fs_transient_faults,
          s.degraded.fs_retries};
}

struct RunResult {
  std::array<std::int32_t, kProcs> outcome{};  // CapturedError codes
  SimTime makespan = 0;
  Bytes file_size = 0;
  std::vector<std::byte> contents;
  std::array<std::int64_t, kStatFields> stats_sum{};
};

TcioConfig makeCfg(const CrashParam& p, std::uint64_t seed, bool crash) {
  TcioConfig cfg;
  cfg.segment_size = kSegment;
  cfg.segments_per_rank = kSegsPerRank;
  cfg.use_onesided = true;
  cfg.lazy_reads = p.mode != Mode::kEager;
  cfg.node_aggregation = p.mode == Mode::kNodeAgg;
  cfg.crash.enabled = true;  // healthy baseline runs the same protocol
  cfg.crash.journal = p.journal;
  cfg.faults.seed = seed;
  if (crash) {
    cfg.faults.crashes.push_back({kVictim, p.point, p.after});
  }
  if (p.straggler) {
    cfg.faults.enabled = true;
    cfg.faults.straggler_ost = 0;
    cfg.faults.straggler_multiplier = 8.0;
  }
  if (p.transient_eio) {
    cfg.faults.enabled = true;
    cfg.faults.fs_transient_write_rate = 0.2;
    cfg.retry.max_attempts = 6;
  }
  return cfg;
}

RunResult runCrash(const CrashParam& p, std::uint64_t seed, bool crash) {
  fs::FsConfig fcfg;
  fcfg.num_osts = 3;
  fcfg.stripe_size = kSegment;
  fcfg.default_stripe_count = 3;
  fs::Filesystem fsys(fcfg);
  if (p.preexisting) writePrevious(fsys);

  mpi::JobConfig jc;
  jc.num_ranks = kProcs;
  jc.net.ranks_per_node = 3;  // two nodes: leader failover crosses a NIC
  jc.seed = seed;

  const TcioConfig cfg = makeCfg(p, seed, crash);

  RunResult res;
  std::array<std::array<std::int64_t, kStatFields>, kProcs> per_rank{};
  const mpi::JobResult jr = mpi::runJob(jc, [&](mpi::Comm& comm) {
    const int r = comm.rank();
    mpi::CapturedError err;
    File f(comm, fsys, "crash.dat", fs::kWrite | fs::kCreate, cfg);
    try {
      const Offset begin = r * kPerRank;
      // Round 0: first half of the region, then a collective flush.
      std::vector<std::byte> buf(static_cast<std::size_t>(kChunk));
      auto writeRange = [&](Offset lo, Offset hi) {
        for (Offset cur = lo; cur < hi; cur += kChunk) {
          for (Bytes i = 0; i < kChunk; ++i) {
            buf[static_cast<std::size_t>(i)] = expected(cur + i);
          }
          f.writeAt(cur, buf.data(), writtenPerChunk(p));
        }
      };
      writeRange(begin, begin + kPerRank / 2);
      f.flush();
      writeRange(begin + kPerRank / 2, begin + kPerRank);
      f.close();
    } catch (const RankCrashedError& e) {
      err.capture(e);
    } catch (const std::exception& e) {
      err.capture(e);
    }
    res.outcome[static_cast<std::size_t>(r)] = err.code;
    const auto flat = flatten(f.stats());
    for (std::size_t i = 0; i < kStatFields; ++i) {
      per_rank[static_cast<std::size_t>(r)][i] = flat[i];
    }
  });

  res.makespan = jr.makespan;
  for (const auto& rank_stats : per_rank) {
    for (std::size_t i = 0; i < kStatFields; ++i) {
      res.stats_sum[i] += rank_stats[i];
    }
  }
  res.file_size = fsys.peekSize("crash.dat");
  res.contents.resize(static_cast<std::size_t>(res.file_size));
  fsys.peek("crash.dat", 0, res.contents);
  return res;
}

/// Regions the harness knows may have died with the victim: everything the
/// victim wrote (its un-journaled level-1 tail is a subset), and — with
/// journaling off — every segment the victim *owned* (other ranks' bytes
/// that had already been put into its level-2 window died too).
std::vector<std::pair<Offset, Bytes>> lostMask(bool journal) {
  std::vector<std::pair<Offset, Bytes>> mask;
  mask.emplace_back(kVictim * kPerRank, kPerRank);
  if (!journal) {
    const std::int64_t total_segs = kProcs * kSegsPerRank;
    for (std::int64_t g = 0; g < total_segs; ++g) {
      if (g % kProcs == kVictim) mask.emplace_back(g * kSegment, kSegment);
    }
  }
  return mask;
}

std::uint32_t maskedCrc(std::vector<std::byte> bytes,
                        const std::vector<std::pair<Offset, Bytes>>& mask) {
  for (const auto& [off, len] : mask) {
    for (Bytes i = 0; i < len; ++i) {
      const auto idx = static_cast<std::size_t>(off + i);
      if (idx < bytes.size()) bytes[idx] = std::byte{0};
    }
  }
  return crc32(bytes);
}

class TcioCrashMatrixTest : public ::testing::TestWithParam<CrashParam> {};

INSTANTIATE_TEST_SUITE_P(
    Matrix, TcioCrashMatrixTest,
    ::testing::Values(
        // Every crash point in every exchange mode.
        CrashParam{CrashPoint::kAtCollective, 0, Mode::kNodeAgg},
        CrashParam{CrashPoint::kAtCollective, 0, Mode::kLazy},
        CrashParam{CrashPoint::kAtCollective, 0, Mode::kEager},
        CrashParam{CrashPoint::kAtCollective, 1, Mode::kNodeAgg},
        CrashParam{CrashPoint::kAtCollective, 1, Mode::kLazy},
        CrashParam{CrashPoint::kAtCollective, 1, Mode::kEager},
        CrashParam{CrashPoint::kMidRma, 0, Mode::kNodeAgg},
        CrashParam{CrashPoint::kMidRma, 0, Mode::kLazy},
        CrashParam{CrashPoint::kMidRma, 0, Mode::kEager},
        CrashParam{CrashPoint::kMidJournal, 0, Mode::kNodeAgg},
        CrashParam{CrashPoint::kMidJournal, 0, Mode::kLazy},
        CrashParam{CrashPoint::kMidJournal, 0, Mode::kEager},
        CrashParam{CrashPoint::kMidClose, 0, Mode::kNodeAgg},
        CrashParam{CrashPoint::kMidClose, 0, Mode::kLazy},
        CrashParam{CrashPoint::kMidClose, 0, Mode::kEager},
        // Unjournaled loss is reported, never silent.
        CrashParam{CrashPoint::kMidClose, 0, Mode::kLazy, /*journal=*/false},
        // Combined faults: a straggler OST (skew under the liveness window)
        // and transient EIO (retry loops) layered on a crash.
        CrashParam{CrashPoint::kAtCollective, 1, Mode::kLazy, true,
                   /*straggler=*/true, false},
        CrashParam{CrashPoint::kMidRma, 0, Mode::kLazy, true, false,
                   /*transient_eio=*/true},
        // A file with old bytes the job does not rewrite: the survivors
        // replay orphaned segments over them, before the drain and after
        // it.
        CrashParam{CrashPoint::kAtCollective, 1, Mode::kLazy, true, false,
                   false, /*preexisting=*/true},
        CrashParam{CrashPoint::kMidClose, 0, Mode::kLazy, true, false, false,
                   /*preexisting=*/true}),
    paramName);

TEST_P(TcioCrashMatrixTest, SurvivorsCompleteMaskedIdenticalDeterministic) {
  const CrashParam p = GetParam();
  const auto seed = static_cast<std::uint64_t>(envInt64("TCIO_FAULT_SEED", 1));

  // Healthy baseline: same exchange config, crash protocol armed but no
  // schedule. Must produce the exact reference bytes.
  const RunResult base = runCrash(p, seed, /*crash=*/false);
  for (int r = 0; r < kProcs; ++r) {
    ASSERT_EQ(base.outcome[static_cast<std::size_t>(r)], 0)
        << "healthy rank " << r << " failed";
  }
  ASSERT_EQ(base.file_size, kTotal);
  ASSERT_EQ(base.contents, referenceFile(p));

  const RunResult a = runCrash(p, seed, /*crash=*/true);

  // (a) the victim unwound with RankCrashedError; every survivor completed.
  for (int r = 0; r < kProcs; ++r) {
    const auto code = a.outcome[static_cast<std::size_t>(r)];
    if (r == kVictim) {
      EXPECT_EQ(code, mpi::CapturedError::kRankCrashed);
    } else {
      EXPECT_EQ(code, 0) << "survivor rank " << r << " failed";
    }
  }
  EXPECT_EQ(a.file_size, kTotal);  // rank 5's tail still reaches the file

  // (b) no journaled byte lost: outside the known-lost mask the file is
  // byte-identical to the healthy run.
  const auto mask = lostMask(p.journal);
  EXPECT_EQ(maskedCrc(a.contents, mask), maskedCrc(base.contents, mask));

  // Recovery is visible in the survivors' stats, never silent.
  EXPECT_GT(a.stats_sum[kRanksCrashedIdx], 0);
  EXPECT_GT(a.stats_sum[kTakenOverIdx], 0);
  if (!p.journal) {
    EXPECT_GT(a.stats_sum[kUnjournaledLostIdx], 0);
  } else if (p.point == CrashPoint::kMidJournal) {
    // The schedule tears the victim's first journal record.
    EXPECT_GT(a.stats_sum[kTornIdx], 0);
  } else {
    EXPECT_GT(a.stats_sum[kReplayedIdx], 0);
    EXPECT_GT(a.stats_sum[kReplayedBytesIdx], 0);
  }
  // How many transients a given seed draws is a property of that seed; only
  // the default schedule is pinned to actually exercise the combined path.
  // (Swept seeds still verify convergence, masking, and determinism above.)
  if (p.transient_eio && seed == 1) {
    EXPECT_GT(a.stats_sum[kTransientIdx], 0);
  }

  // (c) seed-exact determinism: full fingerprint reproduces run-to-run.
  const RunResult b = runCrash(p, seed, /*crash=*/true);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.file_size, b.file_size);
  EXPECT_EQ(a.contents, b.contents);
  EXPECT_EQ(a.stats_sum, b.stats_sum);
}

// A mid-drain death with journaling on is *fully* recoverable: every byte
// of the victim's segments was journaled (write-ahead of the RMA epoch) or
// already drained, so the final file matches the healthy run exactly.
TEST(TcioCrashRecoveryTest, MidCloseCrashRecoversByteIdentical) {
  for (const Mode mode : {Mode::kNodeAgg, Mode::kLazy, Mode::kEager}) {
    const CrashParam p{CrashPoint::kMidClose, 0, mode};
    const RunResult a = runCrash(p, /*seed=*/1, /*crash=*/true);
    EXPECT_EQ(a.file_size, kTotal);
    EXPECT_EQ(a.contents, referenceFile())
        << "journaled bytes lost in mode " << static_cast<int>(mode);
    EXPECT_GT(a.stats_sum[kReplayedIdx], 0);
  }
}

// Context-reservation renewal: more sequential shrink events than one
// reserved block (kMaxShrinks) covers. Nine victims die at nine *distinct*
// collective rounds — nine shrinks — so the job must renew its reservation
// from the survivor set mid-flight. Every victim byte was journaled before
// the first death, so the final file must come back byte-identical.
TEST(TcioShrinkRenewalTest, SurvivesMoreShrinksThanOneReservation) {
  constexpr int P = 32;
  constexpr int kVictims = 9;
  static_assert(kVictims > File::kMaxShrinks,
                "the test must outlive one reservation block");
  constexpr std::int64_t kSpr = 2;
  constexpr Bytes kRegion = kSegment * kSpr;
  constexpr Bytes kFileBytes = kRegion * P;

  fs::FsConfig fcfg;
  fcfg.num_osts = 3;
  fcfg.stripe_size = kSegment;
  fs::Filesystem fsys(fcfg);

  TcioConfig cfg;
  cfg.segment_size = kSegment;
  cfg.segments_per_rank = kSpr;
  cfg.crash.enabled = true;
  cfg.faults.seed = 11;
  for (int j = 0; j < kVictims; ++j) {
    // Victim j dies entering flush round j+2: round 1 journaled every byte,
    // and one death per round makes each one a separate shrink event.
    cfg.faults.crashes.push_back({static_cast<Rank>(P - kVictims + j),
                                  CrashPoint::kAtCollective,
                                  /*after=*/1 + j});
  }

  mpi::JobConfig jc;
  jc.num_ranks = P;
  jc.net.ranks_per_node = 4;
  std::array<std::int32_t, P> outcome{};
  std::array<std::int64_t, P> deaths_seen{};
  mpi::runJob(jc, [&](mpi::Comm& comm) {
    const int r = comm.rank();
    mpi::CapturedError err;
    File f(comm, fsys, "renew.dat", fs::kWrite | fs::kCreate, cfg);
    try {
      std::vector<std::byte> buf(static_cast<std::size_t>(kRegion));
      for (Bytes i = 0; i < kRegion; ++i) {
        buf[static_cast<std::size_t>(i)] = expected(r * kRegion + i);
      }
      f.writeAt(r * kRegion, buf.data(), kRegion);
      for (int round = 0; round < kVictims + 1; ++round) f.flush();
      f.close();
    } catch (const std::exception& e) {
      err.capture(e);
    }
    outcome[static_cast<std::size_t>(r)] = err.code;
    deaths_seen[static_cast<std::size_t>(r)] =
        f.stats().degraded.ranks_crashed;
  });

  for (int r = 0; r < P; ++r) {
    if (r >= P - kVictims) {
      EXPECT_EQ(outcome[static_cast<std::size_t>(r)],
                mpi::CapturedError::kRankCrashed)
          << "victim " << r;
    } else {
      EXPECT_EQ(outcome[static_cast<std::size_t>(r)], 0) << "survivor " << r;
      EXPECT_EQ(deaths_seen[static_cast<std::size_t>(r)], kVictims)
          << "survivor " << r << " missed a shrink event";
    }
  }
  ASSERT_EQ(fsys.peekSize("renew.dat"), kFileBytes);
  std::vector<std::byte> got(static_cast<std::size_t>(kFileBytes));
  fsys.peek("renew.dat", 0, got);
  for (Offset off = 0; off < kFileBytes; ++off) {
    ASSERT_EQ(got[static_cast<std::size_t>(off)], expected(off))
        << "byte " << off << " lost across renewed shrinks";
  }
}

// Elastic takeover under mass death: 11 of 16 ranks die — one of them INSIDE
// an in-flight recovery epoch — leaving 5 survivors to absorb 22 orphaned
// segments against a spare budget of only 2 slots each. The spare-slot
// exhaustion must trigger collective window remaps (grow + slot relocation),
// the mid-recovery cascade must be agreed from within the first death's
// epoch and its orphans transitively reassigned, and the file must still
// close byte-identical to a fault-free run.
TEST(TcioElasticTakeoverTest, MassDeathGrowsTakeoverCapacity) {
  constexpr int P = 16;
  constexpr std::int64_t kSpr = 2;
  constexpr Bytes kRegion = kSegment * kSpr;
  constexpr Bytes kFileBytes = kRegion * P;
  // Victims: rank 8 dies first (flush round 2); rank 0 — deterministically
  // the first round-robin adopter of rank 8's orphans — dies mid-replay of
  // that very takeover (CrashPoint::kMidRecovery); nine more die one per
  // later flush round. 11 > the 8-victim bar and > kMaxShrinks, so the
  // context-reservation renewal path runs under elastic growth too.
  constexpr int kVictims = 11;
  const std::vector<Rank> late = {5, 6, 7, 9, 10, 11, 12, 13, 14};

  fs::FsConfig fcfg;
  fcfg.num_osts = 3;
  fcfg.stripe_size = kSegment;
  fs::Filesystem fsys(fcfg);

  TcioConfig cfg;
  cfg.segment_size = kSegment;
  cfg.segments_per_rank = kSpr;
  cfg.crash.enabled = true;
  cfg.faults.seed = 13;
  cfg.faults.crashes.push_back({8, CrashPoint::kAtCollective, /*after=*/1});
  cfg.faults.crashes.push_back({0, CrashPoint::kMidRecovery, /*after=*/0});
  for (std::size_t j = 0; j < late.size(); ++j) {
    cfg.faults.crashes.push_back({late[j], CrashPoint::kAtCollective,
                                  /*after=*/2 + static_cast<std::int64_t>(j)});
  }

  mpi::JobConfig jc;
  jc.num_ranks = P;
  jc.net.ranks_per_node = 4;
  std::array<std::int32_t, P> outcome{};
  std::array<std::int64_t, P> deaths_seen{};
  std::array<std::int64_t, P> remaps{};
  std::array<std::int64_t, P> taken_over{};
  mpi::runJob(jc, [&](mpi::Comm& comm) {
    const int r = comm.rank();
    mpi::CapturedError err;
    File f(comm, fsys, "elastic.dat", fs::kWrite | fs::kCreate, cfg);
    try {
      std::vector<std::byte> buf(static_cast<std::size_t>(kRegion));
      for (Bytes i = 0; i < kRegion; ++i) {
        buf[static_cast<std::size_t>(i)] = expected(r * kRegion + i);
      }
      f.writeAt(r * kRegion, buf.data(), kRegion);
      for (int round = 0; round < kVictims + 2; ++round) f.flush();
      f.close();
    } catch (const std::exception& e) {
      err.capture(e);
    }
    outcome[static_cast<std::size_t>(r)] = err.code;
    deaths_seen[static_cast<std::size_t>(r)] = f.stats().degraded.ranks_crashed;
    remaps[static_cast<std::size_t>(r)] = f.stats().degraded.window_remaps;
    taken_over[static_cast<std::size_t>(r)] =
        f.stats().degraded.segments_taken_over;
  });

  std::int64_t total_taken = 0;
  for (int r = 0; r < P; ++r) {
    const auto i = static_cast<std::size_t>(r);
    const bool victim = r == 0 || r == 8 ||
                        std::find(late.begin(), late.end(), r) != late.end();
    if (victim) {
      EXPECT_EQ(outcome[i], mpi::CapturedError::kRankCrashed) << "victim " << r;
    } else {
      EXPECT_EQ(outcome[i], 0) << "survivor " << r;
      EXPECT_EQ(deaths_seen[i], kVictims)
          << "survivor " << r << " missed a death (cascade not agreed?)";
      // Window growth is collective: every survivor remapped, at least once.
      EXPECT_GE(remaps[i], 1) << "survivor " << r << " never grew its window";
      total_taken += taken_over[i];
    }
  }
  // Every orphan landed on a survivor; the mid-replay victim's own segments
  // and its half-adopted orphans were all transitively re-adopted.
  EXPECT_GE(total_taken, kVictims * kSpr);
  ASSERT_EQ(fsys.peekSize("elastic.dat"), kFileBytes);
  std::vector<std::byte> got(static_cast<std::size_t>(kFileBytes));
  fsys.peek("elastic.dat", 0, got);
  for (Offset off = 0; off < kFileBytes; ++off) {
    ASSERT_EQ(got[static_cast<std::size_t>(off)], expected(off))
        << "byte " << off << " lost across elastic takeover";
  }
}

// MDS open/close faults (the new FaultPlan class) are absorbed by the
// FsClient retry loops; with retries exhausted the typed error surfaces
// identically on every rank.
TEST(TcioMdsFaultTest, OpenCloseFaultsAbsorbedByRetry) {
  fs::FsConfig fcfg;
  fcfg.num_osts = 2;
  fcfg.stripe_size = kSegment;
  fs::Filesystem fsys(fcfg);
  TcioConfig cfg;
  cfg.segment_size = kSegment;
  cfg.segments_per_rank = 2;
  cfg.faults.enabled = true;
  cfg.faults.seed = 7;
  cfg.faults.mds_open_fail_rate = 0.4;
  cfg.faults.mds_close_fail_rate = 0.4;
  cfg.retry.max_attempts = 12;
  mpi::JobConfig jc;
  jc.num_ranks = 4;
  mpi::runJob(jc, [&](mpi::Comm& comm) {
    File f(comm, fsys, "mds.dat", fs::kWrite | fs::kCreate, cfg);
    std::vector<std::byte> buf(static_cast<std::size_t>(kSegment),
                               std::byte{0x3c});
    f.writeAt(comm.rank() * kSegment, buf.data(), kSegment);
    f.close();  // completes: retries absorb the MDS transients
  });
  EXPECT_EQ(fsys.peekSize("mds.dat"), 4 * kSegment);
  EXPECT_GT(fsys.stats().opens, 4);  // retried opens hit the MDS again
}

}  // namespace
}  // namespace tcio::core
