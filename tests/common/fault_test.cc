#include "common/fault.h"

#include <gtest/gtest.h>

#include <vector>

namespace tcio {
namespace {

TEST(FaultPlanTest, DisabledPlanInjectsNothing) {
  FaultPlan plan(FaultConfig{});
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(plan.nextFsRequest(FaultPlan::FsVerb::kWrite, i % 4, 0.0),
              FaultPlan::FsOutcome::kNone);
    EXPECT_EQ(plan.nextRmaPayload(), 0.0);
  }
  EXPECT_EQ(plan.transientFaultsInjected(), 0);
  EXPECT_EQ(plan.rmaDropsInjected(), 0);
}

TEST(FaultPlanTest, SameSeedSameSchedule) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 7;
  cfg.fs_transient_write_rate = 0.1;
  cfg.fs_transient_read_rate = 0.05;
  cfg.rma_drop_rate = 0.2;
  const auto run = [&cfg] {
    FaultPlan plan(cfg);
    std::vector<int> outcomes;
    for (int i = 0; i < 500; ++i) {
      const auto verb = i % 2 == 0 ? FaultPlan::FsVerb::kWrite
                                   : FaultPlan::FsVerb::kRead;
      outcomes.push_back(
          static_cast<int>(plan.nextFsRequest(verb, i % 3, 0.0)));
      outcomes.push_back(plan.nextRmaPayload() > 0 ? 1 : 0);
    }
    outcomes.push_back(static_cast<int>(plan.transientFaultsInjected()));
    outcomes.push_back(static_cast<int>(plan.rmaDropsInjected()));
    return outcomes;
  };
  EXPECT_EQ(run(), run());
}

TEST(FaultPlanTest, DifferentSeedsDifferentSchedules) {
  FaultConfig a;
  a.enabled = true;
  a.seed = 1;
  a.fs_transient_write_rate = 0.1;
  FaultConfig b = a;
  b.seed = 2;
  FaultPlan pa(a), pb(b);
  std::vector<int> oa, ob;
  for (int i = 0; i < 500; ++i) {
    oa.push_back(
        static_cast<int>(pa.nextFsRequest(FaultPlan::FsVerb::kWrite, 0, 0.0)));
    ob.push_back(
        static_cast<int>(pb.nextFsRequest(FaultPlan::FsVerb::kWrite, 0, 0.0)));
  }
  EXPECT_NE(oa, ob);
}

TEST(FaultPlanTest, SaltsSeparateLayerStreams) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 5;
  cfg.fs_transient_write_rate = 0.3;
  cfg.rma_drop_rate = 0.3;
  FaultPlan fs_plan(cfg, FaultPlan::kFsSalt);
  FaultPlan net_plan(cfg, FaultPlan::kNetSalt);
  std::vector<int> fs_draws, net_draws;
  for (int i = 0; i < 300; ++i) {
    fs_draws.push_back(static_cast<int>(
        fs_plan.nextFsRequest(FaultPlan::FsVerb::kWrite, 0, 0.0)));
    net_draws.push_back(net_plan.nextRmaPayload() > 0 ? 1 : 0);
  }
  // Different salts must give uncorrelated streams, not mirrored ones.
  std::vector<int> fs_as_hits;
  for (int v : fs_draws) {
    fs_as_hits.push_back(
        v == static_cast<int>(FaultPlan::FsOutcome::kTransient) ? 1 : 0);
  }
  EXPECT_NE(fs_as_hits, net_draws);
}

TEST(FaultPlanTest, PermanentOstFailureIsStickyAndDominates) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.fail_ost = 2;
  cfg.fail_ost_after_requests = 3;
  cfg.fs_transient_write_rate = 1.0;  // would fire on every request
  FaultPlan plan(cfg);
  // Before the threshold the dead OST still serves (transients may fire).
  EXPECT_FALSE(plan.ostFailed(2));
  for (int i = 0; i < 3; ++i) {
    plan.nextFsRequest(FaultPlan::FsVerb::kWrite, 0, 0.0);
  }
  EXPECT_TRUE(plan.ostFailed(2));
  EXPECT_FALSE(plan.ostFailed(1));
  // Permanent failure wins over the (certain) transient draw.
  EXPECT_EQ(plan.nextFsRequest(FaultPlan::FsVerb::kWrite, 2, 0.0),
            FaultPlan::FsOutcome::kOstFailed);
  EXPECT_EQ(plan.nextFsRequest(FaultPlan::FsVerb::kRead, 2, 0.0),
            FaultPlan::FsOutcome::kOstFailed);
}

TEST(FaultPlanTest, StragglerMultiplierAppliesOnlyToThatOst) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.straggler_ost = 1;
  cfg.straggler_multiplier = 8.0;
  FaultPlan plan(cfg);
  EXPECT_DOUBLE_EQ(plan.serviceMultiplier(1), 8.0);
  EXPECT_DOUBLE_EQ(plan.serviceMultiplier(0), 1.0);
  EXPECT_DOUBLE_EQ(plan.serviceMultiplier(2), 1.0);
}

TEST(FaultPlanTest, ActiveAfterGatesFaults) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.fs_transient_write_rate = 1.0;
  cfg.active_after = 10.0;
  FaultPlan plan(cfg);
  EXPECT_EQ(plan.nextFsRequest(FaultPlan::FsVerb::kWrite, 0, 1.0),
            FaultPlan::FsOutcome::kNone);
  EXPECT_EQ(plan.nextFsRequest(FaultPlan::FsVerb::kWrite, 0, 11.0),
            FaultPlan::FsOutcome::kTransient);
}

TEST(FaultPlanTest, FailWriteCallFiresExactlyOnce) {
  FaultConfig cfg;
  cfg.fail_write_call = 2;
  FaultPlan plan(cfg);
  EXPECT_FALSE(plan.nextWriteCall());  // call 0
  EXPECT_FALSE(plan.nextWriteCall());  // call 1
  EXPECT_TRUE(plan.nextWriteCall());   // call 2 faults
  EXPECT_FALSE(plan.nextWriteCall());  // consumed
  EXPECT_FALSE(plan.nextWriteCall());
  EXPECT_EQ(plan.transientFaultsInjected(), 0);
  EXPECT_FALSE(FaultPlan(FaultConfig{}).nextWriteCall());  // -1: never
}

TEST(FaultPlanTest, RmaDropDelayIsConfigured) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.rma_drop_rate = 1.0;
  cfg.rma_drop_delay = 3.5e-4;
  FaultPlan plan(cfg);
  EXPECT_DOUBLE_EQ(plan.nextRmaPayload(), 3.5e-4);
  EXPECT_EQ(plan.rmaDropsInjected(), 1);
}

TEST(FaultPlanTest, OstRecoveryClearsPermanentFailure) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.fail_ost = 1;
  cfg.fail_ost_after_requests = 2;
  cfg.recover_ost_after_requests = 5;
  FaultPlan plan(cfg);
  EXPECT_FALSE(plan.ostFailed(1));  // not yet failed
  for (int i = 0; i < 3; ++i) {
    plan.nextFsRequest(FaultPlan::FsVerb::kWrite, 0, 0.0);
  }
  EXPECT_TRUE(plan.ostFailed(1));   // between the thresholds: dead
  EXPECT_FALSE(plan.ostRecovered());
  for (int i = 0; i < 3; ++i) {
    plan.nextFsRequest(FaultPlan::FsVerb::kWrite, 0, 0.0);
  }
  EXPECT_TRUE(plan.ostRecovered());  // failover pair rejoined
  EXPECT_FALSE(plan.ostFailed(1));   // routing home is legal again
}

TEST(FaultPlanTest, MdsFaultRatesAreSeededAndCounted) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 9;
  cfg.mds_open_fail_rate = 0.5;
  cfg.mds_close_fail_rate = 0.0;
  const auto draw = [&cfg] {
    FaultPlan plan(cfg);
    std::vector<bool> outs;
    for (int i = 0; i < 64; ++i) {
      outs.push_back(plan.nextMdsOp(FaultPlan::MdsVerb::kOpen));
      // Zero-rate verbs never fault and never consume an RNG draw that
      // would perturb the open stream.
      EXPECT_FALSE(plan.nextMdsOp(FaultPlan::MdsVerb::kClose));
    }
    return std::pair(outs, plan.mdsFaultsInjected());
  };
  const auto a = draw();
  const auto b = draw();
  EXPECT_EQ(a, b);               // seed-deterministic
  EXPECT_GT(a.second, 0);        // some opens faulted
  EXPECT_LT(a.second, 64);       // but not all
}

TEST(CrashPlanTest, FiresExactlyOnceAtScheduledOccurrence) {
  FaultConfig cfg;
  cfg.crashes.push_back({/*rank=*/1, CrashPoint::kAtCollective, /*after=*/2});
  CrashPlan plan(cfg, /*rank=*/1);
  EXPECT_TRUE(plan.armed());
  EXPECT_FALSE(plan.fires(CrashPoint::kMidRma));  // other points don't count
  EXPECT_FALSE(plan.fires(CrashPoint::kAtCollective));  // occurrence 0
  EXPECT_FALSE(plan.fires(CrashPoint::kAtCollective));  // occurrence 1
  EXPECT_TRUE(plan.fires(CrashPoint::kAtCollective));   // occurrence 2: dies
  EXPECT_FALSE(plan.fires(CrashPoint::kAtCollective));  // already dead
}

TEST(CrashPlanTest, ScheduleFiltersByRank) {
  FaultConfig cfg;
  cfg.crashes.push_back({/*rank=*/3, CrashPoint::kMidClose, /*after=*/0});
  CrashPlan victim(cfg, /*rank=*/3);
  CrashPlan bystander(cfg, /*rank=*/0);
  EXPECT_TRUE(victim.armed());
  EXPECT_FALSE(bystander.armed());
  EXPECT_FALSE(bystander.fires(CrashPoint::kMidClose));
  EXPECT_TRUE(victim.fires(CrashPoint::kMidClose));
}

TEST(CrashPlanTest, TornBytesDeterministicAndInRange) {
  FaultConfig cfg;
  cfg.seed = 21;
  cfg.crashes.push_back({/*rank=*/0, CrashPoint::kMidJournal, /*after=*/0});
  const auto draw = [&cfg](Rank rank) {
    CrashPlan plan(cfg, rank);
    std::vector<std::int64_t> torn;
    for (int i = 0; i < 32; ++i) torn.push_back(plan.tornBytes(100));
    return torn;
  };
  const auto a = draw(0);
  EXPECT_EQ(a, draw(0));   // same (seed, rank): same torn prefixes
  EXPECT_NE(a, draw(1));   // rank-salted stream
  for (const std::int64_t t : a) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, 100);  // a torn write never completes the frame
  }
  CrashPlan plan(cfg, 0);
  EXPECT_EQ(plan.tornBytes(0), 0);
}

TEST(CorruptionPlanTest, FiresExactlyOnceAtScheduledOccurrence) {
  FaultConfig cfg;
  cfg.corruptions.push_back(
      {/*rank=*/2, CorruptSite::kWindow, /*after=*/2});
  CorruptionPlan plan(cfg, /*rank=*/2);
  EXPECT_TRUE(plan.armed());
  EXPECT_FALSE(plan.fires(CorruptSite::kStagingFrame));  // other sites
  EXPECT_FALSE(plan.fires(CorruptSite::kWindow));  // occurrence 0
  EXPECT_FALSE(plan.fires(CorruptSite::kWindow));  // occurrence 1
  EXPECT_TRUE(plan.fires(CorruptSite::kWindow));   // occurrence 2: flips
  EXPECT_FALSE(plan.fires(CorruptSite::kWindow));  // already fired
}

TEST(CorruptionPlanTest, ScheduleFiltersByRank) {
  FaultConfig cfg;
  cfg.corruptions.push_back(
      {/*rank=*/1, CorruptSite::kStagingFrame, /*after=*/0});
  CorruptionPlan victim(cfg, /*rank=*/1);
  CorruptionPlan bystander(cfg, /*rank=*/0);
  EXPECT_TRUE(victim.armed());
  EXPECT_FALSE(bystander.armed());
  EXPECT_FALSE(bystander.fires(CorruptSite::kStagingFrame));
  EXPECT_TRUE(victim.fires(CorruptSite::kStagingFrame));
}

TEST(CorruptionPlanTest, FlipBitChangesExactlyOneBitDeterministically) {
  FaultConfig cfg;
  cfg.seed = 33;
  const auto draw = [&cfg](Rank rank) {
    CorruptionPlan plan(cfg, rank);
    std::vector<std::byte> buf(256, std::byte{0});
    const std::int64_t off = plan.flipBit(buf);
    return std::pair(off, buf);
  };
  const auto [off_a, buf_a] = draw(0);
  const auto [off_b, buf_b] = draw(0);
  EXPECT_EQ(off_a, off_b);  // same (seed, rank): same flip
  EXPECT_EQ(buf_a, buf_b);
  ASSERT_GE(off_a, 0);
  ASSERT_LT(off_a, 256);
  int changed_bytes = 0;
  for (std::size_t i = 0; i < buf_a.size(); ++i) {
    if (buf_a[i] != std::byte{0}) {
      ++changed_bytes;
      EXPECT_EQ(static_cast<std::size_t>(off_a), i);
      const auto v = std::to_integer<unsigned>(buf_a[i]);
      EXPECT_EQ(v & (v - 1), 0u);  // exactly one bit set
    }
  }
  EXPECT_EQ(changed_bytes, 1);
  // Rank-salted stream: a different rank flips elsewhere (or another bit).
  const auto [off_c, buf_c] = draw(5);
  EXPECT_TRUE(off_c != off_a || buf_c != buf_a);
}

TEST(CorruptionPlanTest, FlipBitOnEmptyBufferIsANoOp) {
  CorruptionPlan plan(FaultConfig{}, /*rank=*/0);
  std::vector<std::byte> empty;
  EXPECT_EQ(plan.flipBit(empty), -1);
}

TEST(CorruptionPlanTest, ArmingDoesNotPerturbFaultPlanStreams) {
  // The corruption stream is salted separately: arming bit flips must not
  // shift the transient-fault schedule of a clean run (determinism parity).
  FaultConfig clean;
  clean.enabled = true;
  clean.seed = 11;
  clean.fs_transient_write_rate = 0.25;
  FaultConfig armed = clean;
  armed.corruptions.push_back(
      {/*rank=*/-1, CorruptSite::kStoredBlock, /*after=*/0});
  const auto draws = [](const FaultConfig& cfg) {
    FaultPlan plan(cfg, FaultPlan::kFsSalt);
    std::vector<int> out;
    for (int i = 0; i < 200; ++i) {
      out.push_back(
          static_cast<int>(plan.nextFsRequest(FaultPlan::FsVerb::kWrite,
                                              i % 4, 0.0)));
    }
    return out;
  };
  EXPECT_EQ(draws(clean), draws(armed));
}

}  // namespace
}  // namespace tcio
