#include "common/fault.h"

#include "common/error.h"

namespace tcio {

FaultPlan::FaultPlan(const FaultConfig& cfg, std::uint64_t salt)
    : cfg_(cfg), rng_(cfg.seed ^ salt), corruption_(cfg, /*rank=*/-1) {
  TCIO_CHECK(cfg_.fs_transient_write_rate >= 0 &&
             cfg_.fs_transient_write_rate <= 1);
  TCIO_CHECK(cfg_.fs_transient_read_rate >= 0 &&
             cfg_.fs_transient_read_rate <= 1);
  TCIO_CHECK(cfg_.rma_drop_rate >= 0 && cfg_.rma_drop_rate <= 1);
  TCIO_CHECK(cfg_.rma_drop_delay >= 0);
  TCIO_CHECK(cfg_.mds_open_fail_rate >= 0 && cfg_.mds_open_fail_rate <= 1);
  TCIO_CHECK(cfg_.mds_close_fail_rate >= 0 && cfg_.mds_close_fail_rate <= 1);
}

FaultPlan::FsOutcome FaultPlan::nextFsRequest(FsVerb verb, int ost,
                                              SimTime t) {
  ++fs_requests_;
  // Permanent failure dominates: a dead OST serves nothing, rates included.
  if (ostFailed(ost)) return FsOutcome::kOstFailed;
  if (t < cfg_.active_after) return FsOutcome::kNone;
  const double rate = verb == FsVerb::kWrite ? cfg_.fs_transient_write_rate
                                             : cfg_.fs_transient_read_rate;
  if (rate > 0 && rng_.uniform() < rate) {
    ++transients_;
    return FsOutcome::kTransient;
  }
  return FsOutcome::kNone;
}

SimTime FaultPlan::nextRmaPayload() {
  if (cfg_.rma_drop_rate <= 0) return 0;
  if (rng_.uniform() >= cfg_.rma_drop_rate) return 0;
  ++rma_drops_;
  return cfg_.rma_drop_delay;
}

bool FaultPlan::nextMdsOp(MdsVerb verb) {
  const double rate = verb == MdsVerb::kOpen ? cfg_.mds_open_fail_rate
                                             : cfg_.mds_close_fail_rate;
  if (rate <= 0) return false;
  if (rng_.uniform() >= rate) return false;
  ++mds_faults_;
  return true;
}

CorruptionPlan::CorruptionPlan(const FaultConfig& cfg, Rank rank)
    // Dedicated stream: byte/bit draws must not perturb the shared fault
    // RNG, or arming a corruption would change a clean run's fault schedule.
    : rng_(cfg.seed ^
           (kCorruptSalt + static_cast<std::uint64_t>(rank + 1))) {
  for (const CorruptionSchedule& s : cfg.corruptions) {
    if (s.rank != rank) continue;
    TCIO_CHECK_MSG(s.after >= 0,
                   "corruption schedule occurrence must be >= 0");
    arms_.push_back({s.site, s.after});
  }
}

bool CorruptionPlan::fires(CorruptSite site) {
  // Advance every unfired arm for this site so each one sees the same
  // occurrence counter — an early return here would stall later arms and
  // make multi-arm schedules fire at call-order-dependent occurrences.
  bool hit = false;
  for (Arm& a : arms_) {
    if (a.site != site || a.fired) continue;
    if (a.seen++ == a.after) {
      a.fired = true;
      hit = true;
    }
  }
  return hit;
}

std::int64_t CorruptionPlan::flipBit(std::span<std::byte> buf) {
  if (buf.empty()) return -1;
  const auto off = static_cast<std::int64_t>(
                       rng_.uniform() * static_cast<double>(buf.size())) %
                   static_cast<std::int64_t>(buf.size());
  const int bit = static_cast<int>(rng_.uniform() * 8.0) % 8;
  buf[static_cast<std::size_t>(off)] ^= std::byte{1} << bit;
  return off;
}

CrashPlan::CrashPlan(const FaultConfig& cfg, Rank rank)
    // Salt by rank so torn-byte draws differ across ranks but reproduce
    // exactly for a given (seed, rank).
    : rng_(cfg.seed ^ (0x6372617368ULL + static_cast<std::uint64_t>(rank))) {
  for (const CrashSchedule& s : cfg.crashes) {
    if (s.rank != rank) continue;
    TCIO_CHECK_MSG(s.after >= 0, "crash schedule occurrence must be >= 0");
    arms_.push_back({s.point, s.after});
  }
  armed_ = !arms_.empty();
}

bool CrashPlan::fires(CrashPoint point) {
  if (!armed_ || crashed_) return false;
  for (Arm& a : arms_) {
    if (a.point != point) continue;
    if (a.seen++ == a.after) {
      crashed_ = true;
      return true;
    }
  }
  return false;
}

std::int64_t CrashPlan::tornBytes(std::int64_t len) {
  if (len <= 0) return 0;
  return static_cast<std::int64_t>(rng_.uniform() * static_cast<double>(len)) %
         len;
}

}  // namespace tcio
