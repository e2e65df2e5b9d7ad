// Deterministic cross-layer fault injection.
//
// A `FaultPlan` is the single source of truth for every injected failure in a
// simulated job: transient and permanent file-system faults, straggling OSTs,
// and dropped RMA payloads. The plan draws from its own seeded xoshiro stream
// and is only ever consulted inside Proc::atomic() sections, so all fault
// decisions happen in global virtual-time order — two runs with the same
// `FaultConfig` inject byte-identical fault schedules, which the fault-matrix
// determinism tests rely on.
//
// The plan *schedules* faults; it never throws. Layers consult it and raise
// the matching typed error (`TransientFsError`, `OstFailedError` — see
// common/error.h); recovery (client retry, collective error agreement,
// degraded-mode remapping) lives above, in src/fs and src/tcio.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace tcio {

/// Where in TCIO's collective life cycle a scheduled fail-stop crash fires.
/// The points are *semantic* (nth collective entry, mid-RMA flush, mid
/// journal append, mid drain at close) rather than wall-clock, so the same
/// schedule reproduces the same crash on every run.
enum class CrashPoint {
  kAtCollective,  // on entering the nth TCIO collective (flush/fetch/close)
  kMidRma,        // after level-1 state is built but before its RMA epoch
  kMidJournal,    // mid journal append: a torn record is left behind
  kMidClose,      // during the close-time drain, between segment writes
  kMidRecovery,   // inside recovery itself: an adopter dies mid-WAL-replay
                  // (per adopted segment in File::replayOrphans; per
                  // re-appended record — torn — in delegate adoptShard)
};

/// One scheduled fail-stop crash: rank `rank` dies at the `after`-th
/// occurrence (0-based) of `point` on that rank.
struct CrashSchedule {
  Rank rank = -1;
  CrashPoint point = CrashPoint::kAtCollective;
  std::int64_t after = 0;
};

/// Where a scheduled silent bit-flip lands. Sites name the *memory domain*
/// that goes bad, not the layer that detects it — detection happens at the
/// next checksum-domain crossing (DESIGN.md §11).
enum class CorruptSite : std::uint8_t {
  kStagingFrame,  // level-1 / RMA staging memory, after digests are taken
  kWindow,        // level-2 window (or delegate shard buffer) at rest
  kStoredBlock,   // an OST block already acknowledged by Filesystem::write
  kJournalBody,   // the payload of a committed WAL record on the journal device
};

/// One scheduled silent corruption: at the `after`-th opportunity (0-based)
/// of `site`, one seeded bit of the affected buffer flips. `rank` selects
/// the victim for the per-rank sites (kStagingFrame, kWindow; a delegate
/// server filters by its own delegate index); the shared file-system sites
/// (kStoredBlock, kJournalBody) leave it at -1.
struct CorruptionSchedule {
  Rank rank = -1;
  CorruptSite site = CorruptSite::kStagingFrame;
  std::int64_t after = 0;
};

/// What faults to inject, and when. All rates are per-request probabilities
/// in [0, 1]; counters/times gate when a fault class becomes active.
struct FaultConfig {
  /// Master switch consulted by the layers that auto-install plans
  /// (core::File installs `TcioConfig::faults` into the shared Filesystem
  /// only when enabled; net::Network likewise).
  bool enabled = false;
  /// Seed of the plan's RNG stream. Layers holding separate plans (the
  /// Filesystem and the Network) salt it so their streams are independent.
  std::uint64_t seed = 1;

  // -- File-system layer ------------------------------------------------------
  /// Probability that one OST write/read request fails with an EIO-like
  /// `TransientFsError` (the request can be retried and will then succeed,
  /// unless it is unlucky again).
  double fs_transient_write_rate = 0.0;
  double fs_transient_read_rate = 0.0;
  /// Simulated time before any rate-driven fault class may fire.
  SimTime active_after = 0.0;
  /// One-shot write fault: the `fail_write_call`-th (0-based) non-empty
  /// `Filesystem::write` call after the plan is installed throws
  /// `TransientFsError` before reaching any OST, once. Drawn from no RNG
  /// and not counted as an injected transient. -1 disables.
  std::int64_t fail_write_call = -1;

  /// Permanent OST failure: after `fail_ost_after_requests` total OST
  /// requests, OST `fail_ost` stops serving — every request routed to it
  /// throws `OstFailedError` until the affected chunks are remapped to
  /// surviving OSTs (Filesystem::remapChunks). -1 disables.
  int fail_ost = -1;
  std::int64_t fail_ost_after_requests = 0;

  /// OST recovery: once the plan has seen this many total OST requests, a
  /// permanently failed OST comes back (failover pair rejoined) and
  /// previously remapped chunks may be rebalanced home. -1 = never recovers.
  std::int64_t recover_ost_after_requests = -1;

  /// Straggler OST: service durations on `straggler_ost` are multiplied by
  /// `straggler_multiplier` (a slow disk / degraded RAID path, not an
  /// error). <= 1 or -1 disables.
  int straggler_ost = -1;
  double straggler_multiplier = 1.0;

  // -- Metadata server --------------------------------------------------------
  /// Probability that one MDS open/close RPC fails with a retriable
  /// `TransientFsError` (FsClient's open/close retry loops absorb these).
  double mds_open_fail_rate = 0.0;
  double mds_close_fail_rate = 0.0;

  // -- Fail-stop crashes ------------------------------------------------------
  /// Scheduled fail-stop rank crashes (see CrashSchedule). A crashed rank
  /// unwinds out of the user program via `RankCrashedError` and never calls
  /// another collective; survivors detect the silence through the liveness
  /// protocol (mpi/liveness.h) and shrink around it.
  std::vector<CrashSchedule> crashes;

  // -- Network / RMA layer ----------------------------------------------------
  /// Probability that one RMA payload (put payload / get reply) is dropped
  /// by the fabric and hardware-retransmitted after `rma_drop_delay`.
  /// Faulted transfers still complete — later, and counted — so one-sided
  /// code keeps working but degrades; TCIO reports the job-wide count as
  /// `TcioDegradedStats::rma_drops`.
  double rma_drop_rate = 0.0;
  SimTime rma_drop_delay = 200.0e-6;

  // -- Silent corruption ------------------------------------------------------
  /// Scheduled silent bit-flips (see CorruptionSchedule). Unlike every class
  /// above, these raise no error at injection time: the corrupted bytes flow
  /// on until an integrity check (TCIO_INTEGRITY) catches them — or, with
  /// integrity off, all the way into user buffers.
  std::vector<CorruptionSchedule> corruptions;
};

/// Bounded exponential backoff for absorbing transient faults, advanced in
/// *simulated* time by the retrying client. `max_attempts == 1` disables
/// retry entirely (the default: faults surface unless a caller opts in).
struct RetryPolicy {
  int max_attempts = 1;
  SimTime base_backoff = 1.0e-3;
  double backoff_multiplier = 2.0;
  SimTime max_backoff = 64.0e-3;
  /// Backoff is multiplied by a factor drawn uniformly from
  /// [1 - jitter_fraction/2, 1 + jitter_fraction/2] out of a seeded stream.
  double jitter_fraction = 0.5;
};

/// Per-domain view of the silent-corruption schedule. The per-rank sites
/// (kStagingFrame, kWindow) give each TCIO rank / delegate server its own
/// plan; the shared file-system sites (kStoredBlock, kJournalBody) live in
/// the Filesystem's FaultPlan under rank -1. Byte/bit choices come from a
/// dedicated seeded stream (kCorruptSalt) so arming a corruption never
/// perturbs the transient/RMA fault draws of a clean run.
class CorruptionPlan {
 public:
  static constexpr std::uint64_t kCorruptSalt = 0x626974666c697073ULL;  // "bitflips"

  CorruptionPlan(const FaultConfig& cfg, Rank rank);

  /// True when any corruption is scheduled for this rank (cheap gate).
  bool armed() const { return !arms_.empty(); }

  /// Advance the opportunity counter for `site`; returns true exactly once
  /// per matching arm, at its scheduled occurrence. The caller then flips
  /// one bit of the affected buffer (flipBit).
  bool fires(CorruptSite site);

  /// Flips one seeded bit of `buf` and returns the byte offset flipped
  /// (-1 for an empty buffer). Exactly one (offset, bit) pair is drawn per
  /// call, so injection stays deterministic per (seed, rank, fire index).
  std::int64_t flipBit(std::span<std::byte> buf);

 private:
  struct Arm {
    CorruptSite site;
    std::int64_t after;  // scheduled occurrence (0-based)
    std::int64_t seen = 0;
    bool fired = false;
  };
  std::vector<Arm> arms_;
  Rng rng_;
};

/// Seeded, deterministic fault schedule. One instance per consulting layer;
/// must only be consulted inside atomic sections (virtual-time order).
class FaultPlan {
 public:
  /// Salt values for per-layer RNG stream separation.
  static constexpr std::uint64_t kFsSalt = 0x66735f6c61796572ULL;   // "fs_layer"
  static constexpr std::uint64_t kNetSalt = 0x6e65745f6c617965ULL;  // "net_laye"

  explicit FaultPlan(const FaultConfig& cfg, std::uint64_t salt = kFsSalt);

  const FaultConfig& config() const { return cfg_; }

  // -- File-system hooks ------------------------------------------------------

  enum class FsVerb { kWrite, kRead };
  enum class FsOutcome { kNone, kTransient, kOstFailed };
  enum class MdsVerb { kOpen, kClose };

  /// Called once per OST request (in virtual-time order); advances the
  /// request counter, draws the scheduled fault for this request, and
  /// reports what the OST does. `kOstFailed` is sticky per failed OST;
  /// the others are one-request events.
  FsOutcome nextFsRequest(FsVerb verb, int ost, SimTime t);

  /// True once `ost` has permanently failed (request counter crossed the
  /// configured threshold) and has not yet recovered.
  bool ostFailed(int ost) const {
    return cfg_.fail_ost >= 0 && ost == cfg_.fail_ost &&
           fs_requests_ >= cfg_.fail_ost_after_requests && !ostRecovered();
  }

  /// True once the failed OST has come back (recovery threshold crossed).
  bool ostRecovered() const {
    return cfg_.recover_ost_after_requests >= 0 &&
           fs_requests_ >= cfg_.recover_ost_after_requests;
  }

  /// Called once per MDS open/close RPC; true when this RPC faults with a
  /// retriable TransientFsError.
  bool nextMdsOp(MdsVerb verb);

  /// Service-duration multiplier for `ost` (straggler model; 1.0 = nominal).
  double serviceMultiplier(int ost) const {
    return (cfg_.straggler_ost >= 0 && ost == cfg_.straggler_ost &&
            cfg_.straggler_multiplier > 1.0)
               ? cfg_.straggler_multiplier
               : 1.0;
  }

  /// Called once per non-empty Filesystem::write *call* (not OST request);
  /// true exactly once, for call number `fail_write_call`.
  bool nextWriteCall() {
    return cfg_.fail_write_call >= 0 && write_calls_++ == cfg_.fail_write_call;
  }

  // -- Network hooks ----------------------------------------------------------

  /// Called once per RMA payload message; returns the extra retransmit
  /// delay (0 when the payload goes through cleanly).
  SimTime nextRmaPayload();

  // -- Silent-corruption hooks (shared file-system sites) ---------------------

  /// The plan's view of the kStoredBlock / kJournalBody corruption arms
  /// (rank -1). The Filesystem advances it once per data write / journal
  /// append, in virtual-time order.
  CorruptionPlan& corruption() { return corruption_; }

  // -- Counters (tests, stats) ------------------------------------------------

  std::int64_t transientFaultsInjected() const { return transients_; }
  std::int64_t rmaDropsInjected() const { return rma_drops_; }
  std::int64_t mdsFaultsInjected() const { return mds_faults_; }

 private:
  FaultConfig cfg_;
  Rng rng_;
  CorruptionPlan corruption_;
  std::int64_t fs_requests_ = 0;
  std::int64_t write_calls_ = 0;
  std::int64_t transients_ = 0;
  std::int64_t rma_drops_ = 0;
  std::int64_t mds_faults_ = 0;
};

/// Per-rank view of the crash schedule. Each TCIO rank owns one; the File
/// layer advances the counters at the matching life-cycle points and raises
/// `RankCrashedError` when a scheduled crash fires. Separate from FaultPlan
/// because crash points are per-rank program positions, not shared
/// virtual-time events — no RNG, fully deterministic from the config.
class CrashPlan {
 public:
  CrashPlan(const FaultConfig& cfg, Rank rank);

  /// True when any crash is scheduled for this rank (cheap gate).
  bool armed() const { return armed_; }

  /// Advance the counter for `point`; returns true exactly once, when the
  /// scheduled occurrence is reached. The caller then unwinds the rank.
  bool fires(CrashPoint point);

  /// Torn-write model: how many bytes of an `len`-byte journal record make
  /// it to the platter when the rank dies mid-append. Drawn from a seeded
  /// stream (deterministic per rank); always in [0, len).
  std::int64_t tornBytes(std::int64_t len);

 private:
  struct Arm {
    CrashPoint point;
    std::int64_t after;   // scheduled occurrence (0-based)
    std::int64_t seen = 0;
  };
  std::vector<Arm> arms_;
  bool armed_ = false;
  bool crashed_ = false;
  Rng rng_;
};

}  // namespace tcio
