// TCIO configuration.
//
// As the paper specifies, a user provides the level-2 segment size (set to
// the file system's lock granularity — the Lustre stripe size — by default)
// and the number of segments each process contributes. The level-1 buffer is
// exactly one segment (paper §IV.A: "we set them to be equal, and each
// level-1 buffer is aligned with one level-2 buffer segment").
#pragma once

#include "common/fault.h"
#include "common/types.h"

namespace tcio::core {

struct TcioConfig {
  /// Level-2 segment size; should equal the file system lock granularity.
  Bytes segment_size = 1_MiB;

  /// Segments per process. The file domain a job can address is
  /// segment_size * segments_per_rank * num_ranks.
  std::int64_t segments_per_rank = 64;

  /// Paper design: move level-1 data to level-2 with one-sided
  /// lock/put/unlock epochs. `false` switches to the two-sided ablation:
  /// writes are staged locally and exchanged with a collective alltoallv at
  /// flush/close (OCIO-style exchange under the TCIO API).
  bool use_onesided = true;

  /// Paper design: reads are recorded and materialized lazily at fetch (or
  /// when the read domain leaves the current segment). `false` switches to
  /// the eager ablation: every read_at materializes immediately.
  bool lazy_reads = true;

  /// Literal paper trigger: resolve the pending-read group independently as
  /// soon as a read leaves the segment the group is in. Off by default:
  /// for interleaved patterns every rank crosses segments in lockstep and
  /// the per-segment exclusive load epochs serialize all readers; explicit
  /// (collective) fetch() lets owners load their own segments in parallel.
  /// The independent fetch reads the owner's window with one-sided gets, so
  /// open rejects this with use_onesided = false.
  bool auto_fetch_on_segment_exit = false;

  /// Topology-aware intra-node write aggregation (src/topo/): level-1
  /// flushes are staged locally and shipped at collective points through
  /// per-node leaders, so the NIC carries one coalesced epoch per (source
  /// node, destination node) instead of one per (rank, destination rank).
  /// Reads are not aggregated: fetch() takes the same one-sided gather as
  /// without it. Requires use_onesided && lazy_reads &&
  /// !auto_fetch_on_segment_exit, because staged data is only exchanged at
  /// collective calls. core::File only: delegate::DFile sends every piece
  /// straight to its shard owner.
  bool node_aggregation = false;

  // -- I/O delegate ranks (src/delegate/, DESIGN.md §10) ---------------------

  /// When D > 0, the first D ranks of a delegate::Session become asynchronous
  /// I/O servers that exclusively own the level-2 segment map (round-robin
  /// shard: segment g is served by delegate g % D); the remaining P−D client
  /// ranks never touch FsClient. 0 disables; the environment variable
  /// TCIO_DELEGATES overrides a zero value. Negative disables explicitly,
  /// beating the environment (the knob ablation baselines pin).
  int delegate_ranks = 0;

  /// Tuning knobs for the delegate request-queue server core.
  struct DelegateConfig {
    /// Bounded per-delegate request queue: total queued data requests
    /// across all clients at which admission stops (DelegateBusyError to the
    /// client). Control requests bypass it. The delegate's staging window
    /// holds this many one-segment frames; a request gets its frame at
    /// admission, so rejected requests never move payload.
    std::int64_t queue_capacity = 64;
  };
  DelegateConfig delegate;

  // -- Fault injection and recovery (see common/fault.h, DESIGN.md) ----------

  /// Cross-layer fault plan. When `faults.enabled`, the collective open
  /// installs it into the shared Filesystem (first open wins — every rank
  /// and file then shares one deterministic schedule). Network faults
  /// (rma_drop_*) are configured on NetworkConfig::faults instead: the
  /// network exists before any TCIO file is opened.
  FaultConfig faults;

  /// Retry policy the FS client uses to absorb TransientFsError (bounded
  /// exponential backoff charged to simulated time). Default: no retry —
  /// transients surface unless the application opts in.
  RetryPolicy retry;

  /// Fail-stop crash tolerance (see DESIGN.md §8). All off by default —
  /// zero behavior change for jobs that don't opt in.
  struct CrashToleranceConfig {
    /// Master switch: arm the crash schedule (faults.crashes), run every
    /// collective agreement through the liveness protocol, and double the
    /// level-2 window with spare slots for orphaned-segment takeover.
    bool enabled = false;
    /// Write-ahead journal: append each level-1 flush's extents to a
    /// per-rank CRC32-framed journal file before the level-2 transfer, so
    /// a dead rank's buffered segments can be replayed by their new owner.
    bool journal = true;
    /// Virtual-time window a liveness round waits for a peer before
    /// suspecting it. Must exceed the worst-case inter-rank skew at a
    /// collective point (straggler configs need more).
    SimTime liveness_window = 250.0e-3;
  };
  CrashToleranceConfig crash;

  /// End-to-end data integrity (DESIGN.md §11). All checksum domains hang
  /// off one switch so a job opts into the whole pipeline at once: per-extent
  /// CRC32 digests at client put time, verification at every domain crossing
  /// (staging frame → window → store → journal), read-repair from the WAL or
  /// an OST replica, a background scrubber over owned segments, and a final
  /// scrub of every digested segment at close.
  struct IntegrityConfig {
    /// Tri-state: > 0 on; 0 defers to the TCIO_INTEGRITY environment
    /// variable; < 0 pinned off regardless of the environment.
    int enabled = 0;
  };
  IntegrityConfig integrity;
};

/// Failure-detector poll quantum inside a liveness window
/// (CrashToleranceConfig::liveness_window).
inline constexpr SimTime kLivenessPoll = 2.0e-3;

}  // namespace tcio::core
