// Shared configuration for the figure-reproduction benches.
//
// Scaling: the paper's runs use 4 Mi-element arrays and 768 MB–48 GB files
// on a 1,888-node machine. The simulator moves real bytes, so the benches
// run a geometrically faithful 1/kScale model: every per-rank byte count,
// buffer, segment, stripe, cache, and memory budget shrinks by the same
// factor, which preserves every ratio the paper's arguments depend on
// (bytes per segment per rank, buffers vs budget, requests per OST).
// Process counts (the x axes) are NOT scaled. See EXPERIMENTS.md.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/table.h"
#include "common/types.h"
#include "fs/filesystem.h"
#include "mpi/runtime.h"
#include "tcio/config.h"

namespace tcio::bench {

/// Geometric down-scale factor for data sizes (1/64 of the paper).
constexpr std::int64_t kScale = 64;

/// Lonestar: 24 GB/node, 12 cores -> 2 GB per process, scaled.
constexpr Bytes kMemoryBudgetPerRank = 2_GiB / kScale;

/// Lustre stripe (= lock granularity = TCIO segment size), scaled from 1 MiB.
constexpr Bytes kStripe = 1_MiB / kScale;

inline fs::FsConfig paperFs() {
  fs::FsConfig c;
  c.num_osts = 30;
  c.stripe_size = kStripe;
  c.default_stripe_count = 1;  // Lonestar default: one OST per file
  // Per-byte rates scale with the data (geometric model); per-request
  // overheads do not — they are per-operation costs.
  c.ost_write_bandwidth = 1.2e9 / kScale;   // OSS ingest (write-back cache)
  c.ost_read_bandwidth = 2.0e9 / kScale;
  c.cache_read_bandwidth = 8.0e9 / kScale;  // server-cache hits
  c.cache_capacity_per_ost = 8_GiB / kScale;
  c.ost_request_overhead = 0.7e-3;
  c.cache_hit_overhead = 0.1e-3;
  c.rpc_latency = 30.0e-6;
  c.mds_open = 0.1e-3;
  // Misaligned/sub-page writes trigger server-side page read-modify-write.
  c.page_size = 4096;
  c.small_write_penalty = 1.5e-3;
  return c;
}

inline mpi::JobConfig paperJob(int P, std::uint64_t seed = 1) {
  mpi::JobConfig c;
  c.num_ranks = P;
  c.seed = seed;
  c.memory_budget_per_rank = kMemoryBudgetPerRank;
  c.net.ranks_per_node = 12;
  // Per-byte rates scale with the data; latencies/overheads do not.
  c.net.nic_bandwidth = 5.0e9 / kScale;
  c.net.membus_bandwidth = 20.0e9 / kScale;
  c.mpi.memcpy_bandwidth = 6.0e9 / kScale;
  c.net.per_message_overhead = 0.1e-6;
  // Outstanding-transmit (burst) model: fully-posted all-to-all exchanges
  // overflow the NIC TX queue and pay a quadratic aggregate penalty.
  c.net.tx_queue_depth = 192;
  c.net.tx_overflow_penalty = 0.2e-3;
  // Production-mode noise (paper §V.A: "experiments were conducted during
  // the production mode, meaning other applications coexist").
  c.net.jitter_mean = 0.5e-6;
  c.net.heavy_tail_prob = 1e-4;
  c.net.heavy_tail_mean = 0.8e-3;
  c.net.jitter_seed = seed * 7919 + 11;
  return c;
}

/// Message-cost correction for message-dominated ablations. Under the
/// geometric model message counts stay at paper levels while bytes shrink:
/// the scaled 0.1 us term keeps the bandwidth and message-count cost classes
/// in proportion for byte-dominated phases, but a real NIC's per-message
/// cost does not shrink with the payload — the remainder of the testbed's
/// 0.7 us is charged through the unscaled term. Benches whose treatment cuts
/// message counts (node aggregation, delegate batching) would otherwise
/// understate the savings by up to kScale. Opt-in, NOT part of paperJob():
/// the figure benches keep the historical calibration their recorded
/// baselines were measured under, and an ablation that applies the
/// correction applies it to base and treatment legs alike, so its ratios
/// isolate the feature rather than the testbed change.
inline void applyUnscaledMessageCost(mpi::JobConfig& c) {
  c.net.per_message_overhead_unscaled = 0.6e-6;
}

inline core::TcioConfig paperTcio() {
  core::TcioConfig c;
  c.segment_size = kStripe;  // paper: segment size = lock granularity
  c.segments_per_rank = 1;   // sized up automatically per workload
  return c;
}

/// Process-count ladder; TCIO_BENCH_FAST=1 trims it for smoke runs.
inline std::vector<int> processLadder() {
  if (envInt64("TCIO_BENCH_FAST", 0) != 0) return {16, 32, 64};
  return {64, 128, 256, 512, 1024};
}

/// The paper averages >= 3 runs per point; the simulator is deterministic
/// given a seed, so the default is one run per point (each extra repeat
/// re-rolls the noise seed). Override with TCIO_BENCH_REPEATS.
inline int repeats() {
  return static_cast<int>(envInt64("TCIO_BENCH_REPEATS", 1));
}

/// Median of `v` (the mean of the middle two for an even count); 0 if empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

inline void printHeader(const char* what, const char* paper_expectation) {
  std::printf("\n%s\n", what);
  std::printf("paper expectation: %s\n", paper_expectation);
}

}  // namespace tcio::bench
