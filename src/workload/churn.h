// Open/write/close churn: the metadata-heavy pattern that stresses a
// delegate's admission control (DESIGN.md §10). Every round, all clients
// collectively open one shared per-round file, write their interleaved
// blocks, and close it again — so the request queues absorb a full burst of
// opens, a storm of puts, and a synchronized drain, `rounds` times in a row.
// At scale (P >= 4096 clients against a handful of delegates) the put storm
// overruns the queue watermark and the kBusy/backoff admission path carries
// real traffic; the returned delegate stats expose exactly how much.
#pragma once

#include <string>

#include "common/types.h"
#include "delegate/session.h"
#include "fs/filesystem.h"
#include "mpi/comm.h"
#include "tcio/config.h"

namespace tcio::workload {

struct ChurnConfig {
  /// Open/write/close cycles (one shared file per round).
  int rounds = 4;
  /// Bytes each client writes per round, as `blocks_per_round` equal writes.
  Bytes block_bytes = 4096;
  int blocks_per_round = 1;
  core::TcioConfig tcio;
};

struct ChurnResult {
  SimTime seconds = 0;      // makespan of all rounds, across a barrier
  Bytes bytes_written = 0;  // aggregate payload (summed over all clients)
  std::int64_t files = 0;   // open/close cycles this rank performed
  /// Merged delegate-mode counters, identical on every rank (all zero on
  /// the baseline path).
  core::TcioDelegateStats delegate;
};

/// The deterministic byte every run writes at position `i` of client `c`'s
/// block `b` in round `r` — verification anchors for tests and benches.
std::byte churnByte(int round, int client, int block, std::int64_t i);

/// Name of round `r`'s shared file, "churn.<r>".
std::string churnFileName(const ChurnConfig& cfg, int round);

/// Collective over `comm`. When the config (or TCIO_DELEGATES) resolves to
/// D > 0, ranks 0..D-1 serve as I/O delegates and the rest run the churn as
/// delegate clients; with D == 0 every rank churns through core::File.
/// Layout: in round r, client c's block b occupies
/// [(c * blocks_per_round + b) * block_bytes, ...+block_bytes).
ChurnResult runChurn(mpi::Comm& comm, fs::Filesystem& fsys, ChurnConfig cfg);

}  // namespace tcio::workload
