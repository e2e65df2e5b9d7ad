// ART checkpoint (dump) and restart (load) over the shared snapshot file.
//
// Shared-file (N-1) layout:
//   [int64 magic][int64 num_trees]
//   [num_trees x {int64 offset, int64 size, u32 crc, u32 pad}] — tree table
//   tree blobs in tree-id order (variable sizes, adjacent — paper Fig. 8)
//
// File-per-process (N-N) layout: a meta file [magic][num_trees][writer_P]
// plus one "<name>.<rank>" file per writer with its own table and blobs.
//
// Every tree blob carries a CRC-32; restart verifies it and rejects
// corrupted snapshots. Trees are assigned to ranks round-robin for load
// balance (paper §V.C). Backends:
//   * TCIO: one tcio write per on-disk array — the library aggregates;
//   * vanilla MPI-IO: one independent write per array — each tiny write
//     goes straight to the (simulated) file system;
//   * file-per-process: the classic N-N POSIX baseline (no shared-file
//     contention, but num_ranks files and re-decomposition pain).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "art/ftt.h"
#include "fs/filesystem.h"
#include "mpi/comm.h"
#include "tcio/config.h"

namespace tcio::core {
class File;
}  // namespace tcio::core

namespace tcio::art {

enum class Backend {
  kTcio,            // through the TCIO library (shared file, N-1)
  kVanillaMpiio,    // independent per-array MPI-IO writes (shared file, N-1)
  kFilePerProcess,  // one file per rank (N-N), classic POSIX baseline
};

struct CheckpointConfig {
  Backend backend = Backend::kTcio;
  core::TcioConfig tcio;  // used when backend == kTcio
  /// When set (kTcio only), called on every rank with its file just after
  /// the dump's or the restart's collective close returns or throws, so a
  /// caller can read the file's counters.
  std::function<void(const core::File&)> on_tcio_close;
};

/// Which tree ids rank `rank` owns (round-robin).
std::vector<std::int64_t> treesOfRank(std::int64_t num_trees, int rank,
                                      int size);

/// Collective dump: every rank writes its trees; rank 0 writes the header
/// and table. `trees` are this rank's trees ordered by treesOfRank().
void dumpCheckpoint(mpi::Comm& comm, fs::Filesystem& fsys,
                    const std::string& name,
                    const std::vector<FttTree>& trees,
                    std::int64_t num_trees_global,
                    const CheckpointConfig& cfg);

/// Collective restart: loads this rank's trees back.
std::vector<FttTree> loadCheckpoint(mpi::Comm& comm, fs::Filesystem& fsys,
                                    const std::string& name,
                                    const CheckpointConfig& cfg);

}  // namespace tcio::art
