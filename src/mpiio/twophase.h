// Two-phase collective I/O — the paper's OCIO baseline, implemented the way
// the paper describes ROMIO's behaviour:
//
//   write: allreduce the aggregate file domain [min, max); split it into P
//   equal disjoint regions, one aggregator (= temporary buffer) per process;
//   shuffle application data to aggregators with a fully-posted nonblocking
//   all-to-all; each aggregator issues large contiguous writes for its
//   region. Reads run the same protocol in reverse (aggregators act as I/O
//   delegators).
//
// View-based collective I/O (J. Blas, Isaila, Singh, Carretero — CCGRID'08;
// the paper's related work §II) runs through the same aggregator. With
// two-phase I/O every collective call re-transmits block metadata
// (offset/length lists) to the aggregators, but the access pattern is fully
// determined by the *file views*, which rarely change — so each rank's view
// is exchanged once, when it is set, and every collective call moves
// payload only: aggregators reconstruct everyone's pieces locally from the
// cached views. Its scope is full-view accesses from view offset 0 with the
// same payload size on every rank (the checkpoint pattern view-based I/O
// targets); a cheap min/max allreduce verifies the size agreement.
//
// Faithfulness notes (see DESIGN.md):
//   * every process is an aggregator, and the aggregator buffers its whole
//     file domain — this is the memory behaviour that makes the paper's
//     48 GB configuration fail, and it is charged against the per-rank
//     memory budget;
//   * holes in a write domain are handled by writing only the covered runs
//     (no read-modify-write), which is byte-equivalent for non-overlapping
//     workloads.
#pragma once

#include <vector>

#include "common/types.h"
#include "fs/client.h"
#include "mpi/comm.h"
#include "mpiio/view.h"

namespace tcio::io {

/// One process's contribution to a collective operation: its view-mapped
/// absolute extents (sorted) and, for writes, the matching payload in
/// payload order.
struct CollectiveRequest {
  std::vector<Extent> extents;
  /// Write: source payload bytes (extent order). Read: destination.
  std::byte* payload = nullptr;
};

/// Statistics of one collective call (for tests and the paper's arguments).
struct TwoPhaseStats {
  Bytes aggregator_buffer = 0;  // temporary buffer charged on this rank
  std::int64_t fs_requests = 0;
};

/// Collective write: all ranks must call together. `file` is this rank's
/// open FS handle on the shared file.
///
/// `cb_nodes` enables collective buffering (the extension the paper's
/// related-work section describes and its experiments disable): only
/// `cb_nodes` evenly spread ranks act as aggregators, reducing file-system
/// contention at the price of larger per-aggregator buffers. 0 = every
/// rank aggregates (the paper's OCIO behaviour).
TwoPhaseStats twoPhaseWrite(mpi::Comm& comm, fs::FsClient& fs,
                            fs::FsFile& file, const CollectiveRequest& req,
                            int cb_nodes = 0);

/// Collective read.
TwoPhaseStats twoPhaseRead(mpi::Comm& comm, fs::FsClient& fs,
                           fs::FsFile& file, const CollectiveRequest& req,
                           int cb_nodes = 0);

/// One rank's view, in wire form (identity views have no segments).
struct CachedView {
  bool identity = false;
  Offset disp = 0;
  Bytes tile_payload = 0;
  Bytes tile_extent = 0;
  std::vector<Extent> segments;
};

/// All ranks' views, exchanged once (the view-based metadata exchange).
class ViewCache {
 public:
  /// Collective: every rank contributes its current view.
  static ViewCache exchange(mpi::Comm& comm, const FileView& mine);

  int size() const { return static_cast<int>(views_.size()); }
  const CachedView& of(int rank) const {
    return views_[static_cast<std::size_t>(rank)];
  }

  /// Absolute extents of rank `r` accessing `n` payload bytes from view
  /// offset 0 (computed locally — no communication).
  std::vector<Extent> extentsOf(int rank, Bytes n) const;

 private:
  std::vector<CachedView> views_;
};

/// Collective write of each rank's `n` payload bytes through its cached
/// view. Exactly one alltoallv of payload (plus a 16-byte sanity allreduce)
/// — no per-call metadata exchange.
TwoPhaseStats viewBasedWrite(mpi::Comm& comm, fs::FsClient& fs,
                             fs::FsFile& file, const ViewCache& cache,
                             const std::byte* payload, Bytes n,
                             int cb_nodes = 0);

/// Collective read counterpart.
TwoPhaseStats viewBasedRead(mpi::Comm& comm, fs::FsClient& fs,
                            fs::FsFile& file, const ViewCache& cache,
                            std::byte* payload, Bytes n, int cb_nodes = 0);

}  // namespace tcio::io
