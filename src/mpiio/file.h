// MPI-IO file handle: collective open/close, file views, independent
// read/write (with optional data sieving for non-contiguous views), and
// two-phase collective read_all/write_all (the OCIO baseline).
#pragma once

#include <string>

#include <memory>

#include "fs/client.h"
#include "mpi/comm.h"
#include "mpiio/twophase.h"
#include "mpiio/view.h"

namespace tcio::io {

struct MpioConfig {
  /// Data sieving for independent non-contiguous accesses (ROMIO-style
  /// read-modify-write through a sieve buffer).
  bool enable_data_sieving = true;
  /// Maximum file span covered by one sieve window.
  Bytes sieve_buffer = 512_KiB;
  /// Collective buffering: number of aggregator ranks for the two-phase
  /// collectives (0 = every rank, the paper's OCIO behaviour).
  int cb_nodes = 0;
  /// View-based collective I/O (Blas et al., CCGRID'08): exchange views
  /// once at setView (which becomes a collective call) and move only
  /// payload in each collective. Requires full-view accesses at offset 0
  /// with the same size on every rank.
  bool view_based = false;
};

/// One rank's handle on a shared MPI-IO file. All collective members must be
/// called by every rank of the communicator in the same order.
class MpioFile {
 public:
  /// Collective open; `flags` are fs::OpenFlags. Creation/truncation is
  /// applied once (by rank 0) before the others open.
  static MpioFile open(mpi::Comm& comm, fs::Filesystem& fsys,
                       const std::string& name, unsigned flags,
                       MpioConfig cfg = {});

  /// MPI_File_set_view. Independent (no synchronization) in two-phase
  /// mode; COLLECTIVE when view_based is enabled (the views are exchanged
  /// here, so all ranks must call together).
  void setView(Offset disp, const mpi::Datatype& etype,
               const mpi::Datatype& filetype);
  const FileView& view() const { return view_; }

  // -- Independent I/O (view-relative byte offsets) -------------------------

  void writeAt(Offset view_off, const void* buf, Bytes n);
  void readAt(Offset view_off, void* buf, Bytes n);

  // -- Collective I/O (two-phase) --------------------------------------------

  /// MPI_File_write_all: collectively writes each rank's `n` view-payload
  /// bytes starting at its view offset `view_off`.
  TwoPhaseStats writeAtAll(Offset view_off, const void* buf, Bytes n);
  TwoPhaseStats readAtAll(Offset view_off, void* buf, Bytes n);

  /// Collective close.
  void close();

  /// Physical file size (bytes), a cheap metadata query.
  Bytes size() const;

  mpi::Comm& comm() { return *comm_; }

 private:
  MpioFile(mpi::Comm& comm, fs::Filesystem& fsys, fs::FsFile file,
           MpioConfig cfg)
      : comm_(&comm), client_(fsys, comm.proc()), file_(file), cfg_(cfg) {}

  CollectiveRequest makeRequest(Offset view_off, const void* buf,
                                Bytes n) const;
  /// The cached views for a view-based collective at `view_off`, after
  /// checking its preconditions.
  const ViewCache& viewCacheFor(Offset view_off) const;
  /// writeAt/readAt body: one FS call per extent, or data sieving.
  void independentIo(Offset view_off, std::byte* user, Bytes n, bool write);

  mpi::Comm* comm_;
  mutable fs::FsClient client_;
  fs::FsFile file_;
  MpioConfig cfg_;
  FileView view_;

  /// Populated by setView when view_based is on.
  std::shared_ptr<const ViewCache> view_cache_;
};

}  // namespace tcio::io
