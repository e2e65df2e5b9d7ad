// The paper's Program 1 API, verbatim:
//
//   tcio_file* tcio_open(char* fname, int mode)
//   tcio_write(tcio_file* fh, void* data, int count, MPI_Datatype type)
//   tcio_write_at(tcio_file* fh, MPI_Offset offset, void* data, int count,
//                 MPI_Datatype type)
//   tcio_read(tcio_file* fh, void* data, int count, MPI_Datatype type)
//   tcio_read_at(tcio_file* fh, MPI_Offset offset, void* data, int count,
//                MPI_Datatype type)
//   tcio_seek(tcio_file* fh, MPI_Offset offset, int whence)
//   tcio_flush(tcio_file* fh)
//   tcio_fetch(tcio_file* fh)
//   tcio_close(tcio_file* fh)
//
// Because the simulated MPI job carries its communicator explicitly (there
// is no process-global MPI_COMM_WORLD in a simulation hosting many ranks in
// one process), a rank binds its communicator, file system, and TCIO
// configuration to itself once with tcio_set_context(); the Program 1 calls
// then look exactly like the paper's. The binding belongs to the simulated
// rank (all ranks of a job share one thread) and ends with the job.
#pragma once

#include "fs/filesystem.h"
#include "mpi/comm.h"
#include "mpi/datatype.h"
#include "tcio/config.h"

namespace tcio::core {
class File;
}

/// Opaque file handle (Program 1's tcio_file).
using tcio_file = tcio::core::File;

// Seek whence values (POSIX-style).
constexpr int TCIO_SEEK_SET = 0;
constexpr int TCIO_SEEK_CUR = 1;
constexpr int TCIO_SEEK_END = 2;

// Open modes (combine with |). Aliases of fs::OpenFlags.
constexpr int TCIO_RDONLY = 1;   // fs::kRead
constexpr int TCIO_WRONLY = 2;   // fs::kWrite
constexpr int TCIO_RDWR = 3;
constexpr int TCIO_CREATE = 4;   // fs::kCreate
constexpr int TCIO_TRUNC = 8;    // fs::kTruncate

/// Binds the calling rank's context; call once per rank before tcio_open.
void tcio_set_context(tcio::mpi::Comm& comm, tcio::fs::Filesystem& fsys,
                      tcio::core::TcioConfig cfg = {});

/// Fault-recovery counters, mirrored from the C++ TcioStats so a Program 1
/// caller can check degraded-mode health without including the C++ types.
/// All fields are zero in a healthy run.
struct tcio_stats_t {
  long long fs_transient_faults;   // TransientFsErrors this rank saw
  long long fs_retries;            // backoff-then-retry cycles
  long long fs_retry_giveups;      // retry budget exhausted
  long long chunks_remapped;       // failed-OST chunks failed over
  long long chunks_rebalanced;     // remapped chunks moved home again
  long long rma_drops;             // dropped RMA payloads (job-wide)
  long long ranks_crashed;         // dead ranks agreed by liveness
  long long segments_taken_over;   // orphaned segments this rank adopted
  long long journal_records_replayed;  // WAL records replayed here
  long long journal_bytes_replayed;    // payload bytes those carried
  long long journal_torn_records;      // torn tails dropped during replay
  long long unjournaled_segments_lost; // adopted segments with no journal
  int degraded;  // 1 when any field above is nonzero
};

tcio_file* tcio_open(const char* fname, int mode);
/// Fills `out` with the file's current fault-recovery counters. Valid any
/// time between tcio_open and tcio_close; counters are synchronized at
/// collective points (flush/fetch/close).
void tcio_stats(tcio_file* fh, tcio_stats_t* out);
void tcio_write(tcio_file* fh, const void* data, int count,
                const tcio::mpi::Datatype& type);
void tcio_write_at(tcio_file* fh, tcio::Offset offset, const void* data,
                   int count, const tcio::mpi::Datatype& type);
void tcio_read(tcio_file* fh, void* data, int count,
               const tcio::mpi::Datatype& type);
void tcio_read_at(tcio_file* fh, tcio::Offset offset, void* data, int count,
                  const tcio::mpi::Datatype& type);
void tcio_seek(tcio_file* fh, tcio::Offset offset, int whence);
void tcio_flush(tcio_file* fh);
void tcio_fetch(tcio_file* fh);
void tcio_close(tcio_file* fh);
/// Like tcio_close, but fills `out` with the FINAL counters first. Crash
/// recovery (liveness agreement, takeover, journal replay) happens inside
/// close, so its counters are only observable through this variant —
/// tcio_close frees the handle before they could be read.
void tcio_close_stats(tcio_file* fh, tcio_stats_t* out);
