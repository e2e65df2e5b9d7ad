#include "tcio/capi.h"

#include <any>
#include <utility>

#include "common/error.h"
#include "sim/engine.h"
#include "tcio/file.h"

namespace {

struct RankContext {
  tcio::mpi::Comm* comm = nullptr;
  tcio::fs::Filesystem* fsys = nullptr;
  tcio::core::TcioConfig cfg;
};

// One context per simulated rank, kept in the rank's own Proc slot: every
// rank of a job runs on one thread, so thread-local or process-global state
// would alias ranks.
RankContext& ctx() {
  tcio::sim::Proc* proc = tcio::sim::Proc::current();
  TCIO_CHECK_MSG(proc != nullptr, "the TCIO C API must be called by a rank");
  auto* c = std::any_cast<RankContext>(&proc->rankLocal());
  TCIO_CHECK_MSG(c != nullptr,
                 "tcio_set_context() must be called before tcio_open()");
  return *c;
}

}  // namespace

void tcio_set_context(tcio::mpi::Comm& comm, tcio::fs::Filesystem& fsys,
                      tcio::core::TcioConfig cfg) {
  comm.proc().rankLocal() = RankContext{&comm, &fsys, std::move(cfg)};
}

tcio_file* tcio_open(const char* fname, int mode) {
  RankContext& c = ctx();
  return new tcio::core::File(*c.comm, *c.fsys, fname,
                              static_cast<unsigned>(mode), c.cfg);
}

void tcio_stats(tcio_file* fh, tcio_stats_t* out) {
  const tcio::core::TcioDegradedStats& d = fh->stats().degraded;
  *out = {};
  out->fs_transient_faults = d.fs_transient_faults;
  out->fs_retries = d.fs_retries;
  out->fs_retry_giveups = d.fs_retry_giveups;
  out->chunks_remapped = d.chunks_remapped;
  out->chunks_rebalanced = d.chunks_rebalanced;
  out->rma_drops = d.rma_drops;
  out->ranks_crashed = d.ranks_crashed;
  out->segments_taken_over = d.segments_taken_over;
  out->journal_records_replayed = d.journal_records_replayed;
  out->journal_bytes_replayed = static_cast<long long>(d.journal_bytes_replayed);
  out->journal_torn_records = d.journal_torn_records;
  out->unjournaled_segments_lost = d.unjournaled_segments_lost;
  out->degraded = d.any() ? 1 : 0;
}

void tcio_write(tcio_file* fh, const void* data, int count,
                const tcio::mpi::Datatype& type) {
  fh->write(data, count, type);
}

void tcio_write_at(tcio_file* fh, tcio::Offset offset, const void* data,
                   int count, const tcio::mpi::Datatype& type) {
  fh->writeAt(offset, data, count, type);
}

void tcio_read(tcio_file* fh, void* data, int count,
               const tcio::mpi::Datatype& type) {
  fh->read(data, count, type);
}

void tcio_read_at(tcio_file* fh, tcio::Offset offset, void* data, int count,
                  const tcio::mpi::Datatype& type) {
  fh->readAt(offset, data, count, type);
}

void tcio_seek(tcio_file* fh, tcio::Offset offset, int whence) {
  using tcio::core::Whence;
  Whence w = Whence::kSet;
  if (whence == TCIO_SEEK_CUR) w = Whence::kCur;
  if (whence == TCIO_SEEK_END) w = Whence::kEnd;
  fh->seek(offset, w);
}

void tcio_flush(tcio_file* fh) { fh->flush(); }
void tcio_fetch(tcio_file* fh) { fh->fetch(); }

void tcio_close(tcio_file* fh) {
  fh->close();
  delete fh;
}

void tcio_close_stats(tcio_file* fh, tcio_stats_t* out) {
  fh->close();
  tcio_stats(fh, out);
  delete fh;
}
