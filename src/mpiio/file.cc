#include "mpiio/file.h"

#include <cstring>
#include <vector>

namespace tcio::io {

MpioFile MpioFile::open(mpi::Comm& comm, fs::Filesystem& fsys,
                        const std::string& name, unsigned flags,
                        MpioConfig cfg) {
  // Rank 0 performs creation/truncation; everyone else opens the existing
  // file afterwards so a reopen cannot clobber freshly written data.
  fs::FsClient bootstrap(fsys, comm.proc());
  fs::FsFile handle;
  if (comm.rank() == 0) {
    handle = bootstrap.open(name, flags);
    comm.barrier();
  } else {
    comm.barrier();
    handle = bootstrap.open(name, flags & ~(fs::kCreate | fs::kTruncate));
  }
  return MpioFile(comm, fsys, handle, cfg);
}

void MpioFile::setView(Offset disp, const mpi::Datatype& etype,
                       const mpi::Datatype& filetype) {
  view_ = FileView(disp, etype, filetype);
  if (cfg_.view_based) {
    view_cache_ =
        std::make_shared<const ViewCache>(ViewCache::exchange(*comm_, view_));
  }
}

CollectiveRequest MpioFile::makeRequest(Offset view_off, const void* buf,
                                        Bytes n) const {
  CollectiveRequest req;
  req.extents = view_.mapExtents(view_off, n);
  req.payload = static_cast<std::byte*>(const_cast<void*>(buf));
  return req;
}

const ViewCache& MpioFile::viewCacheFor(Offset view_off) const {
  TCIO_CHECK_MSG(view_cache_ != nullptr,
                 "view-based collective requires a prior setView");
  TCIO_CHECK_MSG(view_off == 0,
                 "view-based collective supports full-view accesses only");
  return *view_cache_;
}

void MpioFile::independentIo(Offset view_off, std::byte* user, Bytes n,
                             bool write) {
  const std::vector<Extent> extents = view_.mapExtents(view_off, n);
  if (extents.size() <= 1 || !cfg_.enable_data_sieving) {
    for (const Extent& e : extents) {
      if (write) {
        client_.pwrite(file_, e.begin, user, e.size());
      } else {
        client_.pread(file_, e.begin, user, e.size());
      }
      user += e.size();
    }
    return;
  }
  // Data sieving: cover runs of extents with sieve windows and read each
  // window whole. A read copies the pieces out; a write overlays them and
  // writes the whole window back.
  std::size_t i = 0;
  while (i < extents.size()) {
    const Offset wbegin = extents[i].begin;
    std::size_t j = i;
    while (j + 1 < extents.size() &&
           extents[j + 1].end - wbegin <= cfg_.sieve_buffer) {
      ++j;
    }
    const Bytes span = extents[j].end - wbegin;
    std::vector<std::byte> window(static_cast<std::size_t>(span));
    client_.pread(file_, wbegin, window.data(), span);
    for (std::size_t k = i; k <= j; ++k) {
      std::byte* piece = window.data() + (extents[k].begin - wbegin);
      const auto len = static_cast<std::size_t>(extents[k].size());
      if (write) {
        std::memcpy(piece, user, len);
      } else {
        std::memcpy(user, piece, len);
      }
      user += len;
    }
    comm_->chargeCopy(span);
    if (write) client_.pwrite(file_, wbegin, window.data(), span);
    i = j + 1;
  }
}

void MpioFile::writeAt(Offset view_off, const void* buf, Bytes n) {
  independentIo(view_off, static_cast<std::byte*>(const_cast<void*>(buf)), n,
                /*write=*/true);
}

void MpioFile::readAt(Offset view_off, void* buf, Bytes n) {
  independentIo(view_off, static_cast<std::byte*>(buf), n, /*write=*/false);
}

TwoPhaseStats MpioFile::writeAtAll(Offset view_off, const void* buf, Bytes n) {
  if (cfg_.view_based) {
    return viewBasedWrite(*comm_, client_, file_, viewCacheFor(view_off),
                          static_cast<const std::byte*>(buf), n,
                          cfg_.cb_nodes);
  }
  return twoPhaseWrite(*comm_, client_, file_, makeRequest(view_off, buf, n),
                       cfg_.cb_nodes);
}

TwoPhaseStats MpioFile::readAtAll(Offset view_off, void* buf, Bytes n) {
  if (cfg_.view_based) {
    return viewBasedRead(*comm_, client_, file_, viewCacheFor(view_off),
                         static_cast<std::byte*>(buf), n, cfg_.cb_nodes);
  }
  return twoPhaseRead(*comm_, client_, file_, makeRequest(view_off, buf, n),
                      cfg_.cb_nodes);
}

void MpioFile::close() {
  comm_->barrier();
  client_.close(file_);
}

Bytes MpioFile::size() const { return client_.size(file_); }

}  // namespace tcio::io
