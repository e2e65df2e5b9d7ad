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

void MpioFile::clearView() { view_ = FileView(); }

CollectiveRequest MpioFile::makeRequest(Offset view_off, const void* buf,
                                        Bytes n) const {
  CollectiveRequest req;
  req.extents = view_.mapExtents(view_off, n);
  req.payload = static_cast<std::byte*>(const_cast<void*>(buf));
  return req;
}

void MpioFile::writeAt(Offset view_off, const void* buf, Bytes n) {
  const std::vector<Extent> extents = view_.mapExtents(view_off, n);
  const auto* src = static_cast<const std::byte*>(buf);
  if (extents.size() <= 1 || !cfg_.enable_data_sieving) {
    for (const Extent& e : extents) {
      client_.pwrite(file_, e.begin, src, e.size());
      src += e.size();
    }
    return;
  }
  // Write data sieving: cover runs of extents with sieve windows, read the
  // window, overlay the pieces, write the whole window back.
  std::size_t i = 0;
  while (i < extents.size()) {
    const Offset wbegin = extents[i].begin;
    std::size_t j = i;
    Offset wend = extents[i].end;
    while (j + 1 < extents.size() &&
           extents[j + 1].end - wbegin <= cfg_.sieve_buffer) {
      ++j;
      wend = extents[j].end;
    }
    std::vector<std::byte> window(static_cast<std::size_t>(wend - wbegin));
    client_.pread(file_, wbegin, window.data(), wend - wbegin);
    for (std::size_t k = i; k <= j; ++k) {
      std::memcpy(window.data() + (extents[k].begin - wbegin), src,
                  static_cast<std::size_t>(extents[k].size()));
      src += extents[k].size();
    }
    comm_->chargeCopy(wend - wbegin);
    client_.pwrite(file_, wbegin, window.data(), wend - wbegin);
    i = j + 1;
  }
}

void MpioFile::readAt(Offset view_off, void* buf, Bytes n) {
  const std::vector<Extent> extents = view_.mapExtents(view_off, n);
  auto* dst = static_cast<std::byte*>(buf);
  if (extents.size() <= 1 || !cfg_.enable_data_sieving) {
    for (const Extent& e : extents) {
      client_.pread(file_, e.begin, dst, e.size());
      dst += e.size();
    }
    return;
  }
  std::size_t i = 0;
  while (i < extents.size()) {
    const Offset wbegin = extents[i].begin;
    std::size_t j = i;
    Offset wend = extents[i].end;
    while (j + 1 < extents.size() &&
           extents[j + 1].end - wbegin <= cfg_.sieve_buffer) {
      ++j;
      wend = extents[j].end;
    }
    std::vector<std::byte> window(static_cast<std::size_t>(wend - wbegin));
    client_.pread(file_, wbegin, window.data(), wend - wbegin);
    for (std::size_t k = i; k <= j; ++k) {
      std::memcpy(dst, window.data() + (extents[k].begin - wbegin),
                  static_cast<std::size_t>(extents[k].size()));
      dst += extents[k].size();
    }
    comm_->chargeCopy(wend - wbegin);
    i = j + 1;
  }
}

TwoPhaseStats MpioFile::writeAtAll(Offset view_off, const void* buf, Bytes n) {
  if (cfg_.view_based) {
    TCIO_CHECK_MSG(view_cache_ != nullptr,
                   "view-based collective requires a prior setView");
    TCIO_CHECK_MSG(view_off == 0,
                   "view-based collective supports full-view accesses only");
    return viewBasedWrite(*comm_, client_, file_, *view_cache_,
                          static_cast<const std::byte*>(buf), n,
                          cfg_.cb_nodes);
  }
  return twoPhaseWrite(*comm_, client_, file_, makeRequest(view_off, buf, n),
                       cfg_.cb_nodes);
}

TwoPhaseStats MpioFile::readAtAll(Offset view_off, void* buf, Bytes n) {
  if (cfg_.view_based) {
    TCIO_CHECK_MSG(view_cache_ != nullptr,
                   "view-based collective requires a prior setView");
    TCIO_CHECK_MSG(view_off == 0,
                   "view-based collective supports full-view accesses only");
    return viewBasedRead(*comm_, client_, file_, *view_cache_,
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
