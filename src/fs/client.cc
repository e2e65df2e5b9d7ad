#include "fs/client.h"

#include <string>

#include "sim/backoff.h"

namespace tcio::fs {

namespace {

/// Exhausted multi-attempt budgets surface as the typed RetryExhaustedError;
/// with retry disabled (max_attempts == 1) the original error is preserved.
[[noreturn]] void giveUp(const char* op, const TransientFsError& e,
                         int attempts, int max_attempts) {
  if (max_attempts > 1) {
    throw RetryExhaustedError(std::string(op) + ": retry budget exhausted (" +
                                  std::to_string(attempts) + " attempts): " +
                                  e.what(),
                              attempts);
  }
  throw;
}

}  // namespace

FsFile FsClient::open(const std::string& name, unsigned flags,
                      int stripe_count) {
  for (int attempt = 1;; ++attempt) {
    try {
      Filesystem::OpenResult res;
      Bytes size = 0;
      proc_->atomic([&] {
        res = fs_->open(client_, proc_->now(), name, flags, stripe_count);
        size = fs_->fileSize(res.inode);
      });
      proc_->advanceTo(res.done);
      return FsFile(res.inode, flags, size);
    } catch (const TransientFsError& e) {
      // Transient MDS faults only — FileNotFound is not a TransientFsError
      // and surfaces immediately.
      ++retry_stats_.transient_faults;
      if (attempt >= retry_.max_attempts) {
        ++retry_stats_.giveups;
        giveUp("open", e, attempt, retry_.max_attempts);
      }
      ++retry_stats_.retries;
      proc_->advance(sim::backoffDelay(retry_, attempt, proc_->rng()));
    }
  }
}

void FsClient::pwrite(FsFile& f, Offset off, const void* data, Bytes n) {
  TCIO_CHECK_MSG(f.valid(), "pwrite on closed file");
  TCIO_CHECK_MSG((f.flags_ & kWrite) != 0, "pwrite on read-only handle");
  const auto* p = static_cast<const std::byte*>(data);
  for (int attempt = 1;; ++attempt) {
    try {
      SimTime done = 0;
      proc_->atomic([&] {
        done = fs_->write(client_, proc_->now(), f.inode_,
                          off, {p, static_cast<std::size_t>(n)});
      });
      proc_->advanceTo(done);
      return;
    } catch (const TransientFsError& e) {
      ++retry_stats_.transient_faults;
      if (attempt >= retry_.max_attempts) {
        ++retry_stats_.giveups;
        giveUp("pwrite", e, attempt, retry_.max_attempts);
      }
      ++retry_stats_.retries;
      proc_->advance(sim::backoffDelay(retry_, attempt, proc_->rng()));
    }
  }
}

void FsClient::pread(FsFile& f, Offset off, void* out, Bytes n) {
  TCIO_CHECK_MSG(f.valid(), "pread on closed file");
  TCIO_CHECK_MSG((f.flags_ & kRead) != 0, "pread on write-only handle");
  auto* p = static_cast<std::byte*>(out);
  for (int attempt = 1;; ++attempt) {
    try {
      SimTime done = 0;
      proc_->atomic([&] {
        done = fs_->read(client_, proc_->now(), f.inode_,
                         off, {p, static_cast<std::size_t>(n)});
      });
      proc_->advanceTo(done);
      return;
    } catch (const TransientFsError& e) {
      ++retry_stats_.transient_faults;
      if (attempt >= retry_.max_attempts) {
        ++retry_stats_.giveups;
        giveUp("pread", e, attempt, retry_.max_attempts);
      }
      ++retry_stats_.retries;
      proc_->advance(sim::backoffDelay(retry_, attempt, proc_->rng()));
    }
  }
}

void FsClient::appendJournal(FsFile& f, Offset off, const void* data,
                             Bytes n) {
  TCIO_CHECK_MSG(f.valid(), "appendJournal on closed file");
  TCIO_CHECK_MSG((f.flags_ & kWrite) != 0, "appendJournal on read-only handle");
  const auto* p = static_cast<const std::byte*>(data);
  SimTime done = 0;
  proc_->atomic([&] {
    done = fs_->journalWrite(client_, proc_->now(), f.inode_, off,
                             {p, static_cast<std::size_t>(n)});
  });
  proc_->advanceTo(done);
}

Bytes FsClient::size(const FsFile& f) const {
  TCIO_CHECK_MSG(f.valid(), "size on closed file");
  Bytes n = 0;
  proc_->atomic([&] { n = fs_->fileSize(f.inode_); });
  return n;
}

std::int64_t FsClient::remapFailedChunks(FsFile& f, Offset off, Bytes n) {
  TCIO_CHECK_MSG(f.valid(), "remapFailedChunks on closed file");
  Filesystem::RemapResult res;
  proc_->atomic([&] {
    res = fs_->remapChunks(client_, proc_->now(), f.inode_, off, n);
  });
  if (res.remapped > 0) proc_->advanceTo(res.done);
  return res.remapped;
}

void FsClient::installFaultPlan(const FaultConfig& cfg) {
  proc_->atomic([&] { fs_->installFaultPlan(cfg); });
}

Bytes FsClient::close(FsFile& f) {
  TCIO_CHECK_MSG(f.valid(), "double close");
  for (int attempt = 1;; ++attempt) {
    try {
      SimTime done = 0;
      Bytes size = 0;
      proc_->atomic([&] {
        size = fs_->fileSize(f.inode_);
        done = fs_->close(client_, proc_->now(), f.inode_);
      });
      proc_->advanceTo(done);
      f.inode_ = -1;
      return size;
    } catch (const TransientFsError& e) {
      ++retry_stats_.transient_faults;
      if (attempt >= retry_.max_attempts) {
        ++retry_stats_.giveups;
        giveUp("close", e, attempt, retry_.max_attempts);
      }
      ++retry_stats_.retries;
      proc_->advance(sim::backoffDelay(retry_, attempt, proc_->rng()));
    }
  }
}

}  // namespace tcio::fs
