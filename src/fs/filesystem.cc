#include "fs/filesystem.h"

#include <algorithm>

#include "common/crc32.h"
#include "common/env.h"

namespace tcio::fs {

namespace {

/// Per-byte page digest/verify throughput. Hardware-folded CRC32 (PCLMUL
/// class) runs near memory speed and overlaps the copy pass that is already
/// charged, so only the residual per-byte cost appears here.
constexpr double kChecksumBandwidth = 50.0e9;

/// Write-ahead journal device: sequential append bandwidth and per-record
/// latency. Journal appends bypass the OST queues and extent locks — the
/// model is a node-local intent log (NVMe / flash tier) whose contents
/// remain globally readable for crash recovery. Sized so that journaling
/// every level-2 flush costs well under the striped OST write path.
constexpr double kJournalBandwidth = 2.0e9;
constexpr SimTime kJournalLatency = 20.0e-6;

}  // namespace

Filesystem::Filesystem(FsConfig cfg) : cfg_(cfg), mds_(1.0) {
  TCIO_CHECK(cfg_.num_osts >= 1);
  TCIO_CHECK(cfg_.stripe_size > 0);
  TCIO_CHECK(cfg_.default_stripe_count >= 1 &&
             cfg_.default_stripe_count <= cfg_.num_osts);
  TCIO_CHECK(cfg_.page_size > 0);
  integrity_ = integrityOn(cfg_.integrity);
  osts_.reserve(static_cast<std::size_t>(cfg_.num_osts));
  caches_.reserve(static_cast<std::size_t>(cfg_.num_osts));
  for (int i = 0; i < cfg_.num_osts; ++i) {
    osts_.emplace_back(1.0);  // duration-priced FCFS queue
    caches_.emplace_back(cfg_.cache_capacity_per_ost);
  }
}

Filesystem::Inode& Filesystem::inodeAt(int inode) {
  TCIO_CHECK_MSG(inode >= 0 && inode < static_cast<int>(inodes_.size()),
                 "invalid inode");
  return *inodes_[static_cast<std::size_t>(inode)];
}

const Filesystem::Inode& Filesystem::inodeAt(int inode) const {
  TCIO_CHECK_MSG(inode >= 0 && inode < static_cast<int>(inodes_.size()),
                 "invalid inode");
  return *inodes_[static_cast<std::size_t>(inode)];
}

Filesystem::OpenResult Filesystem::open(int client, SimTime t,
                                        const std::string& name,
                                        unsigned flags, int stripe_count) {
  ++ops_by_client_[client];
  ++stats_.opens;
  maybeMdsFault(FaultPlan::MdsVerb::kOpen, name);
  const auto it = names_.find(name);
  int inode;
  if (it == names_.end()) {
    if ((flags & kCreate) == 0) {
      throw FileNotFound(name);
    }
    auto ino = std::make_unique<Inode>();
    ino->name = name;
    ino->locks = std::make_unique<LockManager>(cfg_);
    ino->stripe_count =
        stripe_count > 0 ? std::min(stripe_count, cfg_.num_osts)
                         : cfg_.default_stripe_count;
    ino->start_ost = next_start_ost_;
    next_start_ost_ = (next_start_ost_ + ino->stripe_count) % cfg_.num_osts;
    inode = static_cast<int>(inodes_.size());
    inodes_.push_back(std::move(ino));
    names_[name] = inode;
  } else {
    inode = it->second;
    if ((flags & kTruncate) != 0) {
      inodeAt(inode).store.clear();
      inodeAt(inode).locks = std::make_unique<LockManager>(cfg_);
    }
  }
  const SimTime done =
      mds_.serveDuration(t + cfg_.rpc_latency, cfg_.mds_open) +
      cfg_.rpc_latency;
  return {inode, done};
}

template <typename F>
void Filesystem::forEachOstRun(const Inode& ino, Offset off, Bytes n,
                               F&& fn) const {
  if (n <= 0) return;
  if (ino.stripe_count == 1) {
    fn(ostOf(ino, off), off, n);
    return;
  }
  Offset cur = off;
  const Offset end = off + n;
  int run_ost = ostOf(ino, cur);
  Offset run_begin = cur;
  while (cur < end) {
    const Offset chunk_end =
        std::min(end, (cur / cfg_.stripe_size + 1) * cfg_.stripe_size);
    const int ost = ostOf(ino, cur);
    if (ost != run_ost) {
      fn(run_ost, run_begin, cur - run_begin);
      run_ost = ost;
      run_begin = cur;
    }
    cur = chunk_end;
  }
  fn(run_ost, run_begin, cur - run_begin);
}

SimTime Filesystem::write(int client, SimTime t, int inode, Offset off,
                          std::span<const std::byte> data) {
  Inode& ino = inodeAt(inode);
  const Bytes n = static_cast<Bytes>(data.size());
  if (n == 0) return t;
  ++ops_by_client_[client];
  if (plan_ != nullptr && plan_->nextWriteCall()) {
    throw TransientFsError("injected write fault on " + ino.name);
  }
  SimTime done = maybeRebalance(t, ino);
  forEachOstRun(ino, off, n, [&](int ost, Offset roff, Bytes rlen) {
    ++stats_.write_requests;
    maybeFault(FaultPlan::FsVerb::kWrite, ost, t, ino);
    stats_.bytes_written += rlen;
    const LockManager::Cost lock = ino.locks->acquireWrite(client, roff, rlen);
    SimTime duration = cfg_.ost_request_overhead + lock.delay +
                       static_cast<double>(rlen) / cfg_.ost_write_bandwidth;
    if (cfg_.small_write_penalty > 0 &&
        (roff % cfg_.page_size != 0 || rlen < cfg_.page_size)) {
      duration += cfg_.small_write_penalty;  // page read-modify-write
    }
    if (plan_ != nullptr) duration *= plan_->serviceMultiplier(ost);
    const SimTime end =
        osts_[static_cast<std::size_t>(ost)].serveDuration(
            t + cfg_.rpc_latency, duration) +
        cfg_.rpc_latency;
    caches_[static_cast<std::size_t>(ost)].insert(inode, roff, rlen);
    done = std::max(done, end);
  });
  ino.store.write(off, data);
  if (integrity_) {
    digestPages(ino, off, n);
    // Digest pass over the acknowledged bytes (hardware-folded CRC; the
    // replica mirror is asynchronous and charges nothing in the foreground).
    done += static_cast<double>(n) / kChecksumBandwidth;
  }
  if (plan_ != nullptr &&
      plan_->corruption().fires(CorruptSite::kStoredBlock)) {
    // Silent media corruption of an already-acknowledged block: flips a bit
    // in the primary store only, after the digests were taken, so the next
    // verified read sees bytes that disagree with their recorded CRC.
    flipStoredBit(ino, off, n);
  }
  return done;
}

SimTime Filesystem::read(int client, SimTime t, int inode, Offset off,
                         std::span<std::byte> out) {
  Inode& ino = inodeAt(inode);
  const Bytes n = static_cast<Bytes>(out.size());
  if (n == 0) return t;
  ++ops_by_client_[client];
  SimTime done = maybeRebalance(t, ino);
  forEachOstRun(ino, off, n, [&](int ost, Offset roff, Bytes rlen) {
    ++stats_.read_requests;
    maybeFault(FaultPlan::FsVerb::kRead, ost, t, ino);
    stats_.bytes_read += rlen;
    auto& cache = caches_[static_cast<std::size_t>(ost)];
    const Bytes resident = cache.residentBytes(inode, roff, rlen);
    stats_.bytes_read_from_cache += resident;
    const LockManager::Cost lock = ino.locks->acquireRead(client, roff, rlen);
    const SimTime base_overhead = resident == rlen
                                      ? cfg_.cache_hit_overhead
                                      : cfg_.ost_request_overhead;
    const SimTime duration =
        (base_overhead + lock.delay +
         static_cast<double>(resident) / cfg_.cache_read_bandwidth +
         static_cast<double>(rlen - resident) / cfg_.ost_read_bandwidth) *
        (plan_ != nullptr ? plan_->serviceMultiplier(ost) : 1.0);
    const SimTime end =
        osts_[static_cast<std::size_t>(ost)].serveDuration(
            t + cfg_.rpc_latency, duration) +
        cfg_.rpc_latency;
    cache.insert(inode, roff, rlen);  // disk reads populate the cache too
    done = std::max(done, end);
  });
  if (integrity_) {
    verifyPages(ino, off, n);
    done += static_cast<double>(n) / kChecksumBandwidth;
  }
  ino.store.read(off, out);
  return done;
}

SimTime Filesystem::close(int client, SimTime t, int inode) {
  ++ops_by_client_[client];
  Inode& ino = inodeAt(inode);  // validity check
  maybeMdsFault(FaultPlan::MdsVerb::kClose, ino.name);
  return mds_.serveDuration(t + cfg_.rpc_latency, cfg_.mds_open / 4) +
         cfg_.rpc_latency;
}

SimTime Filesystem::journalWrite(int client, SimTime t, int inode, Offset off,
                                 std::span<const std::byte> data) {
  Inode& ino = inodeAt(inode);
  const Bytes n = static_cast<Bytes>(data.size());
  if (n == 0) return t;
  ++ops_by_client_[client];
  ++stats_.journal_writes;
  stats_.journal_bytes += n;
  const SimTime end =
      t + kJournalLatency + static_cast<double>(n) / kJournalBandwidth;
  ino.store.write(off, data);
  if (plan_ != nullptr &&
      plan_->corruption().fires(CorruptSite::kJournalBody)) {
    // The journal device is never page-digested or replicated: a bit flip in
    // a committed record survives to replay, where the record's own frame
    // CRC catches it and the record is dropped.
    flipStoredBit(ino, off, n);
  }
  return end;
}

Bytes Filesystem::fileSize(int inode) const { return inodeAt(inode).store.size(); }

bool Filesystem::exists(const std::string& name) const {
  return names_.find(name) != names_.end();
}

void Filesystem::peek(const std::string& name, Offset off,
                      std::span<std::byte> out) const {
  const auto it = names_.find(name);
  TCIO_CHECK_MSG(it != names_.end(), "peek: no such file: " + name);
  inodeAt(it->second).store.read(off, out);
}

Bytes Filesystem::peekSize(const std::string& name) const {
  const auto it = names_.find(name);
  TCIO_CHECK_MSG(it != names_.end(), "peekSize: no such file: " + name);
  return inodeAt(it->second).store.size();
}

void Filesystem::installFaultPlan(const FaultConfig& cfg) {
  if (plan_ != nullptr) return;  // first installation wins (shared schedule)
  plan_ = std::make_unique<FaultPlan>(cfg, FaultPlan::kFsSalt);
}

void Filesystem::maybeFault(FaultPlan::FsVerb verb, int ost, SimTime t,
                            const Inode& ino) {
  if (plan_ == nullptr) return;
  switch (plan_->nextFsRequest(verb, ost, t)) {
    case FaultPlan::FsOutcome::kNone:
      return;
    case FaultPlan::FsOutcome::kTransient:
      throw TransientFsError("transient fault on " + ino.name + " (ost " +
                             std::to_string(ost) + ")");
    case FaultPlan::FsOutcome::kOstFailed:
      throw OstFailedError("ost " + std::to_string(ost) +
                               " failed permanently serving " + ino.name,
                           ost);
  }
}

void Filesystem::maybeMdsFault(FaultPlan::MdsVerb verb,
                               const std::string& name) {
  if (plan_ == nullptr) return;
  if (!plan_->nextMdsOp(verb)) return;
  throw TransientFsError(
      std::string("mds ") +
      (verb == FaultPlan::MdsVerb::kOpen ? "open" : "close") +
      " fault on " + name);
}

SimTime Filesystem::maybeRebalance(SimTime t, Inode& ino) {
  if (plan_ == nullptr || ino.remap.empty() || !plan_->ostRecovered()) {
    return t;
  }
  // The failed OST came back: drop every remap override whose home
  // (striping-layout) OST is the recovered one, so reads and writes route
  // there again. Chunks whose data only exists on the remap target keep the
  // override — the store holds one logical copy, so in this model a restripe
  // is purely a layout update.
  const int recovered = plan_->config().fail_ost;
  std::int64_t moved = 0;
  for (auto it = ino.remap.begin(); it != ino.remap.end();) {
    const std::int64_t chunk = it->first;
    const int home =
        (ino.start_ost + static_cast<int>(chunk % ino.stripe_count)) %
        cfg_.num_osts;
    if (home == recovered) {
      it = ino.remap.erase(it);
      ++moved;
    } else {
      ++it;
    }
  }
  if (moved == 0) return t;
  stats_.chunks_rebalanced += moved;
  // Layout update: one MDS op, like the failover restripe that created it.
  return mds_.serveDuration(t + cfg_.rpc_latency, cfg_.mds_open) +
         cfg_.rpc_latency;
}

Filesystem::RemapResult Filesystem::remapChunks(int client, SimTime t,
                                                int inode, Offset off,
                                                Bytes n) {
  (void)client;
  RemapResult res{0, t};
  Inode& ino = inodeAt(inode);
  if (plan_ == nullptr || n <= 0) return res;
  const std::int64_t first = off / cfg_.stripe_size;
  const std::int64_t last = (off + n - 1) / cfg_.stripe_size;
  for (std::int64_t chunk = first; chunk <= last; ++chunk) {
    if (!plan_->ostFailed(ostOf(ino, chunk * cfg_.stripe_size))) continue;
    int target = -1;
    for (int probe = 0; probe < cfg_.num_osts; ++probe) {
      const int ost = (next_remap_ost_ + probe) % cfg_.num_osts;
      if (!plan_->ostFailed(ost)) {
        target = ost;
        next_remap_ost_ = (ost + 1) % cfg_.num_osts;
        break;
      }
    }
    if (target < 0) return res;  // no survivors; caller surfaces the error
    ino.remap[chunk] = target;
    ++res.remapped;
    ++stats_.chunks_remapped;
  }
  if (res.remapped > 0) {
    // The restripe is an MDS-side layout update: one metadata op.
    res.done = mds_.serveDuration(t + cfg_.rpc_latency, cfg_.mds_open) +
               cfg_.rpc_latency;
  }
  return res;
}

void Filesystem::digestPages(Inode& ino, Offset off, Bytes n) {
  const Bytes page = cfg_.page_size;
  const std::int64_t first = off / page;
  const std::int64_t last = (off + n - 1) / page;
  std::vector<std::byte> buf(static_cast<std::size_t>(page));
  for (std::int64_t p = first; p <= last; ++p) {
    // Full-page digests: the store reads holes and past-EOF bytes as zeros,
    // so a digest taken before the file grows stays valid afterwards.
    ino.store.read(p * page, buf);
    ino.page_crc[p] = crc32(buf);
    if (cfg_.integrity_replicas) ino.replica.write(p * page, buf);
  }
}

void Filesystem::verifyPages(Inode& ino, Offset off, Bytes n) {
  if (ino.page_crc.empty()) return;  // never-digested file (journal inode)
  const Bytes page = cfg_.page_size;
  const std::int64_t first = off / page;
  const std::int64_t last = (off + n - 1) / page;
  std::vector<std::byte> buf(static_cast<std::size_t>(page));
  for (std::int64_t p = first; p <= last; ++p) {
    const auto it = ino.page_crc.find(p);
    if (it == ino.page_crc.end()) continue;  // page never written
    ++stats_.integrity_page_checks;
    ino.store.read(p * page, buf);
    if (crc32(buf) == it->second) continue;
    ++stats_.integrity_page_mismatches;
    if (cfg_.integrity_replicas) {
      ino.replica.read(p * page, buf);
      if (crc32(buf) == it->second) {
        // Read-repair: the replica still matches the recorded digest — heal
        // the primary copy and serve the read from the repaired bytes.
        ino.store.write(p * page, buf);
        ++stats_.integrity_pages_repaired;
        continue;
      }
    }
    throw IntegrityError("stored-block corruption on " + ino.name + " page " +
                         std::to_string(p) +
                         (cfg_.integrity_replicas
                              ? ": replica also fails its digest"
                              : ": no replica configured"));
  }
}

void Filesystem::flipStoredBit(Inode& ino, Offset off, Bytes n) {
  std::vector<std::byte> buf(static_cast<std::size_t>(n));
  ino.store.read(off, buf);
  if (plan_->corruption().flipBit(buf) < 0) return;
  ino.store.write(off, buf);
  ++stats_.corruptions_injected;
}

std::int64_t Filesystem::revocations(const std::string& name) const {
  const auto it = names_.find(name);
  TCIO_CHECK_MSG(it != names_.end(), "revocations: no such file: " + name);
  return inodeAt(it->second).locks->revocations();
}

}  // namespace tcio::fs
