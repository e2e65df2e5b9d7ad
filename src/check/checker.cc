#include "check/checker.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/crc32.h"
#include "common/env.h"

namespace tcio::check {

namespace {

/// Keep at most this many un-retired collective signatures per context
/// before dropping the prefix every rank has passed.
constexpr std::int64_t kSigCompactionThreshold = 1024;

std::uint32_t blockCrc(const void* src, Bytes len) {
  return crc32(std::span<const std::byte>(static_cast<const std::byte*>(src),
                                          static_cast<std::size_t>(len)));
}

}  // namespace

const char* collOpName(CollOp op) {
  switch (op) {
    case CollOp::kBarrier: return "barrier";
    case CollOp::kBcast: return "bcast";
    case CollOp::kReduce: return "reduce";
    case CollOp::kGather: return "gather";
    case CollOp::kAllgather: return "allgather";
    case CollOp::kAlltoallv: return "alltoallv";
    case CollOp::kWinCreate: return "win_create";
    case CollOp::kAgree: return "agree";
  }
  return "?";
}

bool Checker::enabled() {
#ifdef TCIO_CHECK_DEFAULT_ON
  constexpr std::int64_t kDefault = 1;
#else
  constexpr std::int64_t kDefault = 0;
#endif
  static const bool on = envInt64("TCIO_CHECK", kDefault) != 0;
  return on;
}

Checker::Checker(int world_size)
    : world_size_(world_size),
      labels_(static_cast<std::size_t>(world_size)),
      user_tags_(static_cast<std::size_t>(world_size)),
      waits_(static_cast<std::size_t>(world_size)) {
  for (auto& l : labels_) l.store(nullptr, std::memory_order_relaxed);
  for (auto& t : user_tags_) t.store(kNoUserTag, std::memory_order_relaxed);
  registerComm(/*context=*/0, world_size);
}

void Checker::setLabel(Rank world_rank, const char* label) {
  labels_[static_cast<std::size_t>(world_rank)].store(
      label, std::memory_order_relaxed);
}

const char* Checker::label(Rank world_rank) const {
  return labels_[static_cast<std::size_t>(world_rank)].load(
      std::memory_order_relaxed);
}

void Checker::setUserTag(Rank world_rank, std::int64_t tag) {
  user_tags_[static_cast<std::size_t>(world_rank)].store(
      tag, std::memory_order_relaxed);
}

std::int64_t Checker::userTag(Rank world_rank) const {
  return user_tags_[static_cast<std::size_t>(world_rank)].load(
      std::memory_order_relaxed);
}

void Checker::fail(const std::string& msg) {
  violations_.fetch_add(1, std::memory_order_relaxed);
  throw CheckFailure("checker: " + msg);
}

namespace {

void appendLabel(std::ostringstream& os, const char* label) {
  if (label != nullptr) os << " [" << label << "]";
}

}  // namespace

// -- Collective matching ------------------------------------------------------

void Checker::registerComm(int context, int size) {
  CommRec& c = comms_[context];
  if (c.size == 0) {
    c.size = size;
    c.next_call.assign(static_cast<std::size_t>(size), 0);
    return;
  }
  if (c.size != size) {
    std::ostringstream os;
    os << "communicator context " << context << " registered with size "
       << c.size << " but re-registered with size " << size
       << " (split/shrink groups disagree)";
    fail(os.str());
  }
}

void Checker::onCollective(int context, Rank comm_rank, Rank world_rank,
                           CollOp op, Rank root, Bytes bytes,
                           const char* site) {
  auto it = comms_.find(context);
  if (it == comms_.end()) {
    // A context created outside registerComm's call paths; track it with the
    // world size as a safe upper bound on the group.
    registerComm(context, world_size_);
    it = comms_.find(context);
  }
  CommRec& c = it->second;
  if (comm_rank < 0 || comm_rank >= static_cast<Rank>(c.next_call.size())) {
    std::ostringstream os;
    os << "collective on context " << context << " from rank " << comm_rank
       << " outside the registered group size " << c.size;
    fail(os.str());
  }
  const std::int64_t k = c.next_call[static_cast<std::size_t>(comm_rank)]++;
  const std::int64_t idx = k - c.base;
  const std::int64_t tag = userTag(world_rank);
  ++stats_.collectives_checked;
  if (idx == static_cast<std::int64_t>(c.sigs.size())) {
    c.sigs.push_back(CollSig{op, root, bytes, tag, site, label(world_rank),
                             world_rank});
    // Retire the prefix every rank has passed.
    if (idx >= kSigCompactionThreshold) {
      const std::int64_t min_next =
          *std::min_element(c.next_call.begin(), c.next_call.end());
      if (min_next > c.base) {
        c.sigs.erase(c.sigs.begin(),
                     c.sigs.begin() + (min_next - c.base));
        c.base = min_next;
      }
    }
    return;
  }
  const CollSig& ref = c.sigs[static_cast<std::size_t>(idx)];
  if (ref.op == op && ref.root == root && ref.bytes == bytes) {
    // MPI-level signature matches; verify the application phase too. An
    // untagged side matches anything (legacy callers, MPI-internal paths).
    if (ref.tag == kNoUserTag || tag == kNoUserTag) return;
    ++stats_.tags_checked;
    if (ref.tag == tag) return;
    std::ostringstream os;
    os << "user tag mismatch on context " << context << ", call #" << k
       << ": rank " << comm_rank << " (world " << world_rank << ") entered "
       << collOpName(op) << " tagged " << tag << " (actual) at " << site;
    appendLabel(os, label(world_rank));
    os << ", but world rank " << ref.first_world_rank << " recorded tag "
       << ref.tag << " (expected) at " << ref.site;
    appendLabel(os, ref.label);
    fail(os.str());
  }
  std::ostringstream os;
  os << "collective mismatch on context " << context << ", call #" << k
     << ": rank " << comm_rank << " (world " << world_rank << ") called "
     << collOpName(op);
  if (root >= 0) os << " root=" << root;
  if (bytes >= 0) os << " " << bytes << "B";
  os << " at " << site;
  appendLabel(os, label(world_rank));
  os << ", but world rank " << ref.first_world_rank << " called "
     << collOpName(ref.op);
  if (ref.root >= 0) os << " root=" << ref.root;
  if (ref.bytes >= 0) os << " " << ref.bytes << "B";
  os << " at " << ref.site;
  appendLabel(os, ref.label);
  fail(os.str());
}

// -- RMA epoch state machine --------------------------------------------------

void Checker::onEpochOpen(const void* win, Rank origin_world,
                          Rank target_world, bool exclusive,
                          const char* site) {
  auto& by_origin = epochs_[{win, target_world}];
  // The lock protocol must never co-schedule an exclusive epoch with any
  // other epoch on the same (window, target).
  if (exclusive && !by_origin.empty()) {
    std::ostringstream os;
    os << "exclusive lock granted to rank " << origin_world << " on target "
       << target_world << " at " << site << " while rank "
       << by_origin.begin()->first << "'s epoch is still open (from "
       << by_origin.begin()->second.site << ")";
    fail(os.str());
  }
  if (!by_origin.empty() && by_origin.begin()->second.exclusive) {
    std::ostringstream os;
    os << "shared lock granted to rank " << origin_world << " on target "
       << target_world << " at " << site << " while rank "
       << by_origin.begin()->first << " holds it exclusively";
    fail(os.str());
  }
  EpochRec& e = by_origin[origin_world];
  e.exclusive = exclusive;
  e.site = site;
  e.puts.clear();
  ++stats_.epochs_opened;
}

void Checker::onPut(const void* win, Rank origin_world, Rank target_world,
                    std::span<const PutBlockRef> blocks, const char* site) {
  auto& by_origin = epochs_[{win, target_world}];
  auto self = by_origin.find(origin_world);
  if (self == by_origin.end()) {
    failOutsideEpoch(origin_world, target_world, site);
  }
  for (const PutBlockRef& b : blocks) {
    if (b.len <= 0) continue;
    const auto* src = static_cast<const std::byte*>(b.src);
    // Conflict scan: an overlapping put from a *concurrently open* epoch of
    // another origin is undefined behavior under MPI unless the bytes agree
    // (TCIO's flag bytes overlap by design with identical values).
    for (const auto& [other_rank, other] : by_origin) {
      if (other_rank == origin_world) continue;
      for (const PutRecord& pr : other.puts) {
        const Offset lo = std::max(b.disp, pr.disp);
        const Offset hi = std::min(b.disp + b.len, pr.disp + pr.len);
        if (lo >= hi) continue;
        const bool same = std::memcmp(src + (lo - b.disp),
                                      pr.bytes.data() + (lo - pr.disp),
                                      static_cast<std::size_t>(hi - lo)) == 0;
        if (same) {
          ++stats_.benign_overlaps;
          continue;
        }
        std::ostringstream os;
        os << "conflicting overlapping RMA puts on target " << target_world
           << " bytes [" << lo << ", " << hi << "): rank " << origin_world
           << " at " << site;
        appendLabel(os, label(origin_world));
        os << " vs rank " << other_rank << " at " << pr.site;
        appendLabel(os, label(other_rank));
        os << " (concurrent epochs, differing contents)";
        fail(os.str());
      }
    }
    PutRecord rec;
    rec.disp = b.disp;
    rec.len = b.len;
    rec.src = b.src;
    rec.crc = blockCrc(b.src, b.len);
    rec.bytes.assign(src, src + b.len);
    rec.site = site;
    self->second.puts.push_back(std::move(rec));
    ++stats_.puts_checked;
  }
}

void Checker::onEpochClose(const void* win, Rank origin_world,
                           Rank target_world, const char* site) {
  auto& by_origin = epochs_[{win, target_world}];
  auto self = by_origin.find(origin_world);
  if (self == by_origin.end()) {
    std::ostringstream os;
    os << "rank " << origin_world << " unlocked target " << target_world
       << " at " << site << " without an open epoch";
    fail(os.str());
  }
  for (const PutRecord& pr : self->second.puts) {
    if (blockCrc(pr.src, pr.len) != pr.crc) {
      std::ostringstream os;
      os << "rank " << origin_world << " modified (or freed) a put source "
         << "buffer before closing the epoch on target " << target_world
         << ": " << pr.len << "B put at " << pr.site
         << ", detected at " << site;
      appendLabel(os, label(origin_world));
      fail(os.str());
    }
  }
  by_origin.erase(self);
}

void Checker::onWindowFreed(const void* win) {
  epochs_.erase(epochs_.lower_bound({win, std::numeric_limits<Rank>::min()}),
                epochs_.upper_bound({win, std::numeric_limits<Rank>::max()}));
}

void Checker::failOutsideEpoch(Rank origin_world, Rank target,
                               const char* site) {
  std::ostringstream os;
  os << "rank " << origin_world
     << " issued a one-sided access outside a lock epoch on target " << target
     << " at " << site;
  appendLabel(os, label(origin_world));
  fail(os.str());
}

// -- TCIO segment ownership and drain coverage --------------------------------

Rank Checker::expectedOwner(const FileRec& fr, SegmentId g) const {
  const auto it = fr.remap.find(g);
  if (it != fr.remap.end()) return it->second;
  return static_cast<Rank>(g % fr.num_ranks);
}

Checker::FileRec& Checker::fileRec(const std::string& name, const char* site) {
  auto it = files_.find(name);
  if (it == files_.end()) {
    std::ostringstream os;
    os << "TCIO hook at " << site << " for unregistered file '" << name << "'";
    fail(os.str());
  }
  return it->second;
}

void Checker::registerFile(const std::string& name, int num_ranks,
                           Bytes segment_size,
                           std::int64_t segments_per_rank,
                           unsigned open_flags) {
  FileRec& fr = files_[name];
  if (fr.session_done || fr.num_ranks == 0) {
    fr = FileRec{};
    fr.num_ranks = num_ranks;
    fr.segment_size = segment_size;
    fr.segments_per_rank = segments_per_rank;
    fr.open_flags = open_flags;
  } else if (fr.open_flags != open_flags) {
    std::ostringstream os;
    os << "file '" << name << "' opened with divergent open flags: 0x"
       << std::hex << fr.open_flags << " vs 0x" << open_flags << std::dec
       << " — the access mode must be the same on every rank";
    fail(os.str());
  } else if (fr.num_ranks != num_ranks || fr.segment_size != segment_size ||
             fr.segments_per_rank != segments_per_rank) {
    std::ostringstream os;
    os << "file '" << name << "' opened with divergent segment geometry: ("
       << fr.num_ranks << " ranks, " << fr.segment_size << "B segments, "
       << fr.segments_per_rank << "/rank) vs (" << num_ranks << ", "
       << segment_size << "B, " << segments_per_rank << "/rank)";
    fail(os.str());
  }
  ++fr.registered;
}

void Checker::noteSessionAborted(const std::string& name) {
  const auto it = files_.find(name);
  if (it != files_.end()) it->second.session_done = true;
}

void Checker::noteRemap(const std::string& name, SegmentId g, Rank new_owner) {
  fileRec(name, "noteRemap").remap[g] = new_owner;
}

void Checker::noteDeath(const std::string& name, Rank orig_rank) {
  fileRec(name, "noteDeath").dead.insert(orig_rank);
}

void Checker::noteSegmentLost(const std::string& name, SegmentId g) {
  fileRec(name, "noteSegmentLost").lost.insert(g);
}

void Checker::noteDirty(const std::string& name, SegmentId g) {
  fileRec(name, "noteDirty").dirty.insert(g);
}

void Checker::onSegmentTransfer(const std::string& name, SegmentId g,
                                Rank dest_orig, const char* site) {
  FileRec& fr = fileRec(name, site);
  const Rank want = expectedOwner(fr, g);
  ++stats_.transfers_checked;
  if (dest_orig == want) return;
  std::ostringstream os;
  os << "file '" << name << "': level-2 transfer for segment " << g
     << " landed on rank " << dest_orig << " but the segment map owns it to "
     << "rank " << want << " (g % P = " << (g % fr.num_ranks)
     << (fr.remap.count(g) != 0 ? ", remapped after takeover" : "")
     << ") at " << site;
  fail(os.str());
}

void Checker::onDrain(const std::string& name, SegmentId g, Rank rank_orig,
                      const char* site) {
  FileRec& fr = fileRec(name, site);
  const Rank want = expectedOwner(fr, g);
  ++stats_.drains_checked;
  if (rank_orig != want) {
    std::ostringstream os;
    os << "file '" << name << "': close-time write of segment " << g
       << " performed by rank " << rank_orig << " which does not own it "
       << "(owner is rank " << want << ") at " << site;
    fail(os.str());
  }
  const auto it = fr.drained.find(g);
  if (it != fr.drained.end() && it->second == rank_orig) {
    std::ostringstream os;
    os << "file '" << name << "': segment " << g << " drained twice by rank "
       << rank_orig << " at " << site
       << " — close-time writes must be disjoint";
    fail(os.str());
  }
  fr.drained[g] = rank_orig;
}

void Checker::onFileClosed(const std::string& name, Bytes final_size,
                           Rank rank_orig) {
  FileRec& fr = fileRec(name, "onFileClosed");
  (void)rank_orig;
  ++fr.closed;
  fr.final_size = std::max(fr.final_size, final_size);
  const int live = fr.num_ranks - static_cast<int>(fr.dead.size());
  if (fr.closed < live) return;
  fr.session_done = true;
  ++stats_.files_closed;
  for (const SegmentId g : fr.dirty) {
    if (fr.lost.count(g) != 0) continue;
    if (g * fr.segment_size >= fr.final_size) continue;  // truncated away
    if (fr.drained.count(g) != 0) continue;
    std::ostringstream os;
    os << "file '" << name << "': dirty segment " << g << " (bytes ["
       << g * fr.segment_size << ", " << (g + 1) * fr.segment_size
       << ")) was never written back at close — close-time writes do not "
       << "cover the dirty extent (file size " << fr.final_size << ")";
    fail(os.str());
  }
}

// -- Wait-for-graph deadlock detection ----------------------------------------

namespace {
bool edgePending(const Checker::WaitEdge& e) {
  return e.ev == nullptr || !e.ev->ready();
}
}  // namespace

void Checker::beginWait(Rank waiter_world,
                        std::function<std::vector<Rank>()> targets,
                        const sim::Event* ev, const char* site) {
  if (ev != nullptr && ev->ready()) return;  // already satisfied; no edge
  WaitInfo& w = waits_[static_cast<std::size_t>(waiter_world)];
  w.active = true;
  w.targets = std::move(targets);
  w.ev = ev;
  w.edges.clear();
  w.site = site;
  ++stats_.waits_tracked;
  detectCycle(waiter_world);
}

void Checker::beginWaitAll(Rank waiter_world, std::vector<WaitEdge> edges,
                           const char* site) {
  // An AND-wait only blocks on legs whose event has not fired; satisfied
  // legs must not appear in the graph or an already-arrived message would
  // manufacture a cycle.
  std::erase_if(edges, [](const WaitEdge& e) { return !edgePending(e); });
  if (edges.empty()) return;
  WaitInfo& w = waits_[static_cast<std::size_t>(waiter_world)];
  w.active = true;
  w.targets = nullptr;
  w.ev = nullptr;
  w.edges = std::move(edges);
  w.site = site;
  ++stats_.waits_tracked;
  detectCycle(waiter_world);
}

void Checker::detectCycle(Rank waiter_world) {
  // DFS over currently-blocked ranks; edges are re-evaluated through each
  // waiter's target closure (or per-edge events) so lock handoffs and
  // partially-completed AND-waits never leave stale edges.
  const auto blocked = [&](Rank r) {
    const WaitInfo& wi = waits_[static_cast<std::size_t>(r)];
    if (!wi.active) return false;
    if (!wi.edges.empty()) {
      return std::any_of(wi.edges.begin(), wi.edges.end(), edgePending);
    }
    return wi.ev == nullptr || !wi.ev->ready();
  };
  const auto targetsOf = [&](Rank r) {
    const WaitInfo& wi = waits_[static_cast<std::size_t>(r)];
    if (!wi.edges.empty()) {
      std::vector<Rank> out;
      for (const WaitEdge& e : wi.edges) {
        if (edgePending(e)) out.push_back(e.target);
      }
      return out;
    }
    return wi.targets();
  };
  std::vector<Rank> path{waiter_world};
  std::set<Rank> visited{waiter_world};
  const std::function<bool(Rank)> dfs = [&](Rank n) {
    for (const Rank t : targetsOf(n)) {
      if (t == waiter_world) return true;  // cycle closed
      if (t < 0 || t >= world_size_ || visited.count(t) != 0 || !blocked(t)) {
        continue;
      }
      visited.insert(t);
      path.push_back(t);
      if (dfs(t)) return true;
      path.pop_back();
    }
    return false;
  };
  if (!dfs(waiter_world)) return;

  std::ostringstream os;
  os << "wait-for cycle among blocked ranks (deadlock): ";
  for (const Rank r : path) {
    const WaitInfo& wi = waits_[static_cast<std::size_t>(r)];
    os << "rank " << r << " waiting at " << wi.site;
    appendLabel(os, label(r));
    os << " -> ";
  }
  os << "rank " << waiter_world;
  WaitInfo& w = waits_[static_cast<std::size_t>(waiter_world)];
  w.active = false;  // this rank will not block; it throws instead
  fail(os.str());
}

void Checker::endWait(Rank waiter_world) {
  WaitInfo& w = waits_[static_cast<std::size_t>(waiter_world)];
  w.active = false;
  w.targets = nullptr;
  w.ev = nullptr;
  w.edges.clear();
}

}  // namespace tcio::check
