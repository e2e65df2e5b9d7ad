// core::File end-to-end data integrity (DESIGN.md §11): client-time digests,
// the digest exchange to segment owners, the ledger gate and the scrubber.
#include <algorithm>

#include "tcio/file_internal.h"

namespace tcio::core {

void File::digestLevel1(SegmentId seg, const std::vector<Extent>& extents) {
  // One DigestRec per *run*, not per extent (extendRun): fine-grained
  // interleaved patterns (Fig. 5) would otherwise ship a 32-byte record for
  // every 4-byte element — more digest than data on the NIC.
  Bytes total = 0;
  DigestRun run;
  bool open = false;
  const auto ship = [&] {
    pending_digests_.push_back({seg, run.disp,
                                static_cast<std::uint32_t>(run.len),
                                static_cast<std::uint32_t>(run.stride),
                                static_cast<std::uint32_t>(run.count),
                                run.crc});
  };
  for (const Extent& e : extents) {
    const std::span<const std::byte> bytes{
        level1_.data() + e.begin, static_cast<std::size_t>(e.size())};
    total += e.size();
    if (open && extendRun(run, e.begin, e.size())) {
      run.crc = crc32(bytes, run.crc);
      continue;
    }
    if (open) ship();
    run = {e.begin, e.size(), 0, 1, crc32(bytes)};
    open = true;
  }
  if (open) ship();
  chargeChecksum(comm_->proc(), total);
}

void File::exchangeDigests() {
  if (!integrity_on_) return;
  // Route every record straight to its segment's current owner. In crash
  // mode every call runs after the liveness agreement that settles orphans_,
  // so ownerOf() already names whoever adopted a dead rank's segments.
  // Fine-grained workloads produce one record per tiny strided extent, so a
  // broadcast would put P copies of an already metadata-heavy stream on the
  // NIC — the routed exchange is what keeps the integrity tax inside the
  // bench_ablation_integrity budget.
  const auto ownerIndex = [&](const DigestRec& r) {
    return static_cast<std::size_t>(curOf(ownerOf(r.seg)));
  };
  std::vector<Bytes> counts(static_cast<std::size_t>(comm_->size()), 0);
  for (const DigestRec& r : pending_digests_) {
    counts[ownerIndex(r)] += sizeof(DigestRec);
  }
  mpi::PackedSend send(std::move(counts));
  for (const DigestRec& r : pending_digests_) {
    send.append(ownerIndex(r), &r, sizeof(DigestRec));
  }
  pending_digests_.clear();
  const mpi::SizedExchange got = mpi::sizedAlltoallv(*comm_, send);
  for (std::size_t s = 0; s < got.counts.size(); ++s) {
    got.forEachRecord<DigestRec>(
        s, [&](const DigestRec& r) { ledger_[r.seg].insert(r.run()); });
  }
}

void File::verifySlot(SegmentId g, std::int64_t slot) {
  const auto it = ledger_.find(g);
  if (it == ledger_.end() || it->second.empty()) return;
  std::byte* flags = localFlags();
  if (flags[flagsDisp(slot, kDirtyFlag)] == std::byte{0} &&
      flags[flagsDisp(slot, kLoadedFlag)] == std::byte{0}) {
    return;  // not resident — nothing the ledger describes is in the window
  }
  // Any rank may have contributed extents to this segment, so a repair
  // replays every rank's journal records for it, in rank order — costed
  // reads, same discipline as crash recovery.
  WalSource wal;
  if (journal_ != nullptr) wal = [this] { return readAllJournals(); };
  if (verifyOrRepair(
          it->second, g,
          {window_->localRange(dataDisp(slot, 0), cfg_.segment_size),
           static_cast<std::size_t>(cfg_.segment_size)},
          wal, comm_->proc(), stats_.integrity, name_)) {
    flags[flagsDisp(slot, kDirtyFlag)] = kFlagSet;
  }
}

void File::scrubTick() {
  constexpr std::int64_t kSegmentsPerCollective = 2;
  const auto owned = ownedSlots();
  if (owned.empty()) return;
  ++stats_.integrity.scrub_passes;
  const std::int64_t budget = std::min(
      kSegmentsPerCollective, static_cast<std::int64_t>(owned.size()));
  for (std::int64_t i = 0; i < budget; ++i) {
    const auto& [g, slot] = owned[static_cast<std::size_t>(
        scrub_cursor_++ % static_cast<std::int64_t>(owned.size()))];
    if (ledger_.find(g) != ledger_.end()) {
      verifySlot(g, slot);
      ++stats_.integrity.segments_scrubbed;
    }
  }
}

void File::scrubAndAgree() {
  if (!integrity_on_) return;
  collectiveAgreeOnError(captureLocal([&] { scrubTick(); }));
}

void File::scrubAll() {
  if (!integrity_on_) return;
  ++stats_.integrity.scrub_passes;
  for (const auto& [g, slot] : ownedSlots()) {
    if (ledger_.find(g) != ledger_.end()) {
      verifySlot(g, slot);
      ++stats_.integrity.segments_scrubbed;
    }
  }
}

void File::maybeCorruptWindow() {
  if (corruption_ == nullptr || window_ == nullptr) return;
  // The injector flips a bit inside a *digested* extent of an owned slot, so
  // the flip is guaranteed to land in a checksum domain (a flip in
  // never-written window memory would be invisible and meaningless). The arm
  // is consumed only once such a target exists.
  for (const auto& [g, slot] : ownedSlots()) {
    const auto it = ledger_.find(g);
    if (it == ledger_.end() || it->second.empty()) continue;
    if (!corruption_->fires(CorruptSite::kWindow)) return;
    const DigestRun& run = it->second.front();
    corruption_->flipBit(
        {window_->localRange(dataDisp(slot, run.disp), run.len),
         static_cast<std::size_t>(run.len)});
    return;
  }
}

}  // namespace tcio::core
