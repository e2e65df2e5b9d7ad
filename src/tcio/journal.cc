#include "tcio/journal.h"

#include <algorithm>
#include <cstring>

#include "common/crc32.h"
#include "common/error.h"

namespace tcio::core {

namespace {

/// CRC over the frame body: seg, disp, len, gen, payload (magic and the CRC
/// field itself excluded; the reserved word is excluded too so it stays
/// free for future use without a format bump). This is its first part, the
/// fields; the payload's bytes chain on.
std::uint32_t fieldsCrc(std::int64_t seg, std::int64_t disp, std::int64_t len,
                        std::uint32_t gen) {
  std::byte fields[28];
  std::memcpy(fields + 0, &seg, 8);
  std::memcpy(fields + 8, &disp, 8);
  std::memcpy(fields + 16, &len, 8);
  std::memcpy(fields + 24, &gen, 4);
  return crc32({fields, sizeof(fields)});
}

}  // namespace

std::string journalPath(const std::string& file, Rank rank) {
  return file + ".wal." + std::to_string(rank);
}

Journal::Journal(fs::FsClient& client, std::string path)
    : client_(&client), path_(std::move(path)) {
  file_ = client_->open(path_, fs::kCreate | fs::kTruncate | fs::kWrite);
}

Journal::~Journal() {
  try {
    close();
    // A crash mid-journal-teardown is absorbed: replay tolerates an
    // unclosed WAL by construction (CRC framing drops any torn tail).
    // NOLINT-TCIO(crash-unwind-swallow): destructor must not throw
  } catch (...) {
    // Destructor must not throw; an unclean journal handle only costs the
    // simulated MDS a close it never saw.
  }
}

void Journal::close() {
  if (file_.valid()) client_->close(file_);
}

void Journal::append(std::int64_t seg, Offset disp,
                     std::span<const std::byte> payload,
                     std::int64_t torn_prefix, std::uint32_t gen) {
  TCIO_CHECK_MSG(file_.valid(), "append on a closed journal");
  const auto len = static_cast<std::int64_t>(payload.size());
  ++records_;
  // The frame goes straight into the batch. A crash mid-append lets only a
  // prefix of it reach the platter: the torn record is unreadable (short
  // frame or CRC mismatch) by design. Any batched records ahead of it still
  // make the device — they were logically appended first.
  const Bytes frame = kHeaderBytes + len;
  std::byte* at = growBatch(static_cast<std::size_t>(frame));
  // The payload's CRC is taken inside its copy into the batch.
  const std::uint32_t crc =
      crc32Copy(at + kHeaderBytes, payload, fieldsCrc(seg, disp, len, gen));
  const std::uint32_t magic = kMagic;
  const std::uint32_t reserved = 0;
  std::memcpy(at + 0, &magic, 4);
  std::memcpy(at + 4, &crc, 4);
  std::memcpy(at + 8, &seg, 8);
  std::memcpy(at + 16, &disp, 8);
  std::memcpy(at + 24, &len, 8);
  std::memcpy(at + 32, &gen, 4);
  std::memcpy(at + 36, &reserved, 4);
  if (torn_prefix >= 0) {
    // Only the torn prefix reaches the device.
    batch_size_ -= static_cast<std::size_t>(
        frame - std::min<Bytes>(frame, torn_prefix));
  }
  if (torn_prefix >= 0 || !batching_) flushBatch();
}

std::byte* Journal::growBatch(std::size_t n) {
  if (batch_.size() - batch_size_ < n) {
    mpi::RawBytes bigger(std::max(2 * batch_.size(), batch_size_ + n));
    if (batch_size_ > 0) std::memcpy(bigger.data(), batch_.data(), batch_size_);
    batch_ = std::move(bigger);
  }
  std::byte* at = batch_.data() + batch_size_;
  batch_size_ += n;
  return at;
}

void Journal::batchBegin() { batching_ = true; }

void Journal::batchEnd() {
  batching_ = false;
  flushBatch();
}

void Journal::flushBatch() {
  if (batch_size_ == 0) return;
  client_->appendJournal(file_, cursor_, batch_.data(),
                         static_cast<Bytes>(batch_size_));
  cursor_ += static_cast<Offset>(batch_size_);
  batch_size_ = 0;
}

void Journal::commit() {
  TCIO_CHECK_MSG(file_.valid(), "commit on a closed journal");
  batch_size_ = 0;  // committed bytes supersede anything still buffered
  batching_ = false;
  if (cursor_ == 0) return;
  // Truncating reopen: the journal's bytes are superseded by the committed
  // file contents. One MDS round-trip, no data movement.
  client_->close(file_);
  file_ = client_->open(path_, fs::kCreate | fs::kTruncate | fs::kWrite);
  cursor_ = 0;
  records_ = 0;
}

Journal::Parsed Journal::parse(std::span<const std::byte> raw) {
  Parsed out;
  std::size_t pos = 0;
  while (pos < raw.size()) {
    if (pos + static_cast<std::size_t>(kHeaderBytes) > raw.size()) {
      ++out.torn_records;
      break;
    }
    std::uint32_t magic = 0;
    std::uint32_t crc = 0;
    std::int64_t seg = 0;
    std::int64_t disp = 0;
    std::int64_t len = 0;
    std::uint32_t gen = 0;
    std::memcpy(&magic, raw.data() + pos + 0, 4);
    std::memcpy(&crc, raw.data() + pos + 4, 4);
    std::memcpy(&seg, raw.data() + pos + 8, 8);
    std::memcpy(&disp, raw.data() + pos + 16, 8);
    std::memcpy(&len, raw.data() + pos + 24, 8);
    std::memcpy(&gen, raw.data() + pos + 32, 4);
    if (magic != kMagic || len < 0 ||
        pos + static_cast<std::size_t>(kHeaderBytes) +
                static_cast<std::size_t>(len) >
            raw.size()) {
      ++out.torn_records;
      break;
    }
    const std::span<const std::byte> payload(
        raw.data() + pos + static_cast<std::size_t>(kHeaderBytes),
        static_cast<std::size_t>(len));
    if (crc32(payload, fieldsCrc(seg, disp, len, gen)) != crc) {
      // Complete frame, valid magic, in-bounds length — the framing is
      // intact and only the body is corrupt (a flipped bit on the journal
      // device, not a torn append). Drop this record and keep scanning.
      ++out.corrupt_records;
      pos += static_cast<std::size_t>(kHeaderBytes) +
             static_cast<std::size_t>(len);
      continue;
    }
    Record rec;
    rec.seg = seg;
    rec.disp = disp;
    rec.gen = gen;
    rec.payload.assign(payload.begin(), payload.end());
    out.bytes_replayable += len;
    out.records.push_back(std::move(rec));
    pos += static_cast<std::size_t>(kHeaderBytes) +
           static_cast<std::size_t>(len);
  }
  return out;
}

Journal::Parsed Journal::readAndParse(fs::FsClient& client,
                                      const std::string& path) {
  fs::FsFile f;
  try {
    f = client.open(path, fs::kRead);
  } catch (const FileNotFound&) {
    return {};  // journaling was off, or the rank never flushed
  }
  const Bytes size = client.size(f);
  std::vector<std::byte> raw(static_cast<std::size_t>(size));
  if (size > 0) client.pread(f, 0, raw.data(), size);
  client.close(f);
  return parse(raw);
}

}  // namespace tcio::core
