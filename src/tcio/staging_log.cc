#include "tcio/staging_log.h"

#include <algorithm>

#include "common/crc32.h"

namespace tcio::core {

void StagingLog::append(Offset off, std::span<const std::byte> payload,
                        bool digest) {
  const std::size_t need = sizeof(BlockMeta) + payload.size();
  if (chunks_.empty() ||
      chunks_.back().bytes.size() - chunks_.back().used < need) {
    chunks_.push_back({mpi::RawBytes(std::max(need, kChunkBytes)), 0});
  }
  Chunk& c = chunks_.back();
  std::byte* at = c.bytes.data() + c.used;
  BlockMeta m{off, static_cast<Bytes>(payload.size())};
  if (digest) {
    m.crc = crc32Copy(at + sizeof(m), payload);
    m.has_crc = 1;
  } else if (!payload.empty()) {
    std::memcpy(at + sizeof(m), payload.data(), payload.size());
  }
  std::memcpy(at, &m, sizeof(m));
  c.used += need;
}

}  // namespace tcio::core
