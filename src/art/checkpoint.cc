#include "art/checkpoint.h"

#include <cstring>
#include <map>
#include <span>

#include "common/crc32.h"
#include "common/error.h"
#include "mpiio/file.h"
#include "tcio/file.h"

namespace tcio::art {

namespace {

constexpr std::int64_t kMagic = 0x41525443;      // "ARTC" (shared file)
constexpr std::int64_t kMagicNN = 0x4152544E;    // "ARTN" (file-per-process)

struct TableEntry {
  Offset offset = 0;
  Bytes size = 0;
  std::uint32_t crc = 0;
  std::uint32_t pad = 0;
};
static_assert(sizeof(TableEntry) == 24);

Bytes headerBytes(std::int64_t num_trees) { return 16 + num_trees * 24; }

std::uint32_t treeCrc(const FttTree& t) {
  std::uint32_t crc = 0;
  forEachArray(t, [&crc](const void* data, Bytes len) {
    crc = crc32({static_cast<const std::byte*>(data),
                 static_cast<std::size_t>(len)},
                crc);
  });
  return crc;
}

/// All ranks learn every tree's size and checksum: each contributes its own
/// trees' values into zero-initialized vectors, then max-allreduces merge.
struct SharedMeta {
  std::vector<Bytes> sizes;
  std::vector<std::int64_t> crcs;
};

SharedMeta shareMeta(mpi::Comm& comm, const std::vector<FttTree>& trees,
                     std::int64_t num_trees_global) {
  SharedMeta meta;
  meta.sizes.assign(static_cast<std::size_t>(num_trees_global), 0);
  meta.crcs.assign(static_cast<std::size_t>(num_trees_global), 0);
  for (const FttTree& t : trees) {
    TCIO_CHECK(t.id >= 0 && t.id < num_trees_global);
    meta.sizes[static_cast<std::size_t>(t.id)] = treeSerializedSize(t);
    meta.crcs[static_cast<std::size_t>(t.id)] = treeCrc(t);
  }
  comm.allreduce(meta.sizes.data(), num_trees_global, mpi::ReduceOp::kMax);
  comm.allreduce(meta.crcs.data(), num_trees_global, mpi::ReduceOp::kMax);
  return meta;
}

std::vector<TableEntry> buildTable(const SharedMeta& meta) {
  std::vector<TableEntry> table(meta.sizes.size());
  Offset cursor = headerBytes(static_cast<std::int64_t>(meta.sizes.size()));
  for (std::size_t i = 0; i < meta.sizes.size(); ++i) {
    table[i] = {cursor, meta.sizes[i],
                static_cast<std::uint32_t>(meta.crcs[i]), 0};
    cursor += meta.sizes[i];
  }
  return table;
}

/// Writer abstraction shared by the N-1 backends: one call per on-disk
/// array, exactly the paper's per-datum access pattern.
template <typename WriteAt>
void writeTrees(const std::vector<FttTree>& trees,
                const std::vector<TableEntry>& table, const WriteAt& write) {
  for (const FttTree& t : trees) {
    Offset cursor = table[static_cast<std::size_t>(t.id)].offset;
    forEachArray(t, [&](const void* data, Bytes len) {
      write(cursor, data, len);
      cursor += len;
    });
    TCIO_CHECK(cursor == table[static_cast<std::size_t>(t.id)].offset +
                             table[static_cast<std::size_t>(t.id)].size);
  }
}

template <typename WriteAt>
void writeHeader(std::int64_t num_trees,
                 const std::vector<TableEntry>& table, const WriteAt& write) {
  write(0, &kMagic, 8);
  write(8, &num_trees, 8);
  for (std::size_t i = 0; i < table.size(); ++i) {
    write(16 + static_cast<Offset>(i) * 24, &table[i], 24);
  }
}

core::TcioConfig sizedTcio(core::TcioConfig cfg, Bytes file_size, int P) {
  // Level-2 buffer sized to exactly the file domain / P (paper §V.B.2.b).
  cfg.segments_per_rank = std::max<std::int64_t>(
      1, (file_size + cfg.segment_size * P - 1) / (cfg.segment_size * P));
  return cfg;
}

std::string rankFileName(const std::string& base, int rank) {
  return base + "." + std::to_string(rank);
}

/// One pass over the blob: the CRC is taken inside the parser's copies. A
/// blob that fails its CRC throws FsError even when the parser fails first;
/// only then does the CRC get a pass of its own.
FttTree parseAndVerify(std::span<const std::byte> blob, std::uint32_t want_crc,
                       const std::string& name) {
  try {
    std::uint32_t got = 0;
    FttTree tree =
        parseTree(blob.data(), static_cast<Bytes>(blob.size()), got);
    if (got == want_crc) return tree;
  } catch (...) {
    if (crc32(blob) == want_crc) throw;
  }
  throw FsError("checkpoint corruption detected in " + name +
                " (CRC mismatch)");
}

// ---------------------------------------------------------------------------
// File-per-process (N-N) backend
// ---------------------------------------------------------------------------

void dumpFilePerProcess(mpi::Comm& comm, fs::Filesystem& fsys,
                        const std::string& name,
                        const std::vector<FttTree>& trees,
                        std::int64_t num_trees_global) {
  fs::FsClient fc(fsys, comm.proc());
  // Meta file by rank 0: magic, tree count, writer count.
  if (comm.rank() == 0) {
    fs::FsFile meta = fc.open(name, fs::kWrite | fs::kCreate | fs::kTruncate);
    const std::int64_t P = comm.size();
    fc.pwrite(meta, 0, &kMagicNN, 8);
    fc.pwrite(meta, 8, &num_trees_global, 8);
    fc.pwrite(meta, 16, &P, 8);
    fc.close(meta);
  }
  // Per-rank file: local table + blobs, no communication at all.
  fs::FsFile f = fc.open(rankFileName(name, comm.rank()),
                         fs::kWrite | fs::kCreate | fs::kTruncate);
  const auto ntrees = static_cast<std::int64_t>(trees.size());
  std::vector<TableEntry> table(trees.size());
  Offset cursor = 8 + ntrees * 24;
  for (std::size_t i = 0; i < trees.size(); ++i) {
    table[i] = {cursor, treeSerializedSize(trees[i]), treeCrc(trees[i]), 0};
    cursor += table[i].size;
  }
  fc.pwrite(f, 0, &ntrees, 8);
  if (ntrees > 0) fc.pwrite(f, 8, table.data(), ntrees * 24);
  for (std::size_t i = 0; i < trees.size(); ++i) {
    Offset pos = table[i].offset;
    forEachArray(trees[i], [&](const void* data, Bytes len) {
      fc.pwrite(f, pos, data, len);
      pos += len;
    });
  }
  fc.close(f);
  comm.barrier();  // dump complete on every rank
}

std::vector<FttTree> loadFilePerProcess(mpi::Comm& comm, fs::Filesystem& fsys,
                                        const std::string& name) {
  fs::FsClient fc(fsys, comm.proc());
  fs::FsFile meta = fc.open(name, fs::kRead);
  std::int64_t magic = 0, num_trees = 0, writer_p = 0;
  fc.pread(meta, 0, &magic, 8);
  fc.pread(meta, 8, &num_trees, 8);
  fc.pread(meta, 16, &writer_p, 8);
  fc.close(meta);
  TCIO_CHECK_MSG(magic == kMagicNN,
                 "not a file-per-process ART checkpoint: " + name);
  // Cache per-writer tables as needed (re-decomposition may read several).
  std::map<int, std::vector<TableEntry>> tables;
  auto tableOf = [&](int writer) -> const std::vector<TableEntry>& {
    auto it = tables.find(writer);
    if (it == tables.end()) {
      fs::FsFile f = fc.open(rankFileName(name, writer), fs::kRead);
      std::int64_t n = 0;
      fc.pread(f, 0, &n, 8);
      std::vector<TableEntry> table(static_cast<std::size_t>(n));
      if (n > 0) fc.pread(f, 8, table.data(), n * 24);
      fc.close(f);
      it = tables.emplace(writer, std::move(table)).first;
    }
    return it->second;
  };
  std::vector<FttTree> out;
  for (std::int64_t id : treesOfRank(num_trees, comm.rank(), comm.size())) {
    const int writer = static_cast<int>(id % writer_p);
    const auto index = static_cast<std::size_t>(id / writer_p);
    const auto& table = tableOf(writer);
    TCIO_CHECK(index < table.size());
    fs::FsFile f = fc.open(rankFileName(name, writer), fs::kRead);
    std::vector<std::byte> blob(static_cast<std::size_t>(table[index].size));
    fc.pread(f, table[index].offset, blob.data(),
             static_cast<Bytes>(blob.size()));
    fc.close(f);
    out.push_back(parseAndVerify(blob, table[index].crc, name));
  }
  return out;
}

/// Closes `f` and hands it to the caller's close hook, also when the close
/// throws (the counters then show what the failing close did).
void closeTcio(core::File& f, const CheckpointConfig& cfg) {
  try {
    f.close();
  } catch (...) {
    if (cfg.on_tcio_close) cfg.on_tcio_close(f);
    throw;
  }
  if (cfg.on_tcio_close) cfg.on_tcio_close(f);
}

}  // namespace

std::vector<std::int64_t> treesOfRank(std::int64_t num_trees, int rank,
                                      int size) {
  std::vector<std::int64_t> ids;
  for (std::int64_t id = rank; id < num_trees; id += size) ids.push_back(id);
  return ids;
}

void dumpCheckpoint(mpi::Comm& comm, fs::Filesystem& fsys,
                    const std::string& name,
                    const std::vector<FttTree>& trees,
                    std::int64_t num_trees_global,
                    const CheckpointConfig& cfg) {
  if (cfg.backend == Backend::kFilePerProcess) {
    dumpFilePerProcess(comm, fsys, name, trees, num_trees_global);
    return;
  }
  const SharedMeta meta = shareMeta(comm, trees, num_trees_global);
  const std::vector<TableEntry> table = buildTable(meta);
  const Bytes file_size =
      table.empty() ? headerBytes(0) : table.back().offset + table.back().size;

  if (cfg.backend == Backend::kTcio) {
    core::File f(comm, fsys, name, fs::kWrite | fs::kCreate | fs::kTruncate,
                 sizedTcio(cfg.tcio, file_size, comm.size()));
    auto write = [&f](Offset off, const void* data, Bytes len) {
      f.writeAt(off, data, len);
    };
    if (comm.rank() == 0) writeHeader(num_trees_global, table, write);
    writeTrees(trees, table, write);
    closeTcio(f, cfg);
  } else {
    io::MpioFile f = io::MpioFile::open(
        comm, fsys, name, fs::kWrite | fs::kCreate | fs::kTruncate);
    auto write = [&f](Offset off, const void* data, Bytes len) {
      f.writeAt(off, data, len);
    };
    if (comm.rank() == 0) writeHeader(num_trees_global, table, write);
    writeTrees(trees, table, write);
    f.close();
  }
}

std::vector<FttTree> loadCheckpoint(mpi::Comm& comm, fs::Filesystem& fsys,
                                    const std::string& name,
                                    const CheckpointConfig& cfg) {
  if (cfg.backend == Backend::kFilePerProcess) {
    return loadFilePerProcess(comm, fsys, name);
  }
  const Bytes file_size = fsys.peekSize(name);  // metadata query
  std::vector<FttTree> out;

  auto parseMine = [&](const auto& readAt, const auto& finish) {
    std::int64_t magic = 0, num_trees = 0;
    readAt(0, &magic, 8);
    readAt(8, &num_trees, 8);
    finish();
    TCIO_CHECK_MSG(magic == kMagic, "not an ART checkpoint: " + name);
    std::vector<TableEntry> table(static_cast<std::size_t>(num_trees));
    if (num_trees > 0) readAt(16, table.data(), num_trees * 24);
    finish();
    const auto mine = treesOfRank(num_trees, comm.rank(), comm.size());
    // The blobs are not zero-filled: the read overwrites every byte, and
    // parseAndVerify's CRC catches a piece the gather drops.
    std::vector<mpi::RawBytes> blobs;
    blobs.reserve(mine.size());
    for (std::int64_t id : mine) {
      const TableEntry& e = table[static_cast<std::size_t>(id)];
      blobs.emplace_back(static_cast<std::size_t>(e.size));
      readAt(e.offset, blobs.back().data(), e.size);
    }
    finish();
    for (std::size_t i = 0; i < blobs.size(); ++i) {
      const TableEntry& e = table[static_cast<std::size_t>(mine[i])];
      out.push_back(parseAndVerify({blobs[i].data(), blobs[i].size()}, e.crc,
                                   name));
    }
  };

  if (cfg.backend == Backend::kTcio) {
    core::File f(comm, fsys, name, fs::kRead,
                 sizedTcio(cfg.tcio, file_size, comm.size()));
    parseMine(
        [&f](Offset off, void* data, Bytes len) { f.readAt(off, data, len); },
        [&f] { f.fetch(); });
    closeTcio(f, cfg);
  } else {
    io::MpioFile f = io::MpioFile::open(comm, fsys, name, fs::kRead);
    parseMine(
        [&f](Offset off, void* data, Bytes len) { f.readAt(off, data, len); },
        [] {});
    f.close();
  }
  return out;
}

}  // namespace tcio::art
